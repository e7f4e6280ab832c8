// In-memory span tracing for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its calls into each layer of
// the program (the program itself carries no spans). Each thread keeps its
// own span buffer and stack of open spans; nothing is written out until the
// run ends. A span's self time is its duration minus the time of the spans
// and leaf operations nested inside it. Leaf operations (page reads and
// writes of a PagedFile, far too many to keep one span each) are summed per
// thread and charged to the enclosing span as child time.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

enum Layer : uint8_t {
  kRequest,      // one whole benchmark request (root span)
  kParse,        // ParseXPath
  kPrepare,      // PrepareQuery
  kPin,          // SecureStore::SnapshotPin construction
  kViewCompile,  // SecureStore::View
  kHiddenSweep,  // SecureStore::HiddenSubtreeIntervals
  kGroup,        // SecureStore::GroupSubjects
  kScan,         // NokMatcher::MatchFragment
  kFilter,       // FilterMatchesVisible
  kJoin,         // JoinMatches
  kEvaluate,     // QueryEvaluator::EvaluatePrepared
  kBatchEval,    // QueryDriver::EvaluateForSubjects
  kCacheEval,    // EvaluateWithCaches
  kUpdate,       // SecureStore::SetRangeAccess
  kCheckpoint,   // SecureStore::Checkpoint
  kRecovery,     // SecureStore::OpenWithWal
  kFileRead,     // leaf: data file ReadPage
  kFileWrite,    // leaf: data file WritePage / AllocatePage
  kFileSync,     // leaf: data file Sync
  kWalRead,      // leaf: WAL file ReadPage
  kWalWrite,     // leaf: WAL file WritePage / AllocatePage
  kWalSync,      // leaf: WAL file Sync
  kNumLayers,
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct LayerTotals {
  std::array<uint64_t, kNumLayers> self_ns{};
  std::array<uint64_t, kNumLayers> count{};
};

class Tracer {
 public:
  struct Span {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t child_ns = 0;
    uint32_t parent = kNoParent;
    uint32_t request = 0;
    Layer layer = kRequest;
  };
  static constexpr uint32_t kNoParent = 0xffffffffu;

  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span on the calling thread; returns its index.
  uint32_t Open(Layer layer) {
    ThreadBuf& t = Local();
    Span s;
    s.layer = layer;
    s.parent = t.open.empty() ? kNoParent : t.open.back();
    s.request = s.parent == kNoParent ? ++t.requests : t.spans[s.parent].request;
    s.start_ns = NowNs();
    t.spans.push_back(s);
    t.open.push_back(static_cast<uint32_t>(t.spans.size() - 1));
    return t.open.back();
  }

  /// Closes span `index` and charges its self time (duration minus the
  /// spans and leaves nested in it) to its layer.
  void Close(uint32_t index) {
    ThreadBuf& t = Local();
    Span& s = t.spans[index];
    s.end_ns = NowNs();
    t.open.pop_back();
    const uint64_t d = s.end_ns - s.start_ns;
    if (s.parent != kNoParent) t.spans[s.parent].child_ns += d;
    t.totals.self_ns[s.layer] += d > s.child_ns ? d - s.child_ns : 0;
    ++t.totals.count[s.layer];
  }

  /// Charges one leaf operation of `ns` to `layer` and to the enclosing
  /// span's child time.
  void Leaf(Layer layer, uint64_t ns) {
    ThreadBuf& t = Local();
    t.totals.self_ns[layer] += ns;
    ++t.totals.count[layer];
    if (!t.open.empty()) t.spans[t.open.back()].child_ns += ns;
  }

  /// Per-layer self time and counts over every thread. Call once the
  /// threads that record have stopped.
  LayerTotals Totals() const {
    LayerTotals out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& t : threads_) {
      for (size_t l = 0; l < kNumLayers; ++l) {
        out.self_ns[l] += t->totals.self_ns[l];
        out.count[l] += t->totals.count[l];
      }
    }
    return out;
  }

  /// The calling thread's totals so far.
  LayerTotals ThreadTotals() { return Local().totals; }

 private:
  struct ThreadBuf {
    std::vector<Span> spans;
    std::vector<uint32_t> open;
    LayerTotals totals;
    uint32_t requests = 0;
  };

  ThreadBuf& Local() {
    thread_local ThreadBuf* buf = nullptr;
    if (buf == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.push_back(std::make_unique<ThreadBuf>());
      buf = threads_.back().get();
    }
    return *buf;
  }

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> threads_;
};

/// RAII span; records nothing when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer) {
    if (Tracer::Get().enabled()) index_ = Tracer::Get().Open(layer);
  }
  ~ScopedSpan() {
    if (index_ != Tracer::kNoParent) Tracer::Get().Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint32_t index_ = Tracer::kNoParent;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
