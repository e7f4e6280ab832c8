// PagedFile decorator that counts (and, when tracing, times) every page
// operation the store makes on its data file or its write-ahead log.
#ifndef PERFBENCH_TIMED_FILE_H_
#define PERFBENCH_TIMED_FILE_H_

#include <atomic>
#include <cstdint>

#include "storage/paged_file.h"
#include "trace.h"

namespace perfbench {

/// Page writes (and allocations) issued by the calling thread through any
/// TimedPagedFile, so a writer can tell its own writes from a reader's
/// eviction write-backs.
inline thread_local uint64_t tl_page_writes = 0;

class TimedPagedFile final : public secxml::PagedFile {
 public:
  /// `wal` selects the WAL leaf layers instead of the data-file ones.
  TimedPagedFile(secxml::PagedFile* base, bool wal)
      : base_(base),
        read_layer_(wal ? kWalRead : kFileRead),
        write_layer_(wal ? kWalWrite : kFileWrite),
        sync_layer_(wal ? kWalSync : kFileSync) {}

  secxml::PageId NumPages() const override { return base_->NumPages(); }

  secxml::Result<secxml::PageId> AllocatePage() override {
    Timed t(write_layer_);
    ++writes_;
    ++tl_page_writes;
    return base_->AllocatePage();
  }
  secxml::Status ReadPage(secxml::PageId id, secxml::Page* out) override {
    Timed t(read_layer_);
    ++reads_;
    return base_->ReadPage(id, out);
  }
  secxml::Status WritePage(secxml::PageId id,
                           const secxml::Page& page) override {
    Timed t(write_layer_);
    ++writes_;
    ++tl_page_writes;
    return base_->WritePage(id, page);
  }
  secxml::Status Sync() override {
    Timed t(sync_layer_);
    ++syncs_;
    return base_->Sync();
  }

  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }

 private:
  /// Times one operation into the tracer when tracing is on.
  class Timed {
   public:
    explicit Timed(Layer layer)
        : layer_(layer), start_(Tracer::Get().enabled() ? NowNs() : 0) {}
    ~Timed() {
      if (start_ != 0) Tracer::Get().Leaf(layer_, NowNs() - start_);
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    Layer layer_;
    uint64_t start_;
  };

  secxml::PagedFile* base_;
  Layer read_layer_, write_layer_, sync_layer_;
  std::atomic<uint64_t> reads_{0}, writes_{0}, syncs_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_FILE_H_
