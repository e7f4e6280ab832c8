// Shared pieces of the end-to-end benchmark: the result report, the store
// fixture, the query mix, the answer check against the oracle, and the
// reassembled (traced) evaluation.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/dol_labeling.h"
#include "core/secure_store.h"
#include "oracle.h"
#include "stats.h"
#include "query/evaluator.h"
#include "query/query_cache.h"
#include "storage/paged_file.h"
#include "timed_file.h"
#include "trace.h"
#include "xml/document.h"

namespace perfbench {

using namespace secxml;  // NOLINT: benchmark code talks to one library

/// Seed of the catalog every run shares: the document, the ACL profiles
/// and the query set. --seed varies the request stream, the subject and
/// batch draws and the update schedule, never the catalog, so that two runs
/// differ in what is sent but not in what is stored: with a per-seed
/// catalog, which random twigs were drawn moved the p50s by up to 2x.
inline constexpr uint64_t kCatalogSeed = 20050405;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// What one run prints: correctness, operation counts and named metrics.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
  /// Extra figures for the human-readable detail line (sample counts, ...).
  void Detail(const std::string& name, double value);

  bool correct() const { return correct_; }
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultJson() const;
  std::string DetailJson() const;

 private:
  bool correct_ = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, double>> details_;
};

/// Seed of an independent stream for purpose `tag`.
uint64_t Derive(uint64_t seed, uint64_t tag);

double SecondsSince(uint64_t start_ns);

/// Seeded Fisher-Yates shuffle.
template <typename Container>
void Shuffle(Container* c, Rng* rng) {
  for (size_t i = c->size(); i > 1; --i) {
    std::swap((*c)[i - 1], (*c)[rng->Uniform(i)]);
  }
}

// --- Store fixture -------------------------------------------------------

/// Every workload's document is a 200k-node XMark and every ACL profile is
/// a synthetic one with accessibility ratio 0.6.
struct FixtureOptions {
  size_t pool_pages = 64;
  /// Distinct synthetic ACL profiles (roles); subject s holds role s % roles.
  size_t roles = 4;
  size_t subjects = 4;
  /// Adds one more subject (the last id) that may access every node.
  bool full_access_subject = false;
  /// Fraction of the document, as [begin, end) in node-count shares, denied
  /// to every role subject.
  double stripe_begin = 0, stripe_end = 0;
  bool vacuum = false;
  /// Non-empty: the store and its WAL live in files under this directory.
  std::string file_dir;
};

/// One secure store with its timed files.
struct StoreSlot {
  std::unique_ptr<PagedFile> data_base, wal_base;
  std::unique_ptr<TimedPagedFile> data, wal;
  /// Epoch published by the store's most recent commit (a commit hook).
  std::atomic<uint64_t> last_commit_epoch{1};
  std::unique_ptr<SecureStore> store;
};

struct Fixture {
  Document doc;
  /// The benchmark's own per-subject accessibility bitmaps (the oracle's
  /// input; built from the ACL intervals handed to the program, never
  /// read back from the store).
  std::vector<NodeBits> acc;
  size_t roles = 0;
  DolLabeling labeling;
  NokStoreOptions store_options;
  bool vacuum = false;
  /// The store the workload's requests read.
  StoreSlot served;

  /// Seconds spent in program calls while setting up.
  double xmark_s = 0, acl_s = 0, dol_s = 0, store_s = 0, vacuum_s = 0;
  double setup_s() const { return xmark_s + acl_s + dol_s + store_s + vacuum_s; }
  size_t dol_transitions = 0;
  size_t num_subjects() const { return acc.size(); }
};

Status BuildFixture(const FixtureOptions& options, uint64_t seed, Fixture* f);

/// Makes `slot->last_commit_epoch` follow the slot's store (again after a
/// reopen).
void HookEpochs(StoreSlot* slot);

// --- Queries -------------------------------------------------------------

struct Query {
  /// XPath text when the query arrives as text (parsed per request);
  /// empty when it arrives as a pattern tree.
  std::string xpath;
  PatternTree pattern;
  std::string label;
};

/// A query open to the JoinMatches fault (see OpenToJoinFault): the inner
/// listitem joins the //text fragment and binds several nodes per match of
/// the outer listitem.
inline constexpr const char* kJoinFaultWitness =
    "//listitem/parlist/listitem[//text]";

/// The six Table 1 queries, the join-fault witness, and `twigs` random
/// twigs grown along real paths of `doc` (rendered as XPath text when the
/// text parses back to the same pattern).
std::vector<Query> MakeQueries(const Document& doc, uint64_t seed,
                               size_t twigs, int max_nodes);

const char* SemanticsName(AccessSemantics sem);

// --- Evaluation ----------------------------------------------------------

/// Parses (text queries) and prepares one request's plan, under spans.
Status PlanRequest(const Query& q, PreparedQuery* pq);

struct LayerReport;

/// One evaluation rebuilt from the public pieces, each under its own span:
/// SnapshotPin, View, MatchFragment per fragment, HiddenSubtreeIntervals,
/// FilterMatchesVisible, JoinMatches. Same answers and operators as
/// QueryEvaluator::EvaluatePrepared. With `layers`, counts view compiles
/// and cold hidden-interval sweeps (and the page reads they make).
Result<EvalResult> EvaluateReassembled(SecureStore* store,
                                       const PreparedQuery& pq,
                                       const EvalOptions& options,
                                       LayerReport* layers = nullptr);

/// Tallies of the scan counters the per-layer report needs.
struct ExecTally {
  uint64_t requests = 0;
  ExecStats scan;  // "scan" operators
  uint64_t fragments = 0;
  /// Adds one evaluation's "scan" operators.
  void Add(const EvalResult& r);
};

/// True when `pattern` has a descendant edge whose parent sits below its
/// fragment's root, so the join source may bind several data nodes per
/// fragment match. JoinMatches (src/query/evaluator.cc) validates such a
/// join once per fragment match, not once per binding, and then returns
/// bindings with no match below them (see CHANGES.md).
bool OpenToJoinFault(const PatternTree& pattern);

/// True when `got` differs from the oracle's `want` as the JoinMatches
/// fault does: the pattern is open to it and `got` is a strict superset.
bool IsKnownJoinFault(const PatternTree& pattern,
                      const std::vector<NodeId>& got,
                      const std::vector<NodeId>& want);

/// Distinct (query, semantics, accessibility class, answer) tuples the
/// program returned, for a store whose ACLs do not change; checked against
/// the oracle after the run.
class AnswerLog {
 public:
  /// Logs one answer and returns the id of its distinct tuple.
  size_t Add(size_t query, AccessSemantics sem, size_t cls,
             const std::vector<NodeId>& answers);
  /// Checks every tuple against the oracle and, per (query, class), that
  /// view answers are within binding answers within kNone answers. A tuple
  /// that differs as the JoinMatches fault predicts is marked faulty (its
  /// operations count as failed); any other difference fails `out`.
  void Check(const std::vector<Query>& queries, OracleMemo* memo,
             Report* out);
  /// After Check: whether tuple `id` was marked faulty.
  bool faulty(size_t id) const { return faulty_[id]; }
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    size_t query, cls;
    int sem;
    std::vector<NodeId> answers;
  };
  std::map<std::tuple<size_t, int, size_t, uint64_t>, size_t> ids_;
  std::vector<Entry> entries_;
  std::vector<bool> faulty_;
};

/// Answer-level checks shared by every workload.
bool IsSubset(const std::vector<NodeId>& small, const std::vector<NodeId>& big);
uint64_t AnswerHash(const std::vector<NodeId>& answers);

// --- Layer report ---------------------------------------------------------

/// Per-layer counters gathered during a traced run, turned into the
/// per-layer metrics of the report (every one present in every workload).
struct LayerReport {
  uint64_t requests = 0;       // query/batch/read requests
  uint64_t prepares = 0;
  ExecTally exec;              // scan work per request
  uint64_t extra_access_io = 0;
  uint64_t view_compiles = 0;
  /// Last view object seen per subject; a new object means a compile.
  std::unordered_map<SubjectId, const void*> views;
  uint64_t hidden_sweeps = 0, hidden_sweep_pages = 0;
  uint64_t batch_classes = 0, batch_dedup = 0, batch_pages_skipped = 0;
  IoStatsSnapshot pool;        // buffer-pool delta over the timed run
  uint64_t file_reads = 0, file_writes = 0;
  uint64_t checkpoint_pages = 0;
  uint64_t wal_records = 0, wal_bytes = 0, wal_syncs = 0;
  uint64_t views_patched = 0, columns_patched = 0, epoch_advances = 0;
  cache::ResultCache::Stats cache;
  uint64_t plan_hits = 0, cache_hit_calls = 0;
  uint64_t cache_hit_ns = 0;
  uint64_t records_replayed = 0;
  /// Update p50 and median reopen time; serve_mixed only.
  double update_p50_ms = 0, reopen_s = 0;
  /// Reassembly check: pieces vs separately timed EvaluatePrepared.
  double pieces_ms = 0, reassembled_ms = 0, untraced_ms = 0;
  double full_access_ratio = 0;

  void Emit(const Fixture& f, const LayerTotals& t, Report* out) const;
};

/// Runs the reassembled pipeline and EvaluatePrepared on each (query,
/// subject, semantics) item, alternating which goes first, checks that both
/// return the same answers, equal to `expected` but for a difference the
/// JoinMatches fault explains, and adds their times to `layers`.
struct ProbeItem {
  const Query* query = nullptr;
  SubjectId subject = 0;
  AccessSemantics sem = AccessSemantics::kNone;
  const std::vector<NodeId>* expected = nullptr;
};
void ReassemblyProbe(Fixture* f, const std::vector<ProbeItem>& items,
                     LayerReport* layers, Report* out);

/// Reports setup_s, store_bytes and label_bytes (of the served store at
/// the end of the run).
void EmitSharedMetrics(Fixture* f, Report* out);

/// Reports the mean request time under `sem` (KindTimes::Typical of
/// `kinds`) as metric `<sem>_ms`, with its sample count and the plain p50
/// of the same requests in the detail line.
void EmitLatency(const KindTimes& kinds, std::vector<double> ms,
                 AccessSemantics sem, Report* out);

/// Reports queries_per_s, the requests per second `clients` closed-loop
/// clients send when every request takes its kind's time (the mean of
/// KindTimes::Typical over all semantics' requests), and subjects_per_s,
/// that times `subjects` answered per request. The detail line gets the
/// median over the run's cycles of the measured rate.
void EmitThroughput(const std::array<KindTimes, 3>& kinds,
                    std::vector<double> cycle_rates, int clients,
                    double subjects, Report* out);

/// Puts the q-quantile of `ms` in the detail line only (a figure too
/// unsteady between runs to be a metric), with the samples beyond it.
void DetailPercentile(std::vector<double> ms, double q,
                      const std::string& name, Report* out);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
