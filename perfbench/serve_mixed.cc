// Workload serve_mixed: two closed-loop readers send a Zipf-ranked stream
// of (query, semantics) reads, each for a seeded subject, through
// EvaluateWithCaches with a ResultCache and a PlanCache attached and
// invalidated by commits, while the main thread sends WAL-logged ACL
// updates on a fixed schedule (open loop, latency timed from each update's
// due time) with periodic checkpoints. The store and its WAL are files.
// Readers record the epoch they pinned; a seeded sample of reads is checked
// afterwards against the oracle replayed to that epoch.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <thread>

#include "common.h"
#include "query/xpath_parser.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kReaders = 2;
constexpr size_t kSubjects = 64;
constexpr size_t kRoles = 8;
constexpr double kUpdatesPerSecond = 50;
constexpr double kCheckpointSeconds = 2;
constexpr uint64_t kSampleEvery = 32;  // one read in 32 is checked
/// Reads in one reader's cycle, spread over the popularity ranks.
constexpr double kCycleReads = 500;
constexpr size_t kRecoveryUpdates = 500;

/// One WAL-logged ACL update as the writer sends it: one range for one
/// subject, or for every member of a role (one commit per member).
struct UpdateOp {
  NodeId begin = 0, end = 0;
  std::vector<SubjectId> subjects;
  bool accessible = false;
};

/// One committed SetRangeAccess, as the oracle replays it.
struct Commit {
  uint64_t epoch = 0;
  NodeId begin = 0, end = 0;
  SubjectId subject = 0;
  bool accessible = false;
};

/// Seeded update mix: 60% single-node and 25% subtree edits for one
/// subject, 15% subtree edits for a whole role.
class UpdateGen {
 public:
  UpdateGen(const Fixture& f, uint64_t seed) : f_(f), rng_(seed) {
    for (NodeId x = 1; x < f.doc.NumNodes(); ++x) {
      const uint32_t size = f.doc.SubtreeSize(x);
      if (size >= 8 && size <= 256) roots_.push_back(x);
    }
  }

  UpdateOp Next() {
    UpdateOp op;
    const uint64_t kind = rng_.Uniform(100);
    op.accessible = rng_.Bernoulli(0.5);
    if (kind < 60) {
      op.begin = static_cast<NodeId>(1 + rng_.Uniform(f_.doc.NumNodes() - 1));
      op.end = op.begin + 1;
    } else {
      op.begin = roots_[rng_.Uniform(roots_.size())];
      op.end = f_.doc.SubtreeEnd(op.begin);
    }
    if (kind < 85) {
      op.subjects.push_back(
          static_cast<SubjectId>(rng_.Uniform(f_.num_subjects())));
    } else {
      const size_t role = rng_.Uniform(f_.roles);
      for (size_t s = role; s < f_.num_subjects(); s += f_.roles) {
        op.subjects.push_back(static_cast<SubjectId>(s));
      }
    }
    return op;
  }

 private:
  const Fixture& f_;
  Rng rng_;
  std::vector<NodeId> roots_;  // subtree roots of 8..256 nodes
};

/// Applies `op` to `slot` (span kUpdate per commit) and appends its
/// commits.
Status ApplyUpdate(StoreSlot* slot, const UpdateOp& op,
                   std::vector<Commit>* log) {
  for (SubjectId s : op.subjects) {
    {
      ScopedSpan span(kUpdate);
      SECXML_RETURN_NOT_OK(
          slot->store->SetRangeAccess(op.begin, op.end, s, op.accessible));
    }
    log->push_back({slot->last_commit_epoch.load(std::memory_order_relaxed),
                    op.begin, op.end, s, op.accessible});
  }
  return Status::OK();
}

/// Applies committed updates [from, to) to per-subject bitmaps.
void ReplayCommits(const std::vector<Commit>& log, size_t from, size_t to,
                   std::vector<NodeBits>* acc) {
  for (size_t i = from; i < to; ++i) {
    const Commit& c = log[i];
    (*acc)[c.subject].SetRange(c.begin, c.end, c.accessible);
  }
}

/// Drops the served store and reopens it through OpenWithWal, adding the
/// reopen time and the records it replayed.
Status Reopen(Fixture* f, std::vector<double>* reopen_s, uint64_t* replayed) {
  StoreSlot* slot = &f->served;
  if (slot->store->epochs()->active_pins() != 0) {
    return Status::InvalidArgument("epoch pins still active before a reopen");
  }
  slot->store.reset();
  const uint64_t t0 = NowNs();
  SecureStore::RecoveryStats rs;
  {
    ScopedSpan span(kRecovery);
    SECXML_RETURN_NOT_OK(SecureStore::OpenWithWal(
        slot->data.get(), slot->wal.get(), f->store_options, &slot->store,
        &rs));
  }
  reopen_s->push_back(SecondsSince(t0));
  *replayed += rs.records_replayed;
  HookEpochs(slot);
  return Status::OK();
}

/// Fails `out` unless the served store answers like the oracle at the
/// last acknowledged update, on a dozen seeded (query, subject) pairs under
/// every semantics, and holds no epoch pins.
void CheckRecovered(Fixture* f, const std::vector<Commit>& commits,
                    const std::vector<Query>& queries, uint64_t seed,
                    Report* out) {
  std::vector<NodeBits> acc = f->acc;
  ReplayCommits(commits, 0, commits.size(), &acc);
  Oracle oracle(f->doc);
  OracleMemo memo(&oracle);
  QueryEvaluator eval(f->served.store.get());
  Rng rng(seed);
  for (size_t i = 0; i < 12; ++i) {
    const size_t qi = rng.Uniform(queries.size());
    const SubjectId s = static_cast<SubjectId>(rng.Uniform(acc.size()));
    const size_t cls = memo.ClassOf(acc[s]);
    for (AccessSemantics sem : {AccessSemantics::kNone,
                                AccessSemantics::kBinding,
                                AccessSemantics::kView}) {
      EvalOptions opts;
      opts.semantics = sem;
      opts.subject = s;
      auto r = eval.Evaluate(queries[qi].pattern, opts);
      if (!r.ok()) {
        out->Fail("recovered store failed " + queries[qi].label);
        continue;
      }
      if (r->answers != memo.Answers(qi, queries[qi].pattern, sem, cls)) {
        out->Fail("recovered store differs from the oracle on " +
                  queries[qi].label + " (" + SemanticsName(sem) + ")");
      }
    }
  }
  if (f->served.store->epochs()->active_pins() != 0) {
    out->Fail("epoch pins still active after the recovery check");
  }
}

struct Item {
  uint32_t rank = 0;  // popularity rank: query rank / 3, semantics rank % 3
  uint32_t query = 0;
  SubjectId subject = 0;
  AccessSemantics sem = AccessSemantics::kNone;
};

/// A checked read: its item, pinned epoch and the answers under all three
/// semantics at that epoch (the read's own plus two evaluated alongside).
struct Sample {
  Item item;
  uint64_t epoch = 0;
  std::array<std::vector<NodeId>, 3> answers;
};

struct ReaderResult {
  std::array<std::vector<double>, 3> lat_ms;
  /// Read times per semantics, by popularity rank and cache hit.
  std::array<KindTimes, 3> kinds;
  std::vector<double> cycle_rates;  // reads per second of each cycle
  std::vector<Sample> samples;
  uint64_t attempted = 0, failed = 0, extra_io = 0;
  uint64_t hit_calls = 0, hit_ns = 0;
};

}  // namespace

int RunServeMixed(const Args& args, const std::string& data_dir,
                  Report* out) {
  FixtureOptions o;
  o.pool_pages = 1024;
  o.roles = kRoles;
  o.subjects = kSubjects;
  o.file_dir = data_dir;
  Fixture f;
  Status st = BuildFixture(o, kCatalogSeed, &f);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // Queries open to the JoinMatches fault (the witness and any such twig)
  // are left out here. Whether one returns a wrong answer depends on the
  // ACL state the seeded writer has reached, so its failures could not be a
  // fixed share of the operations; query_stream and subject_batch, whose
  // ACLs do not change, send them and count them as failed.
  std::vector<Query> queries = MakeQueries(f.doc, kCatalogSeed, 26, 4);
  std::erase_if(queries,
                [](const Query& q) { return OpenToJoinFault(q.pattern); });

  // Popularity ranks: rank r reads query r / 3 under semantics r % 3, and
  // a reader's cycle holds round(kCycleReads * p_r) reads (at least one) of
  // each rank r, where p_r is Zipf (s = 1) over the ranks. Each read's
  // subject is a seeded draw, fixed for the run; every cycle sends the
  // same reads in a new seeded order.
  const uint32_t ranks = 3 * static_cast<uint32_t>(queries.size());
  double harmonic = 0;
  for (uint32_t r = 0; r < ranks; ++r) harmonic += 1.0 / (r + 1);
  auto make_cycle = [&](Rng* rng) {
    std::vector<Item> cycle;
    for (uint32_t r = 0; r < ranks; ++r) {
      const long copies = std::max(
          1L, std::lround(kCycleReads / (r + 1) / harmonic));
      for (long c = 0; c < copies; ++c) {
        cycle.push_back(
            {r, r / 3, static_cast<SubjectId>(rng->Uniform(kSubjects)),
             static_cast<AccessSemantics>(r % 3)});
      }
    }
    return cycle;
  };

  cache::ResultCache rcache;
  QueryPlanCache pcache;
  AttachResultCacheInvalidation(f.served.store.get(), &rcache);
  QueryCaches caches;
  caches.results = &rcache;
  caches.plans = &pcache;

  // Warm-up, untimed: one read of each rank, so that the timed cycles find
  // every plan cached and every kNone answer too (no ACL update
  // invalidates those), not the first misses of a cold cache.
  {
    QueryEvaluator eval(f.served.store.get());
    Rng rng(Derive(args.seed, 8));
    for (uint32_t r = 0; r < ranks; ++r) {
      PatternTree parsed;
      const Query& q = queries[r / 3];
      const PatternTree* pattern = &q.pattern;
      if (!q.xpath.empty() && ParseXPath(q.xpath, &parsed).ok()) {
        pattern = &parsed;
      }
      EvalOptions opts;
      opts.semantics = static_cast<AccessSemantics>(r % 3);
      opts.subject = static_cast<SubjectId>(rng.Uniform(kSubjects));
      if (!EvaluateWithCaches(f.served.store.get(), &eval, *pattern, opts,
                              caches).ok()) {
        std::fprintf(stderr, "warm-up read failed: %s\n", q.label.c_str());
        return 1;
      }
    }
  }

  Tracer::Get().set_enabled(args.trace);
  LayerReport layers;
  const IoStatsSnapshot io0 = f.served.store->io_stats().Snapshot();
  const uint64_t reads0 = f.served.data->reads();
  const uint64_t writes0 = f.served.data->writes();
  const WriteAheadLog::Stats wal0 = f.served.store->wal()->stats();
  const SecureStore::UpdateStats updates0 = f.served.store->update_stats();
  const cache::ResultCache::Stats cache0 = rcache.stats();
  const uint64_t plan_hits0 = pcache.hits();

  // Readers send whole cycles and stop with the first cycle that ends
  // after the deadline; the writer goes on until both have stopped.
  uint64_t deadline = 0;  // set before the readers start
  std::atomic<int> readers_done{0};
  std::array<ReaderResult, kReaders> rr;
  auto reader = [&](int t) {
    ReaderResult& res = rr[t];
    QueryEvaluator eval(f.served.store.get());
    Rng rng(Derive(args.seed, 300 + t));
    std::vector<Item> cycle = make_cycle(&rng);
    size_t pos = cycle.size(), cycles = 0;
    uint64_t cycle_start = 0;
    for (;;) {
      if (pos == cycle.size()) {
        const uint64_t now = NowNs();
        if (cycles > 0) {
          res.cycle_rates.push_back(
              static_cast<double>(cycle.size()) /
              (static_cast<double>(now - cycle_start) * 1e-9));
        }
        if (now >= deadline) break;
        Shuffle(&cycle, &rng);
        pos = 0;
        cycle_start = now;
        ++cycles;
      }
      const Item item = cycle[pos++];
      const bool sampled = rng.Uniform(kSampleEvery) == 0;
      const Query& q = queries[item.query];
      ++res.attempted;
      const uint64_t t0 = NowNs();
      ScopedSpan request(kRequest);
      std::unique_ptr<SecureStore::SnapshotPin> pin;
      {
        ScopedSpan span(kPin);
        pin = std::make_unique<SecureStore::SnapshotPin>(f.served.store.get());
      }
      PatternTree parsed;
      const PatternTree* pattern = &q.pattern;
      if (!q.xpath.empty()) {
        ScopedSpan span(kParse);
        if (ParseXPath(q.xpath, &parsed).ok()) pattern = &parsed;
      }
      EvalOptions opts;
      opts.semantics = item.sem;
      opts.subject = item.subject;
      Result<EvalResult> r = Status::OK();
      const uint64_t c0 = NowNs();
      {
        ScopedSpan span(kCacheEval);
        r = EvaluateWithCaches(f.served.store.get(), &eval, *pattern, opts, caches);
      }
      const uint64_t t1 = NowNs();
      if (!r.ok()) {
        ++res.failed;
        continue;
      }
      const int k = static_cast<int>(item.sem);
      res.lat_ms[k].push_back(static_cast<double>(t1 - t0) * 1e-6);
      const bool hit = r->exec.result_cache_hits > 0;
      res.kinds[k].Add(2 * item.rank + hit, static_cast<double>(t1 - t0) * 1e-6);
      res.extra_io += r->exec.access_only_fetches;
      if (hit) {
        ++res.hit_calls;
        res.hit_ns += t1 - c0;
      }
      if (!sampled) continue;
      // Untimed: the other two semantics under the same pin.
      Sample s;
      s.item = item;
      s.epoch = pin->epoch();
      s.answers[k] = std::move(r->answers);
      bool ok = true;
      for (int j = 0; j < 3; ++j) {
        if (j == k) continue;
        EvalOptions o2 = opts;
        o2.semantics = static_cast<AccessSemantics>(j);
        auto r2 = eval.Evaluate(*pattern, o2);
        if (!r2.ok()) {
          ok = false;
          break;
        }
        res.extra_io += r2->exec.access_only_fetches;
        s.answers[j] = std::move(r2->answers);
      }
      if (ok) res.samples.push_back(std::move(s));
    }
    readers_done.fetch_add(1);
  };

  // The writer runs on this thread: an open loop at a fixed rate.
  std::vector<std::thread> threads;
  std::vector<Commit> commits;
  std::vector<double> update_ms;
  double max_late_ms = 0;
  uint64_t update_failed = 0, checkpoint_pages = 0, checkpoints = 0;
  UpdateGen gen(f, Derive(args.seed, 6));
  const uint64_t start = NowNs();
  deadline = start + static_cast<uint64_t>(args.seconds * 1e9);
  for (int t = 0; t < kReaders; ++t) threads.emplace_back(reader, t);
  uint64_t next_checkpoint = start + static_cast<uint64_t>(kCheckpointSeconds * 1e9);
  for (uint64_t k = 0;; ++k) {
    const uint64_t due =
        start + static_cast<uint64_t>(static_cast<double>(k) * 1e9 /
                                      kUpdatesPerSecond);
    if (due >= deadline && readers_done.load() == kReaders) break;
    const uint64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    } else {
      max_late_ms = std::max(max_late_ms, static_cast<double>(now - due) * 1e-6);
    }
    if (NowNs() >= next_checkpoint) {
      const uint64_t w0 = tl_page_writes;
      ScopedSpan span(kCheckpoint);
      st = f.served.store->Checkpoint();
      if (!st.ok()) out->Fail("checkpoint failed: " + st.ToString());
      checkpoint_pages += tl_page_writes - w0;
      ++checkpoints;
      next_checkpoint += static_cast<uint64_t>(kCheckpointSeconds * 1e9);
    }
    const UpdateOp op = gen.Next();
    if (!ApplyUpdate(&f.served, op, &commits).ok()) {
      ++update_failed;
      continue;
    }
    update_ms.push_back(static_cast<double>(NowNs() - due) * 1e-6);
  }
  for (std::thread& t : threads) t.join();
  // Layer times cover the timed run only, not the checks and probe after.
  const LayerTotals timed_totals = Tracer::Get().Totals();

  std::array<std::vector<double>, 3> lat_ms;
  std::vector<double> all_ms;
  std::array<KindTimes, 3> kinds;
  std::vector<double> cycle_rates;
  std::vector<Sample> samples;
  uint64_t extra_io = 0;
  for (ReaderResult& res : rr) {
    cycle_rates.insert(cycle_rates.end(), res.cycle_rates.begin(),
                       res.cycle_rates.end());
    for (int k = 0; k < 3; ++k) {
      kinds[k].Merge(res.kinds[k]);
      lat_ms[k].insert(lat_ms[k].end(), res.lat_ms[k].begin(),
                       res.lat_ms[k].end());
      all_ms.insert(all_ms.end(), res.lat_ms[k].begin(), res.lat_ms[k].end());
    }
    for (Sample& s : res.samples) samples.push_back(std::move(s));
    out->attempted += res.attempted;
    out->failed += res.failed;
    extra_io += res.extra_io;
    layers.cache_hit_calls += res.hit_calls;
    layers.cache_hit_ns += res.hit_ns;
  }
  out->attempted += update_ms.size() + update_failed;
  out->failed += update_failed;
  layers.requests = all_ms.size();
  layers.pool = f.served.store->io_stats().Snapshot() - io0;
  layers.file_reads = f.served.data->reads() - reads0;
  layers.file_writes = f.served.data->writes() - writes0;
  {
    const WriteAheadLog::Stats w = f.served.store->wal()->stats();
    layers.wal_records = w.records_appended - wal0.records_appended;
    layers.wal_bytes = w.bytes_appended - wal0.bytes_appended;
    layers.wal_syncs = w.syncs - wal0.syncs;
    const SecureStore::UpdateStats u = f.served.store->update_stats();
    layers.views_patched = u.views_patched - updates0.views_patched;
    layers.columns_patched = u.columns_patched - updates0.columns_patched;
    layers.epoch_advances = u.epochs_advanced - updates0.epochs_advanced;
  }
  layers.checkpoint_pages = checkpoint_pages;
  // Cache counters of the timed run, without the warm-up's.
  layers.cache = rcache.stats();
  layers.cache.hits -= cache0.hits;
  layers.cache.misses -= cache0.misses;
  layers.cache.invalidated -= cache0.invalidated;
  layers.cache.flushes -= cache0.flushes;
  layers.cache.evictions -= cache0.evictions;
  layers.cache.single_flight_waits -= cache0.single_flight_waits;
  layers.plan_hits = pcache.hits() - plan_hits0;

  if (f.served.store->epochs()->active_pins() != 0) {
    out->Fail("epoch pins still active after the readers stopped");
  }
  if (extra_io != 0) out->Fail("extra_access_io != 0");
  layers.extra_access_io = extra_io;

  // Sampled reads against the oracle replayed to each read's epoch.
  Oracle oracle(f.doc);
  OracleMemo memo(&oracle);
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.epoch < b.epoch; });
  std::vector<NodeBits> acc = f.acc;
  size_t applied = 0;
  for (const Sample& s : samples) {
    size_t upto = applied;
    while (upto < commits.size() && commits[upto].epoch <= s.epoch) ++upto;
    ReplayCommits(commits, applied, upto, &acc);
    applied = upto;
    const size_t cls = memo.ClassOf(acc[s.item.subject]);
    const Query& q = queries[s.item.query];
    for (int k = 0; k < 3; ++k) {
      const auto sem = static_cast<AccessSemantics>(k);
      if (s.answers[k] != memo.Answers(s.item.query, q.pattern, sem, cls)) {
        out->Fail("read at epoch " + std::to_string(s.epoch) +
                  " differs from the oracle: " + q.label + " (" +
                  SemanticsName(sem) + ")");
      }
    }
    if (!IsSubset(s.answers[2], s.answers[1]) ||
        !IsSubset(s.answers[1], s.answers[0])) {
      out->Fail("view/binding/none answers not nested for " + q.label);
    }
  }
  if (samples.empty()) out->Fail("no read was sampled for checking");

  // Seal the timed run so the epilogue's reopen replays exactly its own
  // updates.
  st = f.served.store->Checkpoint();
  if (!st.ok()) out->Fail("final checkpoint failed: " + st.ToString());

  if (args.trace) {
    ReplayCommits(commits, applied, commits.size(), &acc);
    std::vector<ProbeItem> probe;
    Rng prng(Derive(args.seed, 3));
    const std::vector<Item> cycle = make_cycle(&prng);
    for (size_t i = 0; i < 240; ++i) {
      const Item& item = cycle[prng.Uniform(cycle.size())];
      ProbeItem it;
      it.query = &queries[item.query];
      it.subject = item.subject;
      it.sem = item.sem;
      it.expected = &memo.Answers(item.query, it.query->pattern, item.sem,
                                  memo.ClassOf(acc[item.subject]));
      probe.push_back(it);
    }
    ReassemblyProbe(&f, probe, &layers, out);
  }

  // Recovery: idle updates after the sealing checkpoint, then five
  // reopens of the served store, each replaying the same records.
  UpdateGen idle(f, Derive(kCatalogSeed, 4));
  uint64_t idle_failed = 0, replayed = 0;
  for (size_t i = 0; i < kRecoveryUpdates; ++i) {
    if (!ApplyUpdate(&f.served, idle.Next(), &commits).ok()) ++idle_failed;
  }
  std::vector<double> reopen_s;
  st = Status::OK();
  for (int i = 0; st.ok() && i < 5; ++i) st = Reopen(&f, &reopen_s, &replayed);
  if (!st.ok()) out->Fail("recovery: " + st.ToString());
  CheckRecovered(&f, commits, queries, Derive(args.seed, 7), out);
  out->attempted += kRecoveryUpdates;
  out->failed += idle_failed;
  layers.records_replayed = replayed;

  for (int k = 0; k < 3; ++k) {
    EmitLatency(kinds[k], lat_ms[k], static_cast<AccessSemantics>(k), out);
  }
  DetailPercentile(all_ms, 0.99, "query_p99_ms", out);
  EmitThroughput(kinds, cycle_rates, kReaders, 1, out);
  EmitSharedMetrics(&f, out);
  layers.update_p50_ms = Percentile(&update_ms, 0.5);
  layers.reopen_s = Percentile(&reopen_s, 0.5);
  out->Detail("update.p50_ms", layers.update_p50_ms);
  DetailPercentile(update_ms, 0.99, "update.p99_ms", out);
  out->Detail("recovery.reopen_s", layers.reopen_s);
  out->Detail("samples_checked", static_cast<double>(samples.size()));
  out->Detail("cache_hits", static_cast<double>(layers.cache.hits));
  out->Detail("cache_invalidated",
              static_cast<double>(layers.cache.invalidated));
  out->Detail("update_max_late_ms", max_late_ms);
  out->Detail("checkpoints", static_cast<double>(checkpoints));
  out->Detail("oracle_evaluations", static_cast<double>(memo.evaluations()));
  if (args.trace) layers.Emit(f, timed_totals, out);
  return 0;
}

}  // namespace perfbench
