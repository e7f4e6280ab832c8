// Workload subject_batch: one closed-loop client sends one query per
// request for a batch of 128 subjects through
// QueryDriver::EvaluateForSubjects, each query under kNone, binding and
// view (shuffled). Subjects hold one of 16 roles, so a batch collapses to
// 16 visibility classes. A stripe of the document is denied to every
// role and the store is VACUUMed, so pages are code-homogeneous and the
// per-page dead masks fire; the whole store fits in the buffer pool.
#include <algorithm>
#include <array>

#include "common.h"
#include "stats.h"
#include "query/query_driver.h"
#include "query/xpath_parser.h"
#include "workloads.h"

namespace perfbench {

int RunSubjectBatch(const Args& args, Report* out) {
  constexpr size_t kBatch = 128;
  FixtureOptions o;
  o.pool_pages = 4096;
  o.roles = 16;
  o.subjects = 128;
  o.stripe_begin = 0.40;
  o.stripe_end = 0.55;
  o.vacuum = true;
  Fixture f;
  const Status st = BuildFixture(o, kCatalogSeed, &f);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const std::vector<Query> queries = MakeQueries(f.doc, kCatalogSeed, 10, 4);

  Oracle oracle(f.doc);
  OracleMemo memo(&oracle);
  std::vector<size_t> cls(f.num_subjects());
  for (size_t s = 0; s < cls.size(); ++s) cls[s] = memo.ClassOf(f.acc[s]);

  Tracer::Get().set_enabled(args.trace);
  LayerReport layers;
  auto driver_for = [&](AccessSemantics sem) {
    QueryDriverOptions d;
    d.num_threads = 1;
    d.semantics = sem;
    return QueryDriver(f.served.store.get(), d);
  };
  std::array<QueryDriver, 3> drivers = {
      driver_for(AccessSemantics::kNone), driver_for(AccessSemantics::kBinding),
      driver_for(AccessSemantics::kView)};
  AnswerLog log;
  std::array<std::vector<double>, 3> lat_ms;
  std::vector<double> all_ms;
  uint64_t extra_io = 0;
  std::vector<ProbeItem> probe;

  // Warm the pool with a full scan: the workload measures a store that
  // fits in memory.
  {
    PatternTree all;
    const std::vector<SubjectId> one = {0};
    if (!ParseXPath("//*", &all).ok() ||
        !drivers[0].EvaluateForSubjects(all, one).ok()) {
      std::fprintf(stderr, "pool warm-up failed\n");
      return 1;
    }
  }

  // Cycles of one round per query in seeded order, each with a fresh
  // batch: the whole pool in seeded order, so every batch holds every
  // class. The run ends with the first cycle that ends after the deadline.
  // AnswerLog ids per evaluated batch request.
  std::vector<std::vector<size_t>> op_answers;
  std::vector<size_t> cycle(queries.size());
  for (size_t q = 0; q < cycle.size(); ++q) cycle[q] = q;
  size_t pos = cycle.size(), cycles = 0;
  Rng rng(Derive(args.seed, 2));
  const IoStatsSnapshot io0 = f.served.store->io_stats().Snapshot();
  const uint64_t reads0 = f.served.data->reads();
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(args.seconds * 1e9);
  size_t rounds = 0;
  std::array<KindTimes, 3> kind_ms;
  std::vector<double> cycle_rates;  // requests per second of each cycle
  uint64_t cycle_start = 0;
  for (;;) {
    if (pos == cycle.size()) {
      const uint64_t now = NowNs();
      if (cycles > 0) {
        cycle_rates.push_back(3.0 * static_cast<double>(cycle.size()) /
                              (static_cast<double>(now - cycle_start) * 1e-9));
      }
      if (now >= deadline) break;
      cycle_start = now;
      Shuffle(&cycle, &rng);
      pos = 0;
      ++cycles;
    }
    const size_t qi = cycle[pos++];
    std::vector<SubjectId> batch(kBatch);
    for (size_t i = 0; i < kBatch; ++i) batch[i] = static_cast<SubjectId>(i);
    Shuffle(&batch, &rng);
    std::array<int, 3> order = {0, 1, 2};
    Shuffle(&order, &rng);
    for (int k : order) {
      ++out->attempted;
      const uint64_t t0 = NowNs();
      Result<SubjectBatchResult> r = Status::OK();
      {
        ScopedSpan span(kRequest);
        PatternTree parsed;
        const PatternTree* pattern = &queries[qi].pattern;
        if (!queries[qi].xpath.empty()) {
          ScopedSpan pspan(kParse);
          if (ParseXPath(queries[qi].xpath, &parsed).ok()) pattern = &parsed;
        }
        if (args.trace && k != 0) {
          ScopedSpan gspan(kGroup);
          (void)f.served.store->GroupSubjects(batch);
        }
        ScopedSpan bspan(kBatchEval);
        r = drivers[k].EvaluateForSubjects(*pattern, batch);
      }
      const double ms = SecondsSince(t0) * 1e3;
      if (!r.ok()) {
        ++out->failed;
        continue;
      }
      lat_ms[k].push_back(ms);
      all_ms.push_back(ms);
      kind_ms[k].Add(qi, ms);
      extra_io += r->exec.access_only_fetches;
      layers.batch_classes += r->exec.classes_evaluated;
      layers.batch_dedup += r->exec.class_dedup_hits;
      layers.batch_pages_skipped += r->exec.pages_skipped;
      for (const ClassEvalResult& c : r->classes) {
        for (const OperatorStats& op : c.result.operators) {
          if (std::string(op.op) == "scan") layers.exec.scan += op.stats;
        }
      }
      ++layers.exec.requests;
      const auto sem = static_cast<AccessSemantics>(k);
      std::vector<size_t>& ids = op_answers.emplace_back();
      for (size_t i = 0; i < batch.size(); ++i) {
        ids.push_back(log.Add(qi, sem, cls[batch[i]], r->ResultFor(i).answers));
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }
    if (args.trace && rounds < 80) {
      for (int k = 0; k < 3; ++k) {
        ProbeItem it;
        it.query = &queries[qi];
        it.subject = batch[rounds % batch.size()];
        it.sem = static_cast<AccessSemantics>(k);
        probe.push_back(it);
      }
    }
    ++rounds;
  }
  // Layer times cover the timed run only, not the checks and probe after.
  const LayerTotals timed_totals = Tracer::Get().Totals();
  layers.requests = all_ms.size();
  layers.pool = f.served.store->io_stats().Snapshot() - io0;
  layers.file_reads = f.served.data->reads() - reads0;

  layers.extra_access_io = extra_io;
  // A batch request with an answer that shows the JoinMatches fault
  // counts as failed.
  log.Check(queries, &memo, out);
  for (const std::vector<size_t>& ids : op_answers) {
    out->failed += std::any_of(ids.begin(), ids.end(),
                               [&](size_t id) { return log.faulty(id); });
  }
  if (extra_io != 0) out->Fail("extra_access_io != 0");
  if (f.served.store->epochs()->active_pins() != 0) {
    out->Fail("epoch pins still active after the stream");
  }

  if (args.trace) {
    for (ProbeItem& it : probe) {
      const size_t qi = static_cast<size_t>(it.query - queries.data());
      it.expected = &memo.Answers(qi, it.query->pattern, it.sem,
                                  cls[it.subject]);
    }
    ReassemblyProbe(&f, probe, &layers, out);
  }

  for (int k = 0; k < 3; ++k) {
    EmitLatency(kind_ms[k], lat_ms[k], static_cast<AccessSemantics>(k), out);
  }
  DetailPercentile(all_ms, 0.99, "query_p99_ms", out);
  EmitThroughput(kind_ms, cycle_rates, 1, kBatch, out);
  EmitSharedMetrics(&f, out);
  out->Detail("rounds", static_cast<double>(rounds));
  out->Detail("queries_open_to_join_fault",
              static_cast<double>(std::count_if(
                  queries.begin(), queries.end(), [](const Query& q) {
                    return OpenToJoinFault(q.pattern);
                  })));
  out->Detail("oracle_evaluations", static_cast<double>(memo.evaluations()));
  if (args.trace) layers.Emit(f, timed_totals, out);
  return 0;
}

}  // namespace perfbench
