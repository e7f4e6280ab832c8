// Workload query_stream: one closed-loop client sends a seeded stream of
// Table 1 queries and random twigs, each under kNone, binding and view
// semantics (in a shuffled order) for one subject of a small pool, against
// a 200k-node store on far more pages than the 64-page buffer pool holds.
// No result cache and no updates.
#include <algorithm>
#include <array>

#include "common.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

int RunQueryStream(const Args& args, Report* out) {
  FixtureOptions o;
  o.pool_pages = 64;
  o.roles = 3;
  o.subjects = 3;
  o.full_access_subject = true;
  Fixture f;
  const Status st = BuildFixture(o, kCatalogSeed, &f);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const std::vector<Query> queries = MakeQueries(f.doc, kCatalogSeed, 24, 5);
  const SubjectId full_subject = static_cast<SubjectId>(f.num_subjects() - 1);

  Oracle oracle(f.doc);
  OracleMemo memo(&oracle);
  std::vector<size_t> cls(f.num_subjects());
  for (size_t s = 0; s < cls.size(); ++s) cls[s] = memo.ClassOf(f.acc[s]);

  Tracer::Get().set_enabled(args.trace);
  LayerReport layers;
  QueryEvaluator eval(f.served.store.get());
  AnswerLog log;
  std::array<std::vector<double>, 3> lat_ms;
  std::vector<double> all_ms;
  double full_none_ms = 0, full_binding_ms = 0;
  uint64_t extra_io = 0;
  size_t rounds = 0, cycles = 0;
  std::array<KindTimes, 3> kind_ms;
  std::vector<double> cycle_rates;  // requests per second of each cycle
  uint64_t cycle_start = 0;
  std::vector<size_t> op_answers;  // AnswerLog id per evaluated request

  // The stream is a sequence of cycles, each one round per (query, subject)
  // pair in seeded order; the run ends with the first cycle that ends after
  // the deadline, so every run sends the same mix.
  std::vector<std::pair<size_t, SubjectId>> cycle;
  for (size_t q = 0; q < queries.size(); ++q) {
    for (SubjectId s = 0; s < f.num_subjects(); ++s) cycle.push_back({q, s});
  }
  size_t pos = cycle.size();
  Rng rng(Derive(args.seed, 2));
  const IoStatsSnapshot io0 = f.served.store->io_stats().Snapshot();
  const uint64_t reads0 = f.served.data->reads();
  const uint64_t start = NowNs();
  const uint64_t deadline =
      start + static_cast<uint64_t>(args.seconds * 1e9);
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
    const auto [qi, s] = cycle[pos++];
    std::array<AccessSemantics, 3> order = {AccessSemantics::kNone,
                                            AccessSemantics::kBinding,
                                            AccessSemantics::kView};
    Shuffle(&order, &rng);
    for (AccessSemantics sem : order) {
      ++out->attempted;
      EvalOptions opts;
      opts.semantics = sem;
      opts.subject = s;
      const uint64_t t0 = NowNs();
      Result<EvalResult> r = Status::OK();
      {
        ScopedSpan span(kRequest);
        PreparedQuery pq;
        Status ps = PlanRequest(queries[qi], &pq);
        if (!ps.ok()) {
          r = ps;
        } else {
          ++layers.prepares;
          layers.exec.fragments += pq.query.fragments.size();
          r = args.trace ? EvaluateReassembled(f.served.store.get(), pq, opts, &layers)
                         : eval.EvaluatePrepared(pq, opts);
        }
      }
      const double ms = SecondsSince(t0) * 1e3;
      if (!r.ok()) {
        ++out->failed;
        continue;
      }
      const int k = static_cast<int>(sem);
      lat_ms[k].push_back(ms);
      all_ms.push_back(ms);
      kind_ms[k].Add(qi * f.num_subjects() + s, ms);
      if (s == full_subject && sem == AccessSemantics::kNone) full_none_ms += ms;
      if (s == full_subject && sem == AccessSemantics::kBinding) {
        full_binding_ms += ms;
      }
      extra_io += r->exec.access_only_fetches;
      layers.exec.Add(*r);
      op_answers.push_back(log.Add(qi, sem, cls[s], r->answers));
    }
    ++rounds;
  }
  // Layer times cover the timed run only, not the checks and probe after.
  const LayerTotals timed_totals = Tracer::Get().Totals();
  layers.requests = all_ms.size();
  layers.pool = f.served.store->io_stats().Snapshot() - io0;
  layers.file_reads = f.served.data->reads() - reads0;
  layers.extra_access_io = extra_io;
  layers.full_access_ratio =
      full_none_ms > 0 ? full_binding_ms / full_none_ms : 0;

  // Correctness: every answer against the oracle, nested semantics, no
  // extra access I/O. A request whose answer shows the JoinMatches fault
  // counts as failed.
  log.Check(queries, &memo, out);
  for (size_t id : op_answers) out->failed += log.faulty(id);
  if (extra_io != 0) out->Fail("extra_access_io != 0");
  if (f.served.store->epochs()->active_pins() != 0) {
    out->Fail("epoch pins still active after the stream");
  }

  if (args.trace) {
    std::vector<ProbeItem> items;
    Rng prng(Derive(args.seed, 3));
    for (size_t i = 0; i < 240; ++i) {
      ProbeItem it;
      const size_t qi = prng.Uniform(queries.size());
      it.query = &queries[qi];
      it.subject = static_cast<SubjectId>(prng.Uniform(f.num_subjects()));
      it.sem = static_cast<AccessSemantics>(prng.Uniform(3));
      it.expected = &memo.Answers(qi, it.query->pattern, it.sem,
                                  cls[it.subject]);
      items.push_back(it);
    }
    ReassemblyProbe(&f, items, &layers, out);
  }

  for (int k = 0; k < 3; ++k) {
    EmitLatency(kind_ms[k], lat_ms[k], static_cast<AccessSemantics>(k), out);
  }
  DetailPercentile(all_ms, 0.99, "query_p99_ms", out);
  EmitThroughput(kind_ms, cycle_rates, 1, 1, out);
  EmitSharedMetrics(&f, out);
  out->Detail("rounds", static_cast<double>(rounds));
  out->Detail("queries_open_to_join_fault",
              static_cast<double>(std::count_if(
                  queries.begin(), queries.end(), [](const Query& q) {
                    return OpenToJoinFault(q.pattern);
                  })));
  out->Detail("oracle_evaluations", static_cast<double>(memo.evaluations()));
  out->Detail("full_access_binding_over_none", layers.full_access_ratio);
  if (args.trace) layers.Emit(f, timed_totals, out);
  return 0;
}

}  // namespace perfbench
