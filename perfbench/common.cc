#include "common.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>

#include "query/matcher.h"
#include "query/xpath_parser.h"
#include "stats.h"
#include "workload/query_generator.h"
#include "workload/synthetic_acl.h"
#include "xml/xmark_generator.h"

namespace perfbench {

// --- Report ----------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Fail(const std::string& why) {
  if (correct_) std::fprintf(stderr, "perfbench: INCORRECT: %s\n", why.c_str());
  correct_ = false;
}

void Report::Detail(const std::string& name, double value) {
  details_.push_back({name, value});
}

namespace {

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::ResultJson() const {
  std::string s = "{\"correct\": ";
  s += correct_ ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + Number(vu.first) +
         ", \"unit\": \"" + vu.second + "\"}";
  }
  s += "}}";
  return s;
}

std::string Report::DetailJson() const {
  std::string s = "{\"detail\": {";
  bool first = true;
  for (const auto& [name, v] : details_) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": " + Number(v);
  }
  s += "}}";
  return s;
}

uint64_t Derive(uint64_t seed, uint64_t tag) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + tag);
  return rng.Next();
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// --- Fixture ---------------------------------------------------------------

namespace {

/// Removes [begin, end) from sorted disjoint intervals.
std::vector<NodeInterval> Cut(const std::vector<NodeInterval>& in,
                              NodeId begin, NodeId end) {
  std::vector<NodeInterval> out;
  for (const NodeInterval& iv : in) {
    if (iv.end <= begin || iv.begin >= end) {
      out.push_back(iv);
      continue;
    }
    if (iv.begin < begin) out.push_back({iv.begin, begin});
    if (iv.end > end) out.push_back({end, iv.end});
  }
  return out;
}

NodeBits BitsOf(const std::vector<NodeInterval>& intervals, size_t n) {
  NodeBits bits(n, false);
  for (const NodeInterval& iv : intervals) bits.SetRange(iv.begin, iv.end, true);
  return bits;
}

}  // namespace

void HookEpochs(StoreSlot* slot) {
  slot->store->AddCommitHook([slot](const SecureStore::CommitEvent& e) {
    slot->last_commit_epoch.store(e.epoch, std::memory_order_relaxed);
  });
}

namespace {

/// Builds one store of `f`'s labeling (memory files when `file_dir` is
/// empty), VACUUMed when `f->vacuum`; the time goes into set-up.
Status BuildSlot(Fixture* f, const std::string& file_dir, StoreSlot* slot) {
  if (file_dir.empty()) {
    slot->data_base = std::make_unique<MemPagedFile>();
    slot->wal_base = std::make_unique<MemPagedFile>();
  } else {
    std::error_code ec;
    std::filesystem::create_directories(file_dir, ec);
    SECXML_ASSIGN_OR_RETURN(auto data,
                            FilePagedFile::Create(file_dir + "/store.db"));
    SECXML_ASSIGN_OR_RETURN(auto wal,
                            FilePagedFile::Create(file_dir + "/store.wal"));
    slot->data_base = std::move(data);
    slot->wal_base = std::move(wal);
  }
  slot->data = std::make_unique<TimedPagedFile>(slot->data_base.get(), false);
  slot->wal = std::make_unique<TimedPagedFile>(slot->wal_base.get(), true);
  uint64_t t = NowNs();
  SECXML_RETURN_NOT_OK(SecureStore::BuildWithWal(
      f->doc, f->labeling, slot->data.get(), slot->wal.get(),
      f->store_options, &slot->store));
  f->store_s += SecondsSince(t);
  if (f->vacuum) {
    t = NowNs();
    SECXML_RETURN_NOT_OK(slot->store->Vacuum(SecureStore::VacuumOptions{}));
    f->vacuum_s += SecondsSince(t);
  }
  HookEpochs(slot);
  return Status::OK();
}

}  // namespace

Status BuildFixture(const FixtureOptions& o, uint64_t seed, Fixture* f) {
  uint64_t t = NowNs();
  XMarkOptions xopts;
  xopts.seed = Derive(seed, 1);
  xopts.target_nodes = 200000;
  SECXML_RETURN_NOT_OK(GenerateXMark(xopts, &f->doc));
  f->xmark_s = SecondsSince(t);
  const NodeId n = static_cast<NodeId>(f->doc.NumNodes());

  // One synthetic ACL per role; members of a role share it exactly.
  t = NowNs();
  std::vector<std::vector<NodeInterval>> role_acl(o.roles);
  for (size_t r = 0; r < o.roles; ++r) {
    SyntheticAclOptions aopts;
    aopts.seed = Derive(seed, 100 + r);
    aopts.accessibility_ratio = 0.6;
    aopts.force_root_accessible = true;
    role_acl[r] = GenerateSyntheticAcl(f->doc, aopts);
  }
  f->acl_s = SecondsSince(t);
  const NodeId stripe_b = static_cast<NodeId>(o.stripe_begin * n);
  const NodeId stripe_e = static_cast<NodeId>(o.stripe_end * n);
  for (size_t r = 0; r < o.roles; ++r) {
    role_acl[r] = Cut(role_acl[r], stripe_b, stripe_e);
  }
  std::vector<std::vector<NodeInterval>> intervals;
  for (size_t s = 0; s < o.subjects; ++s) {
    intervals.push_back(role_acl[s % o.roles]);
  }
  if (o.full_access_subject) intervals.push_back({{0, n}});
  f->roles = o.roles;

  t = NowNs();
  IntervalAccessMap map(n, intervals.size());
  for (size_t s = 0; s < intervals.size(); ++s) {
    map.SetSubjectIntervals(static_cast<SubjectId>(s), intervals[s]);
  }
  f->labeling = DolLabeling::BuildFromEvents(n, map.InitialAcl(),
                                             map.CollectEvents());
  f->dol_s = SecondsSince(t);
  f->dol_transitions = f->labeling.num_transitions();

  // The oracle's bitmaps come from the same intervals, never the store.
  for (const auto& iv : intervals) f->acc.push_back(BitsOf(iv, n));
  f->store_options.buffer_pool_pages = o.pool_pages;
  f->store_options.recover_superblock = true;
  f->vacuum = o.vacuum;
  return BuildSlot(f, o.file_dir, &f->served);
}

// --- Queries -----------------------------------------------------------------

namespace {

/// XPath text for pattern subtree `i` used as a predicate or trunk step.
bool RenderStep(const PatternTree& t, int i, int trunk_child,
                std::string* out) {
  const PatternNode& n = t.nodes[i];
  out->append(n.tag);
  for (int c : n.children) {
    if (c == trunk_child) continue;
    out->push_back('[');
    if (t.nodes[c].descendant_axis) out->append("//");
    if (!RenderStep(t, c, -1, out)) return false;
    if (t.nodes[c].has_value) {
      out->append("='" + t.nodes[c].value + "'");
    }
    out->push_back(']');
  }
  return true;
}

/// Renders `t` as XPath text when every value test sits on a predicate
/// step; empty when it cannot be rendered.
std::string RenderXPath(const PatternTree& t) {
  std::vector<int> trunk;
  for (int p = t.returning_node; p >= 0; p = t.nodes[p].parent) {
    trunk.push_back(p);
  }
  std::reverse(trunk.begin(), trunk.end());
  std::string out;
  for (size_t k = 0; k < trunk.size(); ++k) {
    const PatternNode& n = t.nodes[trunk[k]];
    if (n.has_value || n.value.find('\'') != std::string::npos) return "";
    out.append(n.descendant_axis ? "//" : "/");
    const int next = k + 1 < trunk.size() ? trunk[k + 1] : -1;
    if (!RenderStep(t, trunk[k], next, &out)) return "";
  }
  return out;
}

}  // namespace

std::vector<Query> MakeQueries(const Document& doc, uint64_t seed,
                               size_t twigs, int max_nodes) {
  std::vector<Query> out;
  for (int i = 0; i <= 6; ++i) {
    Query q;
    q.xpath = i < 6 ? kTable1Queries[i] : kJoinFaultWitness;
    q.label = i < 6 ? "Q" + std::to_string(i + 1) : "witness";
    if (!ParseXPath(q.xpath, &q.pattern).ok()) continue;
    out.push_back(std::move(q));
  }
  for (size_t i = 0; i < twigs; ++i) {
    QueryGenOptions qopts;
    qopts.max_nodes = max_nodes;
    qopts.seed = Derive(seed, 1000 + i);
    Query q;
    q.pattern = GenerateTwigQuery(doc, qopts);
    q.label = "twig" + std::to_string(i);
    const std::string text = RenderXPath(q.pattern);
    PatternTree back;
    if (!text.empty() && ParseXPath(text, &back).ok() &&
        NormalizePattern(back) == NormalizePattern(q.pattern)) {
      q.xpath = text;
    }
    out.push_back(std::move(q));
  }
  return out;
}

const char* SemanticsName(AccessSemantics sem) {
  switch (sem) {
    case AccessSemantics::kNone:
      return "none";
    case AccessSemantics::kBinding:
      return "binding";
    case AccessSemantics::kView:
      return "view";
  }
  return "?";
}

// --- Evaluation ----------------------------------------------------------------

Status PlanRequest(const Query& q, PreparedQuery* pq) {
  if (q.xpath.empty()) {
    ScopedSpan span(kPrepare);
    return PrepareQuery(q.pattern, pq);
  }
  PatternTree parsed;
  {
    ScopedSpan span(kParse);
    SECXML_RETURN_NOT_OK(ParseXPath(q.xpath, &parsed));
  }
  ScopedSpan span(kPrepare);
  return PrepareQuery(parsed, pq);
}

Result<EvalResult> EvaluateReassembled(SecureStore* store,
                                       const PreparedQuery& pq,
                                       const EvalOptions& options,
                                       LayerReport* layers) {
  std::unique_ptr<SecureStore::SnapshotPin> pin;
  {
    ScopedSpan span(kPin);
    pin = std::make_unique<SecureStore::SnapshotPin>(store);
  }
  const bool secure = options.semantics != AccessSemantics::kNone;
  if (secure && options.use_view) {
    std::shared_ptr<const SubjectView> view;
    {
      ScopedSpan span(kViewCompile);
      SECXML_ASSIGN_OR_RETURN(view, store->View(options.subject));
    }
    if (layers != nullptr) {
      const void*& last = layers->views[options.subject];
      if (last != view.get()) ++layers->view_compiles;
      last = view.get();
    }
  }
  NokMatcher::Options mopts;
  mopts.secure = secure;
  mopts.subject = options.subject;
  mopts.page_skip = options.page_skip;
  mopts.use_view = options.use_view;
  mopts.ordered_siblings = options.ordered_siblings;
  NokMatcher matcher(store, mopts);
  const size_t nf = pq.query.fragments.size();
  std::vector<std::vector<FragmentMatch>> matches(nf);
  EvalResult result;
  for (size_t i = 0; i < nf; ++i) {
    ScopedSpan span(kScan);
    SECXML_RETURN_NOT_OK(matcher.MatchFragment(pq.query.fragments[i],
                                               pq.designated[i], &matches[i]));
    result.fragment_matches += matches[i].size();
  }
  ExecStats scan_stats = matcher.exec_stats();
  scan_stats.epoch_pins = 1;
  result.operators.push_back({"scan", scan_stats});
  if (options.semantics == AccessSemantics::kView) {
    ExecStats vis_stats;
    std::vector<NodeInterval> hidden;
    {
      const uint64_t reads0 = store->io_stats().Snapshot().page_reads;
      ScopedSpan span(kHiddenSweep);
      SECXML_ASSIGN_OR_RETURN(
          hidden, store->HiddenSubtreeIntervals(options.subject, &vis_stats));
      if (layers != nullptr && vis_stats.nodes_scanned > 0) {
        ++layers->hidden_sweeps;
        layers->hidden_sweep_pages +=
            store->io_stats().Snapshot().page_reads - reads0;
      }
    }
    {
      ScopedSpan span(kFilter);
      FilterMatchesVisible(hidden, &matches, &vis_stats);
    }
    result.operators.push_back({"visibility", vis_stats});
  }
  ExecStats join_stats;
  {
    ScopedSpan span(kJoin);
    JoinMatches(pq, matches, &result.answers, &join_stats);
  }
  result.operators.push_back({"join", join_stats});
  result.exec = RollUp(result.operators);
  return result;
}

void ExecTally::Add(const EvalResult& r) {
  ++requests;
  for (const OperatorStats& o : r.operators) {
    if (std::string(o.op) == "scan") scan += o.stats;
  }
}

bool OpenToJoinFault(const PatternTree& pattern) {
  for (size_t c = 1; c < pattern.nodes.size(); ++c) {
    const int p = pattern.nodes[c].parent;
    if (pattern.nodes[c].descendant_axis && p != 0 &&
        !pattern.nodes[p].descendant_axis) {
      return true;
    }
  }
  return false;
}

bool IsKnownJoinFault(const PatternTree& pattern,
                      const std::vector<NodeId>& got,
                      const std::vector<NodeId>& want) {
  return OpenToJoinFault(pattern) && got.size() > want.size() &&
         IsSubset(want, got);
}

size_t AnswerLog::Add(size_t query, AccessSemantics sem, size_t cls,
                      const std::vector<NodeId>& answers) {
  if (sem == AccessSemantics::kNone) cls = 0;
  const int k = static_cast<int>(sem);
  const auto [it, added] =
      ids_.insert({{query, k, cls, AnswerHash(answers)}, entries_.size()});
  if (added) entries_.push_back({query, cls, k, answers});
  return it->second;
}

void AnswerLog::Check(const std::vector<Query>& queries, OracleMemo* memo,
                      Report* out) {
  faulty_.assign(entries_.size(), false);
  // Per (query, class): the tuples of each semantics (kNone under class 0).
  std::map<std::pair<size_t, size_t>, std::array<std::vector<size_t>, 3>>
      by_class;
  for (size_t id = 0; id < entries_.size(); ++id) {
    const Entry& e = entries_[id];
    const Query& q = queries[e.query];
    const auto sem = static_cast<AccessSemantics>(e.sem);
    const std::vector<NodeId>& want = memo->Answers(e.query, q.pattern, sem,
                                                    e.cls);
    by_class[{e.query, e.cls}][e.sem].push_back(id);
    if (e.answers == want) continue;
    if (IsKnownJoinFault(q.pattern, e.answers, want)) {
      faulty_[id] = true;
      continue;
    }
    out->Fail("answer differs from the oracle: " + q.label + " (" +
              SemanticsName(sem) + ", class " + std::to_string(e.cls) +
              "): " + std::to_string(e.answers.size()) + " answers, oracle " +
              std::to_string(want.size()));
  }
  for (const auto& [key, ids] : by_class) {
    const auto none = by_class.find({key.first, 0});
    if (none == by_class.end()) continue;
    for (size_t v : ids[2]) {
      for (size_t b : ids[1]) {
        for (size_t n : none->second[0]) {
          if (faulty_[v] || faulty_[b] || faulty_[n]) continue;
          if (!IsSubset(entries_[v].answers, entries_[b].answers) ||
              !IsSubset(entries_[b].answers, entries_[n].answers)) {
            out->Fail("view/binding/none answers not nested for " +
                      queries[key.first].label);
          }
        }
      }
    }
  }
}

bool IsSubset(const std::vector<NodeId>& small,
              const std::vector<NodeId>& big) {
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

uint64_t AnswerHash(const std::vector<NodeId>& answers) {
  uint64_t h = 0x84222325cbf29ce4ULL ^ answers.size();
  for (NodeId a : answers) {
    h ^= a;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

// --- Layer report ----------------------------------------------------------------

void LayerReport::Emit(const Fixture& f, const LayerTotals& t,
                       Report* out) const {
  auto per = [](double v, uint64_t n) { return n == 0 ? 0.0 : v / n; };
  auto ms = [&](Layer l) { return static_cast<double>(t.self_ns[l]) * 1e-6; };
  auto us = [&](Layer l) { return static_cast<double>(t.self_ns[l]) * 1e-3; };
  const double req = static_cast<double>(requests);
  out->Set("query.parse_us", per(us(kParse), t.count[kParse]), "us");
  out->Set("query.prepare_us", per(us(kPrepare), t.count[kPrepare]), "us");
  out->Set("query.fragments", per(exec.fragments, prepares), "count");
  out->Set("core.view_compile_ms", per(ms(kViewCompile), view_compiles), "ms");
  out->Set("core.view_compiles", static_cast<double>(view_compiles), "count");
  out->Set("core.hidden_sweep_ms", per(ms(kHiddenSweep), hidden_sweeps), "ms");
  out->Set("core.hidden_sweep_pages", static_cast<double>(hidden_sweep_pages),
           "count");
  out->Set("core.group_us", per(us(kGroup), t.count[kGroup]), "us");
  out->Set("core.pin_us", per(us(kPin), t.count[kPin]), "us");
  out->Set("scan.ms", per(ms(kScan), exec.requests), "ms");
  out->Set("scan.nodes_scanned", per(exec.scan.nodes_scanned, exec.requests),
           "count");
  out->Set("scan.codes_checked", per(exec.scan.codes_checked, exec.requests),
           "count");
  out->Set("scan.checks_elided", per(exec.scan.checks_elided, exec.requests),
           "count");
  out->Set("scan.pages_skipped", per(exec.scan.pages_skipped, exec.requests),
           "count");
  out->Set("scan.fetch_waits", per(exec.scan.fetch_waits, exec.requests),
           "count");
  out->Set("scan.extra_access_io", static_cast<double>(extra_access_io),
           "count");
  out->Set("filter.ms", per(ms(kFilter), exec.requests), "ms");
  out->Set("join.ms", per(ms(kJoin), exec.requests), "ms");
  out->Set("batch.classes_evaluated", per(batch_classes, requests), "count");
  out->Set("batch.class_dedup_hits", per(batch_dedup, requests), "count");
  out->Set("batch.pages_skipped", per(batch_pages_skipped, requests), "count");
  out->Set("pool.page_reads", per(pool.page_reads, requests), "count");
  out->Set("pool.cache_hits", per(pool.cache_hits, requests), "count");
  out->Set("pool.hit_rate",
           per(pool.cache_hits, pool.cache_hits + pool.page_reads), "ratio");
  out->Set("file.reads", per(file_reads, requests), "count");
  out->Set("file.read_us", per(us(kFileRead), t.count[kFileRead]), "us");
  out->Set("file.writes", static_cast<double>(file_writes), "count");
  out->Set("file.write_us", per(us(kFileWrite), t.count[kFileWrite]), "us");
  out->Set("wal.records", static_cast<double>(wal_records), "count");
  out->Set("wal.bytes", static_cast<double>(wal_bytes), "bytes");
  out->Set("wal.syncs", static_cast<double>(wal_syncs), "count");
  out->Set("wal.sync_us", per(us(kWalSync), t.count[kWalSync]), "us");
  out->Set("update.call_ms", per(ms(kUpdate), t.count[kUpdate]), "ms");
  out->Set("update.views_patched", static_cast<double>(views_patched), "count");
  out->Set("update.columns_patched", static_cast<double>(columns_patched),
           "count");
  out->Set("epoch.advances", static_cast<double>(epoch_advances), "count");
  out->Set("checkpoint.ms", per(ms(kCheckpoint), t.count[kCheckpoint]), "ms");
  out->Set("checkpoint.pages_written", static_cast<double>(checkpoint_pages),
           "count");
  out->Set("cache.hits", static_cast<double>(cache.hits), "count");
  out->Set("cache.misses", static_cast<double>(cache.misses), "count");
  out->Set("cache.hit_rate", per(cache.hits, cache.hits + cache.misses),
           "ratio");
  out->Set("cache.invalidated", static_cast<double>(cache.invalidated),
           "count");
  out->Set("cache.flushes", static_cast<double>(cache.flushes), "count");
  out->Set("cache.evictions", static_cast<double>(cache.evictions), "count");
  out->Set("cache.single_flight_waits",
           static_cast<double>(cache.single_flight_waits), "count");
  out->Set("cache.hit_us",
           per(static_cast<double>(cache_hit_ns) * 1e-3, cache_hit_calls), "us");
  out->Set("plan.hits", static_cast<double>(plan_hits), "count");
  out->Set("update.p50_ms", update_p50_ms, "ms");
  out->Set("recovery.reopen_s", reopen_s, "s");
  out->Set("recovery.records_replayed", static_cast<double>(records_replayed),
           "count");
  out->Set("setup.xmark_s", f.xmark_s, "s");
  out->Set("setup.acl_s", f.acl_s, "s");
  out->Set("setup.dol_s", f.dol_s, "s");
  out->Set("setup.store_s", f.store_s, "s");
  out->Set("setup.vacuum_s", f.vacuum_s, "s");
  out->Set("dol.transitions", static_cast<double>(f.dol_transitions), "count");
  {
    SecureStore::SnapshotPin pin(f.served.store.get());
    out->Set("codebook.entries",
             static_cast<double>(f.served.store->codebook().size()), "count");
    out->Set("codebook.bytes",
             static_cast<double>(f.served.store->codebook().ByteSize()), "bytes");
  }
  out->Set("nok.pages", static_cast<double>(f.served.store->nok()->num_pages()),
           "count");
  out->Set("trace.requests", req, "count");
  out->Set("trace.pieces_gap_pct",
           untraced_ms > 0 ? 100.0 * (pieces_ms - untraced_ms) / untraced_ms
                           : 0.0,
           "%");
  out->Set("trace.overhead_pct",
           untraced_ms > 0
               ? 100.0 * (reassembled_ms - untraced_ms) / untraced_ms
               : 0.0,
           "%");
  out->Set("ref.full_access_ratio", full_access_ratio, "ratio");
}

void ReassemblyProbe(Fixture* f, const std::vector<ProbeItem>& items,
                     LayerReport* layers, Report* out) {
  QueryEvaluator eval(f->served.store.get());
  Rng order(0x5eed);
  for (const ProbeItem& it : items) {
    PreparedQuery pq;
    if (!PrepareQuery(it.query->pattern, &pq).ok()) {
      out->Fail("probe: PrepareQuery failed on " + it.query->label);
      continue;
    }
    EvalOptions opts;
    opts.semantics = it.sem;
    opts.subject = it.subject;
    auto run_pieces = [&]() -> Result<EvalResult> {
      const LayerTotals before = Tracer::Get().ThreadTotals();
      const uint64_t t0 = NowNs();
      Result<EvalResult> r = EvaluateReassembled(f->served.store.get(), pq, opts);
      layers->reassembled_ms += SecondsSince(t0) * 1e3;
      const LayerTotals after = Tracer::Get().ThreadTotals();
      for (Layer l : {kPin, kViewCompile, kScan, kHiddenSweep, kFilter, kJoin,
                      kFileRead, kFileWrite}) {
        layers->pieces_ms +=
            static_cast<double>(after.self_ns[l] - before.self_ns[l]) * 1e-6;
      }
      return r;
    };
    auto run_whole = [&]() -> Result<EvalResult> {
      const uint64_t t0 = NowNs();
      Result<EvalResult> r = eval.EvaluatePrepared(pq, opts);
      layers->untraced_ms += SecondsSince(t0) * 1e3;
      return r;
    };
    const bool pieces_first = order.Bernoulli(0.5);
    Result<EvalResult> a = pieces_first ? run_pieces() : run_whole();
    Result<EvalResult> b = pieces_first ? run_whole() : run_pieces();
    if (!a.ok() || !b.ok()) {
      out->Fail("probe: evaluation failed on " + it.query->label);
      continue;
    }
    const EvalResult& pieces = pieces_first ? *a : *b;
    const EvalResult& whole = pieces_first ? *b : *a;
    if (pieces.answers != whole.answers ||
        (whole.answers != *it.expected &&
         !IsKnownJoinFault(it.query->pattern, whole.answers, *it.expected))) {
      out->Fail("probe: answers differ from the oracle on " +
                it.query->label + " (" + SemanticsName(it.sem) + ", subject " +
                std::to_string(it.subject) + "): reassembled " +
                std::to_string(pieces.answers.size()) + ", EvaluatePrepared " +
                std::to_string(whole.answers.size()) + ", oracle " +
                std::to_string(it.expected->size()));
    }
  }
}

void EmitLatency(const KindTimes& kinds, std::vector<double> ms,
                 AccessSemantics sem, Report* out) {
  const std::string name = SemanticsName(sem);
  out->Set(name + "_ms", kinds.Typical(kKindQuantile), "ms");
  out->Detail(name + "_ms.samples", static_cast<double>(kinds.samples()));
  out->Detail(name + "_ms.kind_medians", kinds.Typical(0.5));
  out->Detail(name + "_p50_ms", Percentile(&ms, 0.5));
}

void EmitThroughput(const std::array<KindTimes, 3>& kinds,
                    std::vector<double> cycle_rates, int clients,
                    double subjects, Report* out) {
  double ms = 0, requests = 0;
  for (const KindTimes& k : kinds) {
    ms += k.Typical(kKindQuantile) * static_cast<double>(k.samples());
    requests += static_cast<double>(k.samples());
  }
  const double rate = ms > 0 ? clients * 1e3 * requests / ms : 0;
  out->Set("queries_per_s", rate, "1/s");
  out->Set("subjects_per_s", rate * subjects, "subjects/s");
  out->Detail("cycles", static_cast<double>(cycle_rates.size()));
  out->Detail("queries_per_s.median_cycle",
              clients * Percentile(&cycle_rates, 0.5));
}

void DetailPercentile(std::vector<double> ms, double q,
                      const std::string& name, Report* out) {
  out->Detail(name, Percentile(&ms, q));
  out->Detail(name + ".samples_beyond",
              static_cast<double>(SamplesBeyond(ms.size(), q)));
}

void EmitSharedMetrics(Fixture* f, Report* out) {
  out->Set("setup_s", f->setup_s(), "s");
  size_t codebook_bytes = 0;
  {
    SecureStore::SnapshotPin pin(f->served.store.get());
    codebook_bytes = f->served.store->codebook().ByteSize();
  }
  out->Set("store_bytes",
           static_cast<double>(f->served.store->nok()->num_pages() * kPageSize +
                               codebook_bytes),
           "bytes");
  auto labeling = f->served.store->ExtractLabeling();
  if (!labeling.ok()) {
    out->Fail("ExtractLabeling failed: " + labeling.status().ToString());
    return;
  }
  out->Set("label_bytes",
           static_cast<double>(labeling->ComputeStats().total_bytes), "bytes");
}

}  // namespace perfbench
