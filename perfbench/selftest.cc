// Self-test of the benchmark's own pieces: the oracle on a hand-built
// document against answers worked out by hand, and the percentile code on
// known samples. Exits non-zero on the first mismatch.
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <string>
#include <vector>

#include "oracle.h"
#include "query/xpath_parser.h"
#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++failures;
  }
}

// The document, in document order (node id: tag):
//
//  0 site
//  1   regions
//  2     item            (hidden below: 2 is inaccessible)
//  3       name
//  4       desc
//  5         parlist
//  6           listitem
//  7             keyword
//  8             parlist
//  9               listitem
// 10                 keyword="gold"
// 11     item
// 12       name
// 13       desc
// 14         keyword
// 15         parlist
// 16           listitem
// 17             emph
// 18             keyword
// 19   people
// 20     person
// 21       name
// 22       emph
// 23     person
// 24       name="ann"
// 25   item
// 26     name
// 27     emph
//
// Inaccessible to the subject: 2, 9, 14, 16, 20, 25.
Document BuildDoc() {
  using secxml::DocumentBuilder;
  DocumentBuilder b;
  auto open = [&](const char* tag) { b.BeginElement(tag); };
  auto close = [&]() { (void)b.EndElement(); };
  auto leaf = [&](const char* tag, const char* text = nullptr) {
    b.BeginElement(tag);
    if (text != nullptr) (void)b.Text(text);
    (void)b.EndElement();
  };
  open("site");
  open("regions");
  open("item");
  leaf("name");
  open("desc");
  open("parlist");
  open("listitem");
  leaf("keyword");
  open("parlist");
  open("listitem");
  leaf("keyword", "gold");
  close();  // listitem 9
  close();  // parlist 8
  close();  // listitem 6
  close();  // parlist 5
  close();  // desc 4
  close();  // item 2
  open("item");
  leaf("name");
  open("desc");
  leaf("keyword");
  open("parlist");
  open("listitem");
  leaf("emph");
  leaf("keyword");
  close();  // listitem 16
  close();  // parlist 15
  close();  // desc 13
  close();  // item 11
  close();  // regions 1
  open("people");
  open("person");
  leaf("name");
  leaf("emph");
  close();  // person 20
  open("person");
  leaf("name", "ann");
  close();  // person 23
  close();  // people 19
  open("item");
  leaf("name");
  leaf("emph");
  close();  // item 25
  close();  // site 0
  Document doc;
  if (!b.Finish(&doc).ok()) std::abort();
  return doc;
}

void CheckOracle() {
  const Document doc = BuildDoc();
  Expect(doc.NumNodes() == 28, "hand-built document has 28 nodes");
  Expect(doc.TagName(10) == "keyword" && doc.Value(10) == "gold",
         "node 10 is keyword='gold'");
  Expect(doc.TagName(24) == "name" && doc.Value(24) == "ann",
         "node 24 is name='ann'");
  NodeBits acc(doc.NumNodes(), true);
  for (NodeId n : {2u, 9u, 14u, 16u, 20u, 25u}) acc.Set(n, false);
  Oracle oracle(doc);
  const NodeBits vis = oracle.Visible(acc);
  // Hidden subtrees: 2..10, 14, 16..18, 20..22, 25..27. Visible: 0, 1,
  // 11, 12, 13, 15, 19, 23, 24.
  Expect(vis.Count() == 9, "nine nodes are visible");

  struct Case {
    const char* xpath;
    std::vector<NodeId> none, binding, view;
  };
  const std::vector<Case> cases = {
      // Every keyword. Binding drops the inaccessible 14; view also drops
      // everything under item 2 (7, 10) and under listitem 16 (18).
      {"//keyword", {7, 10, 14, 18}, {7, 10, 18}, {}},
      // Q5 shape: a keyword below a listitem. Binding needs the listitem
      // bound and accessible: 6 (for 7 and 10 — 9 is not needed since 6
      // is an ancestor of 10) and not 16.
      {"//listitem//keyword", {7, 10, 18}, {7, 10}, {}},
      // Q4 shape: nested parlists exist only under the hidden item 2.
      {"//parlist//parlist", {8}, {8}, {}},
      // Child steps from the root; item 25 is inaccessible.
      {"/site/item/name", {26}, {}, {}},
      // Item 2 is bound, so binding drops its name 3.
      {"/site/regions/item/name", {3, 12}, {12}, {12}},
      // Here item 2 is skipped by the descendant edge, so binding keeps 3;
      // view hides it with the rest of item 2's subtree.
      {"//regions//name", {3, 12}, {3, 12}, {12}},
      // Likewise for listitem 16 above emph 17.
      {"//desc//emph", {17}, {17}, {}},
      // A predicate branch: items with an emph somewhere below. 17 is
      // accessible but its parent 16 is not, which binding tolerates
      // (16 is not bound) and view does not.
      {"//item[//emph]/name", {12, 26}, {12}, {}},
      // Value test on a predicate step.
      {"//person[name='ann']", {23}, {23}, {23}},
      {"//item[//keyword='gold']/name", {3}, {}, {}},
      // Wildcards: children of people, and names below any regions child.
      {"/site/people/*", {20, 23}, {23}, {23}},
      {"//regions/*/name", {3, 12}, {12}, {12}},
      // Returning node above a predicate path that binds listitem 16.
      {"//desc[parlist/listitem/emph]", {13}, {}, {}},
      // Emph below a person: 22 is under the inaccessible person 20.
      {"//person/emph", {22}, {}, {}},
  };
  for (const Case& c : cases) {
    PatternTree p;
    if (!secxml::ParseXPath(c.xpath, &p).ok()) {
      Expect(false, std::string("parse ") + c.xpath);
      continue;
    }
    Expect(oracle.Evaluate(p, nullptr) == c.none,
           std::string(c.xpath) + " under kNone");
    Expect(oracle.Evaluate(p, &acc) == c.binding,
           std::string(c.xpath) + " under binding");
    Expect(oracle.Evaluate(p, &vis) == c.view,
           std::string(c.xpath) + " under view");
  }

  // The memo returns the same answers and evaluates each key once.
  OracleMemo memo(&oracle);
  const size_t cls = memo.ClassOf(acc);
  Expect(memo.ClassOf(acc) == cls, "equal bitmaps share a class");
  PatternTree p;
  (void)secxml::ParseXPath("//listitem//keyword", &p);
  const auto& a = memo.Answers(0, p, AccessSemantics::kBinding, cls);
  const auto& b = memo.Answers(0, p, AccessSemantics::kBinding, cls);
  Expect(&a == &b && memo.evaluations() == 1, "memo hit");
  Expect(a == std::vector<NodeId>({7, 10}), "memo answers");
}

void CheckPercentiles() {
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };
  std::vector<double> one = {4.0};
  Expect(near(Percentile(&one, 0.5), 4.0), "p50 of one sample");
  std::vector<double> empty;
  Expect(Percentile(&empty, 0.5) == 0, "p50 of no samples");
  std::vector<double> v = {5, 1, 4, 2, 3};
  Expect(near(Percentile(&v, 0.5), 3.0), "p50 of 1..5");
  Expect(near(Percentile(&v, 0.0), 1.0), "p0 of 1..5");
  Expect(near(Percentile(&v, 1.0), 5.0), "p100 of 1..5");
  Expect(near(Percentile(&v, 0.25), 2.0), "p25 of 1..5");
  std::vector<double> w = {10, 20, 30, 40};
  Expect(near(Percentile(&w, 0.5), 25.0), "p50 interpolates");
  std::vector<double> h;
  for (int i = 1; i <= 1000; ++i) h.push_back(i);
  Expect(near(Percentile(&h, 0.99), 990.01), "p99 of 1..1000");
  Expect(SamplesBeyond(1000, 0.99) == 9, "samples beyond p99 of 1000");
  Expect(SamplesBeyond(2000, 0.99) == 19, "samples beyond p99 of 2000");
  Expect(SamplesBeyond(0, 0.99) == 0, "samples beyond, empty");

  // Kind 0 ran twice (1 and 3 ms), kind 2 four times (10..40 ms): medians
  // 2 and 25, weighted by the requests of each kind.
  KindTimes kinds;
  Expect(kinds.Typical() == 0, "typical time of no requests");
  kinds.Add(0, 3);
  kinds.Add(0, 1);
  for (double ms : {40, 10, 30, 20}) kinds.Add(2, ms);
  Expect(kinds.samples() == 6, "kind samples");
  Expect(near(kinds.Typical(), (2 * 2.0 + 4 * 25.0) / 6), "typical time");
  Expect(near(kinds.Typical(0), (2 * 1.0 + 4 * 10.0) / 6), "fastest times");
  // A stall that slows one of kind 2's four requests moves nothing.
  KindTimes stalled;
  stalled.Add(0, 1);
  stalled.Add(0, 3);
  for (double ms : {10, 20, 30, 400}) stalled.Add(2, ms);
  Expect(near(stalled.Typical(0.1), kinds.Typical(0.1)), "stall ignored");
  KindTimes merged;
  merged.Add(2, 10);
  merged.Add(2, 20);
  KindTimes rest;
  rest.Add(0, 1);
  rest.Add(0, 3);
  rest.Add(2, 30);
  rest.Add(2, 40);
  merged.Merge(rest);
  Expect(near(merged.Typical(), kinds.Typical()), "merged kinds");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::CheckOracle();
  perfbench::CheckPercentiles();
  if (perfbench::failures != 0) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}
