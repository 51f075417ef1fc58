// perfbench_selftest: shows that every output check accepts a right
// answer and rejects it when handed a wrong expectation. Needs no
// server; exits non-zero if any case misbehaves.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "delta/text_diff.h"

namespace perfbench {
namespace {

using neptune::ham::NodeVersions;
using neptune::ham::OpenNodeResult;
using neptune::ham::SubGraph;
using neptune::rpc::RemoteHam;

int failures = 0;

// `check` must return "" on the right expectation and an error on
// the wrong one.
void Case(const char* name, const std::function<std::string(bool)>& check) {
  const std::string right = check(false);
  const std::string wrong = check(true);
  const bool ok = right.empty() && !wrong.empty();
  std::printf("%-40s %s", name, ok ? "ok" : "FAILED");
  if (!right.empty()) std::printf("  (rejected the right answer: %s)", right.c_str());
  if (wrong.empty()) std::printf("  (accepted a wrong expectation)");
  std::printf("\n");
  if (!ok) ++failures;
}

// A three-node outline 10 -> {11, 12} with contents and titles.
void MakeFetch(ExpectedFetch* expected,
               RemoteHam::LinearizeAndFetchResult* got) {
  expected->outline.nodes = {10, 11, 12};
  expected->outline.edges = {{10, 11}, {10, 12}};
  expected->contents = {"", "one\n", "two\n"};
  expected->titles = {"Doc", "1", "2"};
  for (size_t i = 0; i < 3; ++i) {
    got->graph.nodes.push_back(
        {expected->outline.nodes[i], {expected->titles[i]}});
    RemoteHam::NodeContentsItem item;
    item.contents = expected->contents[i];
    got->contents.push_back(item);
  }
  got->graph.links.push_back({100, 10, 11, {}});
  got->graph.links.push_back({101, 10, 12, {}});
}

void FetchCases() {
  const std::vector<std::pair<const char*, std::function<void(ExpectedFetch*)>>>
      wrongs = {
          {"fetch: outline order", [](ExpectedFetch* e) {
             std::swap(e->outline.nodes[1], e->outline.nodes[2]);
           }},
          {"fetch: contents", [](ExpectedFetch* e) { e->contents[2] = "x\n"; }},
          {"fetch: icon title", [](ExpectedFetch* e) { e->titles[1] = "9"; }},
          {"fetch: outline links",
           [](ExpectedFetch* e) { e->outline.edges.pop_back(); }},
          {"fetch: missing node", [](ExpectedFetch* e) {
             e->outline.nodes.push_back(13);
             e->contents.push_back("");
             e->titles.push_back("3");
           }},
      };
  for (const auto& [name, spoil] : wrongs) {
    Case(name, [&](bool wrong) {
      ExpectedFetch expected;
      RemoteHam::LinearizeAndFetchResult got;
      MakeFetch(&expected, &got);
      if (wrong) spoil(&expected);
      return CheckFetch(expected, got);
    });
  }
}

void QueryCases() {
  SubGraph got;
  got.nodes = {{12, {}}, {10, {}}, {11, {}}};  // any order
  got.links = {{101, 10, 12, {}}};
  Case("query: node set", [&](bool wrong) {
    ExpectedGraph e;
    e.nodes = {10, 11, 12};
    e.links = {101};
    if (wrong) e.nodes = {10, 11, 13};
    return CheckQuery(e, got);
  });
  Case("query: link set", [&](bool wrong) {
    ExpectedGraph e;
    e.nodes = {10, 11, 12};
    e.links = {101};
    if (wrong) e.links = {101, 102};
    return CheckQuery(e, got);
  });
}

void OpenNodeCases() {
  OpenNodeResult got;
  got.contents = "text\n";
  got.attribute_values = {std::string("Title"), std::string("review")};
  got.attachments.push_back({7, true, 3, true});
  Reference ref;
  ref.link = 7;
  ref.position = 3;
  Case("openNode: contents", [&](bool wrong) {
    return CheckOpenNode(wrong ? "other\n" : "text\n", {"Title", "review"},
                         {ref}, got);
  });
  Case("openNode: attributes", [&](bool wrong) {
    return CheckOpenNode("text\n", {"Title", wrong ? "draft" : "review"}, {ref},
                         got);
  });
  Case("openNode: reference offset", [&](bool wrong) {
    Reference r = ref;
    if (wrong) r.position = 4;
    return CheckOpenNode("text\n", {"Title", "review"}, {r}, got);
  });
}

void DifferenceCases() {
  Rng rng(42);
  const std::string older = MakeText(rng, 30);
  std::string newer = older;
  for (int i = 0; i < 4; ++i) newer = EditText(rng, newer);
  const auto diffs = neptune::delta::DiffLines(older, newer);
  Case("differences: newer text", [&](bool wrong) {
    return CheckDifferences(older, wrong ? newer + "extra\n" : newer, diffs);
  });
  Case("differences: older text", [&](bool wrong) {
    return CheckDifferences(wrong ? newer : older, newer, diffs);
  });
  Case("differences: hunk lines", [&](bool wrong) {
    auto spoiled = diffs;
    if (wrong && !spoiled.empty()) {
      spoiled[0].new_lines.push_back("spurious");
      ++spoiled[0].new_end;
    }
    return CheckDifferences(older, newer, spoiled);
  });
}

void VersionCases() {
  NodeRecord rec;
  rec.texts = {"a\n", "b\n"};
  rec.times = {5, 9};
  rec.explanations = {"created", "rev 1"};
  NodeVersions got;
  got.major = {{4, ""}, {5, "created"}, {9, "rev 1"}};
  Case("versions: explanation", [&](bool wrong) {
    NodeRecord e = rec;
    if (wrong) e.explanations[1] = "rev 2";
    return CheckVersions(e, got);
  });
  Case("versions: time", [&](bool wrong) {
    NodeRecord e = rec;
    if (wrong) e.times[0] = 6;
    return CheckVersions(e, got);
  });
  Case("versions: count", [&](bool wrong) {
    NodeRecord e = rec;
    if (wrong) {
      e.texts.push_back("c\n");
      e.times.push_back(12);
      e.explanations.push_back("rev 2");
    }
    return CheckVersions(e, got);
  });
}

void CountCases() {
  Case("counts: three agree", [](bool wrong) {
    return CheckCounts("commits", 40, 40, wrong ? 39 : 40);
  });
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::FetchCases();
  perfbench::QueryCases();
  perfbench::OpenNodeCases();
  perfbench::DifferenceCases();
  perfbench::VersionCases();
  perfbench::CountCases();
  std::printf("%s\n", perfbench::failures == 0 ? "all checks ok"
                                               : "some checks misbehave");
  return perfbench::failures == 0 ? 0 : 1;
}
