#include "checks.h"

#include <algorithm>

namespace perfbench {

using neptune::ham::LinkIndex;
using neptune::ham::NodeIndex;

namespace {

std::string Num(uint64_t v) { return std::to_string(v); }

// Applies a Difference list to `old_text`. Returns "" and sets *out,
// or says why it cannot apply.
std::string ApplyDifferences(
    const std::string& old_text,
    const std::vector<neptune::delta::Difference>& diffs, std::string* out) {
  const std::vector<std::string> old_lines = Lines(old_text);
  std::vector<std::string> result;
  size_t cursor = 0;  // next old line not yet copied
  for (const auto& d : diffs) {
    if (d.old_begin < cursor || d.old_end < d.old_begin ||
        d.old_end > old_lines.size()) {
      return "hunk out of order or out of range";
    }
    if (d.old_end - d.old_begin != d.old_lines.size() ||
        d.new_end - d.new_begin != d.new_lines.size()) {
      return "hunk ranges disagree with its lines";
    }
    for (size_t i = d.old_begin; i < d.old_end; ++i) {
      if (old_lines[i] != d.old_lines[i - d.old_begin]) {
        return "hunk removes a line the old text does not have";
      }
    }
    result.insert(result.end(), old_lines.begin() + cursor,
                  old_lines.begin() + d.old_begin);
    if (result.size() != d.new_begin) return "hunk new_begin misplaced";
    result.insert(result.end(), d.new_lines.begin(), d.new_lines.end());
    cursor = d.old_end;
  }
  result.insert(result.end(), old_lines.begin() + cursor, old_lines.end());
  *out = Join(result);
  return "";
}

}  // namespace

ExpectedFetch MakeExpectedFetch(const Corpus& corpus, size_t doc) {
  ExpectedFetch out;
  out.outline = corpus.ExpectedOutline(doc);
  for (NodeIndex node : out.outline.nodes) {
    const NodeRecord& record = corpus.Node(node);
    out.contents.push_back(record.texts.empty() ? "" : record.texts.back());
    out.titles.push_back(record.title);
  }
  return out;
}

std::string CheckFetch(
    const ExpectedFetch& expected,
    const neptune::rpc::RemoteHam::LinearizeAndFetchResult& got) {
  const auto& nodes = got.graph.nodes;
  if (nodes.size() != expected.outline.nodes.size()) {
    return "outline has " + Num(nodes.size()) + " nodes, expected " +
           Num(expected.outline.nodes.size());
  }
  if (got.contents.size() != nodes.size()) return "contents not parallel";
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].node != expected.outline.nodes[i]) {
      return "outline position " + Num(i) + " is node " + Num(nodes[i].node) +
             ", expected " + Num(expected.outline.nodes[i]);
    }
    if (nodes[i].attribute_values.size() != 1 ||
        nodes[i].attribute_values[0] != expected.titles[i]) {
      return "wrong icon on node " + Num(nodes[i].node);
    }
    if (!got.contents[i].status.ok() ||
        got.contents[i].contents != expected.contents[i]) {
      return "wrong contents for node " + Num(nodes[i].node);
    }
  }
  const auto& links = got.graph.links;
  if (links.size() != expected.outline.edges.size()) {
    return "outline has " + Num(links.size()) + " links, expected " +
           Num(expected.outline.edges.size());
  }
  for (size_t i = 0; i < links.size(); ++i) {
    if (links[i].from != expected.outline.edges[i].first ||
        links[i].to != expected.outline.edges[i].second) {
      return "outline link " + Num(i) + " joins " + Num(links[i].from) +
             "->" + Num(links[i].to);
    }
  }
  return "";
}

std::string CheckQuery(const ExpectedGraph& expected,
                       const neptune::ham::SubGraph& got) {
  std::vector<NodeIndex> nodes;
  for (const auto& n : got.nodes) nodes.push_back(n.node);
  std::sort(nodes.begin(), nodes.end());
  if (nodes != expected.nodes) {
    return "query matched " + Num(nodes.size()) + " nodes, expected " +
           Num(expected.nodes.size()) + " (or different ones)";
  }
  std::vector<LinkIndex> links;
  for (const auto& l : got.links) links.push_back(l.link);
  std::sort(links.begin(), links.end());
  if (links != expected.links) {
    return "query matched " + Num(links.size()) + " links, expected " +
           Num(expected.links.size()) + " (or different ones)";
  }
  return "";
}

std::string CheckOpenNode(const std::string& text,
                          const std::vector<std::string>& attrs,
                          const std::vector<Reference>& refs_out,
                          const neptune::ham::OpenNodeResult& got) {
  if (got.contents != text) return "wrong contents";
  if (got.attribute_values.size() != attrs.size()) return "wrong attribute count";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (got.attribute_values[i] != attrs[i]) return "wrong attribute value";
  }
  for (const Reference& ref : refs_out) {
    bool found = false;
    for (const auto& att : got.attachments) {
      found |= att.link == ref.link && att.is_source_end &&
               att.position == ref.position;
    }
    if (!found) return "reference link " + Num(ref.link) + " not attached";
  }
  return "";
}

std::string CheckDifferences(
    const std::string& old_text, const std::string& new_text,
    const std::vector<neptune::delta::Difference>& diffs) {
  std::string applied;
  std::string error = ApplyDifferences(old_text, diffs, &applied);
  if (!error.empty()) return error;
  if (applied != new_text) return "differences do not rebuild the newer text";
  return "";
}

std::string CheckVersions(const NodeRecord& record,
                          const neptune::ham::NodeVersions& got) {
  // AddSection creates the node (an empty first version) and writes its
  // text in the same transaction; every later version is one edit.
  if (got.major.size() != record.texts.size() + 1) {
    return "node has " + Num(got.major.size()) + " content versions, expected " +
           Num(record.texts.size() + 1);
  }
  for (size_t k = 0; k < record.texts.size(); ++k) {
    const auto& v = got.major[k + 1];
    if (v.time != record.times[k] || v.explanation != record.explanations[k]) {
      return "content version " + Num(k) + " has time " + Num(v.time) +
             " '" + v.explanation + "'";
    }
  }
  return "";
}

std::string CheckCounts(const char* what, uint64_t a, uint64_t b, uint64_t c) {
  if (a == b && b == c) return "";
  return std::string(what) + " disagree: " + Num(a) + " / " + Num(b) + " / " +
         Num(c);
}

}  // namespace perfbench
