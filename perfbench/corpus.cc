#include "corpus.h"

#include <algorithm>

namespace perfbench {

using neptune::Result;
using neptune::Status;
using neptune::ham::Context;
using neptune::ham::HamInterface;
using neptune::ham::NodeIndex;

namespace {

const char* const kWords[] = {
    "hyper",   "text",    "node",     "link",    "version", "graph",
    "design",  "circuit", "module",   "signal",  "delta",   "archive",
    "browse",  "annotate", "context", "thread",  "query",   "attribute",
    "server",  "client",  "document", "section", "review",  "schematic",
    "layout",  "netlist", "timing",   "power",   "clock",   "register"};
constexpr size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);

constexpr int kTargetLines = 4;  // annotations need a position, not text

// Statuses follow a fixed pattern, the same in every document, so that
// every outline under `status != draft` and every `status = review`
// query answer has the same size whatever the seed: a median over a
// few distinct answer sizes would otherwise jump with the seed.
const char* const kStatuses[] = {"draft", "review", "final"};

// Distinct offsets 16, 32, ... handed out in a shuffled order, so the
// creation order of siblings differs from their outline order.
std::vector<uint64_t> ShuffledPositions(Rng* rng, int n) {
  std::vector<uint64_t> positions;
  for (int i = 0; i < n; ++i) positions.push_back(16u * (i + 1));
  for (int i = n - 1; i > 0; --i) {
    std::swap(positions[i], positions[rng->Below(i + 1)]);
  }
  return positions;
}

}  // namespace

std::string MakeLine(Rng& rng) {
  std::string line;
  while (line.size() < 52) {
    if (!line.empty()) line.push_back(' ');
    line += kWords[rng.Below(kNumWords)];
  }
  line += " #" + std::to_string(rng.Below(1000000));
  return line;
}

std::string MakeText(Rng& rng, int lines) {
  std::vector<std::string> out;
  for (int i = 0; i < lines; ++i) out.push_back(MakeLine(rng));
  return Join(out);
}

std::string EditText(Rng& rng, const std::string& text) {
  std::vector<std::string> lines = Lines(text);
  const size_t target = lines.size();
  const int edits = 1 + static_cast<int>(rng.Below(3));
  for (int e = 0; e < edits; ++e) {
    const uint64_t kind = rng.Below(4);
    if (kind == 2 || lines.size() < 4) {
      lines.insert(lines.begin() + rng.Below(lines.size() + 1), MakeLine(rng));
    } else if (kind == 3 && lines.size() > target / 2) {
      lines.erase(lines.begin() + rng.Below(lines.size()));
    } else {
      lines[rng.Below(lines.size())] = MakeLine(rng);
    }
  }
  // Keep the size steady over long chains.
  while (lines.size() > target + 2) lines.erase(lines.begin() + rng.Below(lines.size()));
  return Join(lines);
}

void Corpus::Record(NodeRecord record) {
  index_[record.node] = records_.size();
  if (record.parent != 0) children_[record.parent].push_back(record.node);
  records_.push_back(std::move(record));
}

Result<NodeIndex> Corpus::AddTextNode(neptune::app::DocumentModel* model,
                                      HamInterface* ham, Context ctx, Rng* rng,
                                      NodeIndex parent,
                                      const std::string& document,
                                      const std::string& title,
                                      const char* status, uint64_t position,
                                      int lines) {
  NodeRecord record;
  record.parent = parent;
  record.position = position;
  record.document = document;
  record.title = title;
  record.status = status;
  {
    OwnTime own(&own_ns_);
    record.texts.push_back(MakeText(*rng, lines));
  }
  NEPTUNE_ASSIGN_OR_RETURN(
      record.node, model->AddSection(parent, document, title,
                                     record.texts.back(), position));
  NEPTUNE_RETURN_IF_ERROR(
      ham->SetNodeAttributeValue(ctx, record.node, status_, record.status));
  OwnTime own(&own_ns_);
  NEPTUNE_ASSIGN_OR_RETURN(neptune::ham::OpenNodeResult opened,
                           ham->OpenNode(ctx, record.node, 0, {}));
  record.times.push_back(opened.current_version_time);
  record.explanations.push_back("created");
  user_bytes_ += record.texts.back().size() + document.size() + title.size() +
                 record.status.size();
  const NodeIndex node = record.node;
  Record(std::move(record));
  return node;
}

Status Corpus::Build(HamInterface* ham, Context ctx, const CorpusSpec& spec,
                     uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + 17);
  neptune::app::DocumentModel model(ham, ctx);
  NEPTUNE_RETURN_IF_ERROR(model.Init());
  icon_ = model.icon_attr();
  NEPTUNE_ASSIGN_OR_RETURN(status_, ham->GetAttributeIndex(ctx, "status"));

  auto add_root = [&](const std::string& name,
                      const std::string& title) -> Result<NodeIndex> {
    NodeRecord record;
    record.document = name;
    record.title = title;
    record.status = "final";
    NEPTUNE_ASSIGN_OR_RETURN(record.node, model.CreateDocument(name, title));
    NEPTUNE_RETURN_IF_ERROR(
        ham->SetNodeAttributeValue(ctx, record.node, status_, record.status));
    const NodeIndex node = record.node;
    Record(std::move(record));
    return node;
  };

  for (int d = 0; d < spec.docs; ++d) {
    const std::string name = DocName(d);
    NEPTUNE_ASSIGN_OR_RETURN(NodeIndex root,
                             add_root(name, "Document " + std::to_string(d)));
    roots_.push_back(root);
    const std::vector<uint64_t> chapter_pos =
        ShuffledPositions(&rng, spec.chapters);
    for (int c = 0; c < spec.chapters; ++c) {
      const std::string title =
          std::to_string(d) + "." + std::to_string(chapter_pos[c] / 16);
      NEPTUNE_ASSIGN_OR_RETURN(
          NodeIndex chapter,
          AddTextNode(&model, ham, ctx, &rng, root, name, title,
                      kStatuses[c % 3], chapter_pos[c], spec.lines));
      text_nodes_.push_back(chapter);
      const std::vector<uint64_t> section_pos =
          ShuffledPositions(&rng, spec.sections_per_chapter);
      for (int s = 0; s < spec.sections_per_chapter; ++s) {
        NEPTUNE_ASSIGN_OR_RETURN(
            NodeIndex section,
            AddTextNode(&model, ham, ctx, &rng, chapter, name,
                        title + "." + std::to_string(section_pos[s] / 16),
                        kStatuses[(c + s + 1) % 3], section_pos[s],
                        spec.lines));
        text_nodes_.push_back(section);
      }
    }
  }

  // One cross-reference from every section, to a random other section
  // anywhere in the base documents.
  for (NodeIndex from : text_nodes_) {
    NodeIndex to = from;
    while (to == from) to = text_nodes_[rng.Below(text_nodes_.size())];
    Reference ref;
    ref.from = from;
    ref.to = to;
    ref.position = rng.Below(Node(from).texts.back().size());
    NEPTUNE_ASSIGN_OR_RETURN(ref.link,
                             model.AddReference(from, ref.position, to));
    refs_.push_back(ref);
  }

  // The documents that write operations target: "notes" holds the
  // sections each writer edits, "targets" short sections it annotates.
  // Both are spread over many nodes so that no node's history grows
  // long within a run.
  scratch_.assign(spec.writers, {});
  targets_.assign(spec.writers, {});
  NEPTUNE_ASSIGN_OR_RETURN(NodeIndex notes, add_root("notes", "Notes"));
  const int scratch_count = spec.writers * spec.scratch_per_writer;
  const std::vector<uint64_t> notes_pos = ShuffledPositions(&rng, scratch_count);
  for (int i = 0; i < scratch_count; ++i) {
    NEPTUNE_ASSIGN_OR_RETURN(
        NodeIndex section,
        AddTextNode(&model, ham, ctx, &rng, notes, "notes",
                    "n." + std::to_string(i), kStatuses[i % 3], notes_pos[i],
                    spec.lines));
    scratch_[i % spec.writers].push_back(section);
  }
  NEPTUNE_ASSIGN_OR_RETURN(NodeIndex targets, add_root("targets", "Targets"));
  const int target_count = spec.writers * spec.targets_per_writer;
  const std::vector<uint64_t> target_pos = ShuffledPositions(&rng, target_count);
  for (int i = 0; i < target_count; ++i) {
    NEPTUNE_ASSIGN_OR_RETURN(
        NodeIndex section,
        AddTextNode(&model, ham, ctx, &rng, targets, "targets",
                    "t." + std::to_string(i), kStatuses[i % 3], target_pos[i],
                    kTargetLines));
    targets_[i % spec.writers].push_back(section);
  }

  // Line-edited version chains, interleaved across nodes so each
  // node's versions are spread over the graph's timeline.
  std::vector<NodeIndex> order = text_nodes_;
  for (int v = 1; v < spec.versions; ++v) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Below(i)]);
    }
    for (NodeIndex node : order) {
      NodeRecord& record = MutableNode(node);
      {
        OwnTime own(&own_ns_);
        record.texts.push_back(EditText(rng, record.texts.back()));
        record.explanations.push_back("rev " + std::to_string(v));
      }
      NEPTUNE_RETURN_IF_ERROR(model.EditSection(node, record.texts.back(),
                                                record.explanations.back()));
      OwnTime own(&own_ns_);
      NEPTUNE_ASSIGN_OR_RETURN(neptune::ham::OpenNodeResult opened,
                               ham->OpenNode(ctx, node, 0, {}));
      record.times.push_back(opened.current_version_time);
      user_bytes_ += record.texts.back().size();
    }
  }
  return Status::OK();
}

ExpectedGraph Corpus::ExpectedOutline(size_t doc) const {
  ExpectedGraph out;
  // Recursive visit in offset order.
  auto visit = [&](auto&& self, NodeIndex node) -> void {
    out.nodes.push_back(node);
    auto it = children_.find(node);
    if (it == children_.end()) return;
    std::vector<NodeIndex> kids = it->second;
    std::sort(kids.begin(), kids.end(), [&](NodeIndex a, NodeIndex b) {
      return Node(a).position < Node(b).position;
    });
    for (NodeIndex kid : kids) {
      if (Node(kid).status == "draft") continue;
      out.edges.emplace_back(node, kid);
      self(self, kid);
    }
  };
  visit(visit, roots_[doc]);
  return out;
}

ExpectedGraph Corpus::ExpectedQuery(const std::string& name,
                                    bool review_only) const {
  ExpectedGraph out;
  for (const NodeRecord& record : records_) {
    if (record.document != name) continue;
    if (review_only && record.status != "review") continue;
    out.nodes.push_back(record.node);
  }
  std::sort(out.nodes.begin(), out.nodes.end());
  for (const Reference& ref : refs_) {
    if (std::binary_search(out.nodes.begin(), out.nodes.end(), ref.from) &&
        std::binary_search(out.nodes.begin(), out.nodes.end(), ref.to)) {
      out.links.push_back(ref.link);
    }
  }
  std::sort(out.links.begin(), out.links.end());
  return out;
}

}  // namespace perfbench
