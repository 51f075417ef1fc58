// The benchmark's corpus: documents built through app::DocumentModel
// from a seed, plus the generator's own record of what it wrote. The
// record (texts of every version, the tree with its link offsets,
// attribute values, reference targets) is the reference every check
// compares the server's answers against. Only identities the program
// assigns come from it: node and link indices returned by the writes,
// and each version's time as openNode reports it right after the
// write that made the version.

#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "app/document.h"
#include "ham/ham_interface.h"
#include "util.h"

namespace perfbench {

struct CorpusSpec {
  int docs = 0;
  int chapters = 0;              // per document
  int sections_per_chapter = 0;
  int lines = 0;                 // lines per section text
  int versions = 0;              // content versions per chapter/section
  int writers = 1;               // scratch sections are split per writer
  int scratch_per_writer = 0;    // sections a writer edits
  int targets_per_writer = 0;    // sections a writer annotates
};

// One node the generator created.
struct NodeRecord {
  neptune::ham::NodeIndex node = 0;
  neptune::ham::NodeIndex parent = 0;  // 0 for document roots
  uint64_t position = 0;               // isPartOf offset in the parent
  std::string document, title, status;
  // Content versions, oldest first, and the time each took effect.
  std::vector<std::string> texts;
  std::vector<neptune::ham::Time> times;
  std::vector<std::string> explanations;
};

struct Reference {
  neptune::ham::LinkIndex link = 0;
  neptune::ham::NodeIndex from = 0, to = 0;
  uint64_t position = 0;
};

// Expected answer of linearizeAndFetch / getGraphQuery.
struct ExpectedGraph {
  std::vector<neptune::ham::NodeIndex> nodes;
  // (from, to) pairs for linearize; reference link ids for queries.
  std::vector<std::pair<neptune::ham::NodeIndex, neptune::ham::NodeIndex>>
      edges;
  std::vector<neptune::ham::LinkIndex> links;
};

// Deterministic section text and line edits.
std::string MakeLine(Rng& rng);
std::string MakeText(Rng& rng, int lines);
std::string EditText(Rng& rng, const std::string& text);

class Corpus {
 public:
  // Builds the corpus into an open graph. `ham` may be a local engine
  // or a remote one; the same seed always yields the same corpus.
  neptune::Status Build(neptune::ham::HamInterface* ham,
                        neptune::ham::Context ctx, const CorpusSpec& spec,
                        uint64_t seed);

  const NodeRecord& Node(neptune::ham::NodeIndex n) const {
    return records_[index_.at(n)];
  }
  const std::vector<NodeRecord>& records() const { return records_; }
  // Chapters and sections of the base documents (nodes with text).
  const std::vector<neptune::ham::NodeIndex>& text_nodes() const {
    return text_nodes_;
  }
  const std::vector<neptune::ham::NodeIndex>& roots() const { return roots_; }
  const std::vector<Reference>& references() const { return refs_; }
  // Sections of the "notes" document that only `writer` edits, and
  // those of the "targets" document it annotates. No other operation
  // reads their contents.
  const std::vector<neptune::ham::NodeIndex>& scratch(int writer) const {
    return scratch_[writer];
  }
  const std::vector<neptune::ham::NodeIndex>& targets(int writer) const {
    return targets_[writer];
  }
  uint64_t user_bytes() const { return user_bytes_; }
  // Time Build spent on the generator's own work (making and editing
  // text, reading back version times for its record), not in loading.
  int64_t own_ns() const { return own_ns_; }
  neptune::ham::AttributeIndex icon_attr() const { return icon_; }
  neptune::ham::AttributeIndex status_attr() const { return status_; }

  // Depth-first, offset-ordered outline of document `doc` following
  // isPartOf links, leaving out every draft node and its subtree (node
  // predicate `status != draft`).
  ExpectedGraph ExpectedOutline(size_t doc) const;
  // Nodes of document `name` (optionally only status = review) and
  // the reference links between two of them.
  ExpectedGraph ExpectedQuery(const std::string& name, bool review_only) const;
  std::string DocName(size_t doc) const { return "doc" + std::to_string(doc); }

 private:
  NodeRecord& MutableNode(neptune::ham::NodeIndex n) {
    return records_[index_.at(n)];
  }
  neptune::Result<neptune::ham::NodeIndex> AddTextNode(
      neptune::app::DocumentModel* model, neptune::ham::HamInterface* ham,
      neptune::ham::Context ctx, Rng* rng, neptune::ham::NodeIndex parent,
      const std::string& document, const std::string& title,
      const char* status, uint64_t position, int lines);
  void Record(NodeRecord record);

  std::vector<NodeRecord> records_;
  std::map<neptune::ham::NodeIndex, size_t> index_;
  std::map<neptune::ham::NodeIndex, std::vector<neptune::ham::NodeIndex>>
      children_;
  std::vector<neptune::ham::NodeIndex> text_nodes_;
  std::vector<neptune::ham::NodeIndex> roots_;
  std::vector<std::vector<neptune::ham::NodeIndex>> scratch_;
  std::vector<std::vector<neptune::ham::NodeIndex>> targets_;
  std::vector<Reference> refs_;
  neptune::ham::AttributeIndex icon_ = 0, status_ = 0;
  uint64_t user_bytes_ = 0;
  int64_t own_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
