// Output checks. Each compares a server answer with the generator's
// own record (corpus.h) or tests a property the answer must have; an
// empty string means the answer is right, otherwise it says what is
// wrong. They are pure functions so the self-test can hand them a
// deliberately wrong expectation and see them fail.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "corpus.h"
#include "delta/text_diff.h"
#include "ham/types.h"
#include "rpc/remote_ham.h"

namespace perfbench {

// Expected linearizeAndFetch answer: outline plus each node's
// current text and icon title.
struct ExpectedFetch {
  ExpectedGraph outline;
  std::vector<std::string> contents;
  std::vector<std::string> titles;
};
ExpectedFetch MakeExpectedFetch(const Corpus& corpus, size_t doc);

std::string CheckFetch(
    const ExpectedFetch& expected,
    const neptune::rpc::RemoteHam::LinearizeAndFetchResult& got);

// Exact node and link sets of a query (order-insensitive).
std::string CheckQuery(const ExpectedGraph& expected,
                       const neptune::ham::SubGraph& got);

// openNode: contents, requested attribute values and the reference
// links that must leave this node at their offsets.
std::string CheckOpenNode(const std::string& text,
                          const std::vector<std::string>& attrs,
                          const std::vector<Reference>& refs_out,
                          const neptune::ham::OpenNodeResult& got);

// Applying `diffs` to `old_text` with the benchmark's own line applier
// must yield `new_text`; every hunk must also be consistent with the
// lines it claims to remove.
std::string CheckDifferences(const std::string& old_text,
                             const std::string& new_text,
                             const std::vector<neptune::delta::Difference>& diffs);

// getNodeVersions: the content versions are the generator's, in order,
// with its explanations and the times the writes reported.
std::string CheckVersions(const NodeRecord& record,
                          const neptune::ham::NodeVersions& got);

// Three independent counts of one quantity must agree.
std::string CheckCounts(const char* what, uint64_t a, uint64_t b, uint64_t c);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
