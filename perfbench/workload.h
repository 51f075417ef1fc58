// The three workloads and the closed-loop client that drives them.
//
// Every client runs whole rounds: a fixed list of operations, in an
// order shuffled once per client from the seed. One client per
// connection; `browse` and `history` use one client, `annotate` two
// writer clients on the same graph, which take turns round by round in
// one thread. Each operation is timed on its own and checked against
// the generator's record (checks.h) outside the timed interval.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <array>
#include <map>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "app/document.h"
#include "checks.h"
#include "corpus.h"
#include "rpc/remote_ham.h"
#include "tracing.h"

namespace perfbench {

enum class OpKind : uint8_t {
  kOpenNode,        // current version with icon + status attributes
  kLinearizeFetch,  // a document outline with contents, one round trip
  kQuery,           // equality or conjunction getGraphQuery
  kFollowRef,       // getToNode of a reference, then openNode its target
  kVersionRead,     // openNode at a past time, skewed toward recent
  kNodeDiff,        // getNodeDifferences between nearby versions
  kNodeVersions,    // getNodeVersions
  kAnnotate,        // DocumentModel::Annotate: one transaction
  kEdit,            // DocumentModel::EditSection: a new content version
};
constexpr int kNumOpKinds = 9;
const char* OpName(OpKind kind);

struct WorkloadSpec {
  const char* name;
  CorpusSpec corpus;
  // Operations of one round of one client, by kind and count.
  std::vector<std::pair<OpKind, int>> round;
  // Runs an extra kQuery (on the writer's own scratch document) right
  // after every write, so index maintenance lands on the next read.
  bool query_after_write = false;
  int warmup_rounds = 0;
};

// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// Whether a document query is the conjunction (3 in 4) rather than the
// equality alone. An even mix of two answer sizes would put the median
// on the boundary between them, where it jumps from run to run.
bool IsConjunction(Rng* rng);

// Index of one of `versions` versions, counted back from the newest and
// skewed toward recent ones: P(back = k) falls geometrically.
size_t RecentVersion(Rng* rng, size_t versions);

// Per-client results; merged across clients at the end of a run.
struct ClientStats {
  std::array<std::vector<double>, kNumOpKinds> latency_us;
  uint64_t rounds = 0;            // client rounds
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  double busy_us = 0;             // time inside operations
  uint64_t commits = 0;           // acknowledged transactions
  uint64_t user_bytes_written = 0;
  // Sum of the plan counters of explained queries (traced rounds only).
  uint64_t explained_queries = 0, candidates = 0, residual_evals = 0,
           matched = 0, applied_deltas = 0;
  std::vector<double> ping_us;    // traced rounds only
  void Merge(const ClientStats& other);
};

// What a client wrote and had acknowledged, kept for the final
// read-back after the server is killed and restarted.
struct Annotation {
  neptune::ham::NodeIndex node = 0;
  std::string text;
};
struct EditRecord {
  neptune::ham::NodeIndex node = 0;
  std::string explanation;
  std::string text;
};

class Client {
 public:
  // `remote` is this client's own connection; `corpus` is shared by
  // all clients and read-only. Writer `id` edits and annotates only
  // its own scratch and target nodes.
  Client(int id, const WorkloadSpec& spec, neptune::rpc::RemoteHam* remote,
         neptune::ham::Context ctx, const Corpus* corpus, uint64_t seed);

  // Runs one round.
  void RunRound();

  // Tracing: spans go to recorder(); explained queries replace plain
  // ones (their plan counters feed the query layer) and a ping is
  // timed once per round.
  void set_traced(bool on);
  SpanRecorder* recorder() { return &recorder_; }

  int id() const { return id_; }
  const ClientStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ClientStats(); }
  uint64_t calls() const { return tap_.calls(); }
  const std::vector<Annotation>& annotations() const { return annotations_; }
  const std::vector<EditRecord>& edits() const { return edits_; }
  const std::vector<std::string>& errors() const { return errors_; }
  // Last linearizeAndFetch answer and openNode answer, for the wire
  // codec replays.
  const neptune::rpc::RemoteHam::LinearizeAndFetchResult& last_fetch() const {
    return last_fetch_;
  }
  const neptune::ham::OpenNodeResult& last_open() const { return last_open_; }

 private:
  void RunOp(OpKind kind);
  // Each sets *mismatch when the answer is wrong; an error status
  // counts as a failed operation.
  neptune::Status OpenNode(std::string* mismatch);
  neptune::Status LinearizeFetch(std::string* mismatch);
  neptune::Status Query(bool scratch, std::string* mismatch);
  neptune::Status FollowRef(std::string* mismatch);
  neptune::Status VersionRead(std::string* mismatch);
  neptune::Status NodeDiff(std::string* mismatch);
  neptune::Status NodeVersions(std::string* mismatch);
  neptune::Status Annotate(std::string* mismatch);
  neptune::Status Edit(std::string* mismatch);
  void Note(const std::string& what);

  const int id_;
  const WorkloadSpec& spec_;
  neptune::rpc::RemoteHam* remote_;
  neptune::ham::Context ctx_;
  const Corpus* corpus_;
  Rng rng_;
  SpanRecorder recorder_;
  TapHam tap_;
  neptune::app::DocumentModel model_;
  std::vector<OpKind> order_;
  bool traced_ = false;
  ClientStats stats_;
  std::vector<Annotation> annotations_;
  std::vector<EditRecord> edits_;
  std::vector<std::string> scratch_text_;  // current text per scratch node
  std::vector<std::string> errors_;
  uint64_t op_seq_ = 0;
  neptune::rpc::RemoteHam::LinearizeAndFetchResult last_fetch_;
  neptune::ham::OpenNodeResult last_open_;
  // Expected answers computed once.
  std::vector<ExpectedFetch> fetch_expect_;  // per document
  std::vector<ExpectedGraph> query_expect_[2];
  ExpectedGraph scratch_expect_;
  std::map<neptune::ham::NodeIndex, std::vector<Reference>> refs_from_;
};

// Node and link predicates the operations use.
extern const char kOutlineLinkPred[];
extern const char kSkipDraftsPred[];
std::string DocQueryPred(const std::string& doc, bool review_only);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
