#include "workload.h"

#include <algorithm>

#include "checks.h"

namespace perfbench {

using neptune::Status;
using neptune::ham::NodeIndex;
using neptune::rpc::RemoteHam;

const char kOutlineLinkPred[] = "relation = isPartOf";
const char kSkipDraftsPred[] = "status != draft";
const char kReferencePred[] = "relation = references";

std::string DocQueryPred(const std::string& doc, bool review_only) {
  return "document = " + doc + (review_only ? " & status = review" : "");
}

const char* OpName(OpKind kind) {
  static const char* const kNames[kNumOpKinds] = {
      "open_node",    "linearize_fetch", "query",
      "follow_ref",   "version_read",    "node_diff",
      "node_versions", "annotate_txn",   "edit_txn"};
  return kNames[static_cast<int>(kind)];
}

namespace {

// Corpus sizes are documented in README.md; keep the two in step.
const WorkloadSpec kWorkloads[] = {
    {"browse",
     {/*docs=*/12, /*chapters=*/5, /*sections_per_chapter=*/6, /*lines=*/24,
      /*versions=*/3, /*writers=*/1, /*scratch_per_writer=*/64,
      /*targets_per_writer=*/128},
     {{OpKind::kOpenNode, 90},
      {OpKind::kLinearizeFetch, 24},
      {OpKind::kQuery, 60},
      {OpKind::kFollowRef, 90},
      {OpKind::kVersionRead, 15},
      {OpKind::kNodeDiff, 9},
      {OpKind::kNodeVersions, 6},
      {OpKind::kAnnotate, 1},
      {OpKind::kEdit, 1}},
     /*query_after_write=*/false,
     /*warmup_rounds=*/7},
    {"history",
     {/*docs=*/8, /*chapters=*/6, /*sections_per_chapter=*/6, /*lines=*/40,
      /*versions=*/40, /*writers=*/1, /*scratch_per_writer=*/64,
      /*targets_per_writer=*/128},
     {{OpKind::kVersionRead, 150},
      {OpKind::kNodeDiff, 75},
      {OpKind::kNodeVersions, 30},
      {OpKind::kOpenNode, 18},
      {OpKind::kLinearizeFetch, 6},
      {OpKind::kQuery, 12},
      {OpKind::kFollowRef, 3},
      {OpKind::kAnnotate, 1},
      {OpKind::kEdit, 1}},
     /*query_after_write=*/false,
     /*warmup_rounds=*/7},
    {"annotate",
     {/*docs=*/4, /*chapters=*/4, /*sections_per_chapter=*/4, /*lines=*/48,
      /*versions=*/3, /*writers=*/2, /*scratch_per_writer=*/256,
      /*targets_per_writer=*/512},
     {{OpKind::kAnnotate, 4},
      {OpKind::kEdit, 4},
      {OpKind::kOpenNode, 1},
      {OpKind::kLinearizeFetch, 1},
      {OpKind::kFollowRef, 1},
      {OpKind::kVersionRead, 1},
      {OpKind::kNodeDiff, 1},
      {OpKind::kNodeVersions, 1}},
     /*query_after_write=*/true,
     /*warmup_rounds=*/20},
};

}  // namespace

bool IsConjunction(Rng* rng) { return rng->Below(4) != 0; }

size_t RecentVersion(Rng* rng, size_t versions) {
  return versions - 1 - rng->Geometric(0.08, versions - 1);
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

void ClientStats::Merge(const ClientStats& other) {
  for (int k = 0; k < kNumOpKinds; ++k) {
    latency_us[k].insert(latency_us[k].end(), other.latency_us[k].begin(),
                         other.latency_us[k].end());
  }
  rounds += other.rounds;
  ops += other.ops;
  failed += other.failed;
  mismatches += other.mismatches;
  busy_us += other.busy_us;
  commits += other.commits;
  user_bytes_written += other.user_bytes_written;
  explained_queries += other.explained_queries;
  candidates += other.candidates;
  residual_evals += other.residual_evals;
  matched += other.matched;
  applied_deltas += other.applied_deltas;
  ping_us.insert(ping_us.end(), other.ping_us.begin(), other.ping_us.end());
}

Client::Client(int id, const WorkloadSpec& spec, RemoteHam* remote,
               neptune::ham::Context ctx, const Corpus* corpus,
               uint64_t seed)
    : id_(id),
      spec_(spec),
      remote_(remote),
      ctx_(ctx),
      corpus_(corpus),
      rng_(seed * 0x9e3779b97f4a7c15ull + 1000003ull * (id + 1)),
      tap_(remote, &recorder_, Layer::kRpc),
      model_(&tap_, ctx) {
  for (const auto& [kind, count] : spec.round) {
    for (int i = 0; i < count; ++i) order_.push_back(kind);
  }
  for (size_t i = order_.size(); i > 1; --i) {
    std::swap(order_[i - 1], order_[rng_.Below(i)]);
  }
  for (size_t d = 0; d < corpus->roots().size(); ++d) {
    fetch_expect_.push_back(MakeExpectedFetch(*corpus, d));
    for (int review = 0; review < 2; ++review) {
      query_expect_[review].push_back(
          corpus->ExpectedQuery(corpus->DocName(d), review));
    }
  }
  scratch_expect_ = corpus->ExpectedQuery("notes", true);
  for (const Reference& ref : corpus->references()) {
    refs_from_[ref.from].push_back(ref);
  }
  for (NodeIndex node : corpus->scratch(id)) {
    scratch_text_.push_back(corpus->Node(node).texts.back());
  }
  const Status init = model_.Init();
  if (!init.ok()) Note("DocumentModel::Init: " + init.ToString());
}

void Client::set_traced(bool on) {
  traced_ = on;
  recorder_.set_enabled(on);
}

void Client::Note(const std::string& what) {
  if (errors_.size() < 20) {
    errors_.push_back("client " + std::to_string(id_) + ": " + what);
  }
}

void Client::RunRound() {
  if (traced_) {
    tap_.CountExtraCall();
    const int64_t t0 = NowNs();
    Status ping;
    {
      ScopedSpan span(&recorder_, "Ping", Layer::kRpc);
      ping = remote_->Ping();
    }
    stats_.ping_us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
    if (!ping.ok()) Note("ping: " + ping.ToString());
  }
  ++stats_.rounds;
  for (OpKind kind : order_) {
    RunOp(kind);
    if (spec_.query_after_write &&
        (kind == OpKind::kAnnotate || kind == OpKind::kEdit)) {
      RunOp(OpKind::kQuery);
    }
  }
}

void Client::RunOp(OpKind kind) {
  recorder_.set_op(++op_seq_);
  std::string mismatch;
  const bool after_write = spec_.query_after_write && kind == OpKind::kQuery;
  Status status;
  switch (kind) {
    case OpKind::kOpenNode: status = OpenNode(&mismatch); break;
    case OpKind::kLinearizeFetch: status = LinearizeFetch(&mismatch); break;
    case OpKind::kQuery: status = Query(after_write, &mismatch); break;
    case OpKind::kFollowRef: status = FollowRef(&mismatch); break;
    case OpKind::kVersionRead: status = VersionRead(&mismatch); break;
    case OpKind::kNodeDiff: status = NodeDiff(&mismatch); break;
    case OpKind::kNodeVersions: status = NodeVersions(&mismatch); break;
    case OpKind::kAnnotate: status = Annotate(&mismatch); break;
    case OpKind::kEdit: status = Edit(&mismatch); break;
  }
  ++stats_.ops;
  if (!status.ok()) {
    ++stats_.failed;
    Note(std::string(OpName(kind)) + " failed: " + status.ToString());
  } else if (!mismatch.empty()) {
    ++stats_.mismatches;
    Note(std::string(OpName(kind)) + ": " + mismatch);
  }
}

namespace {

// Times the call `fn` under a root span and records its latency.
template <typename Fn>
auto Timed(SpanRecorder* rec, ClientStats* stats, OpKind kind, Fn&& fn) {
  const int64_t t0 = NowNs();
  auto result = [&] {
    ScopedSpan span(rec, OpName(kind), Layer::kApp);
    return fn();
  }();
  const double us = static_cast<double>(NowNs() - t0) / 1000.0;
  stats->latency_us[static_cast<int>(kind)].push_back(us);
  stats->busy_us += us;
  return result;
}

}  // namespace

Status Client::OpenNode(std::string* mismatch) {
  const auto& nodes = corpus_->text_nodes();
  const NodeIndex node = nodes[rng_.Below(nodes.size())];
  const NodeRecord& rec = corpus_->Node(node);
  auto got = Timed(&recorder_, &stats_, OpKind::kOpenNode, [&] {
    return tap_.OpenNode(ctx_, node, 0,
                         {corpus_->icon_attr(), corpus_->status_attr()});
  });
  if (!got.ok()) return got.status();
  auto refs = refs_from_.find(node);
  *mismatch = CheckOpenNode(
      rec.texts.back(), {rec.title, rec.status},
      refs == refs_from_.end() ? std::vector<Reference>() : refs->second, *got);
  last_open_ = std::move(*got);
  return Status::OK();
}

Status Client::LinearizeFetch(std::string* mismatch) {
  const size_t doc = rng_.Below(corpus_->roots().size());
  auto got = Timed(&recorder_, &stats_, OpKind::kLinearizeFetch, [&] {
    tap_.CountExtraCall();
    ScopedSpan span(&recorder_, "LinearizeAndFetch", Layer::kRpc);
    return remote_->LinearizeAndFetch(
        ctx_, corpus_->roots()[doc], 0, kSkipDraftsPred,
        kOutlineLinkPred, {corpus_->icon_attr()}, {});
  });
  if (!got.ok()) return got.status();
  *mismatch = CheckFetch(fetch_expect_[doc], *got);
  last_fetch_ = std::move(*got);
  return Status::OK();
}

Status Client::Query(bool scratch, std::string* mismatch) {
  size_t doc = 0;
  bool review = true;
  std::string pred;
  if (scratch) {
    pred = DocQueryPred("notes", true);
  } else {
    doc = rng_.Below(corpus_->roots().size());
    review = IsConjunction(&rng_);
    pred = DocQueryPred(corpus_->DocName(doc), review);
  }
  const ExpectedGraph& expected =
      scratch ? scratch_expect_ : query_expect_[review][doc];
  if (traced_) {
    auto got = Timed(&recorder_, &stats_, OpKind::kQuery, [&] {
      return tap_.GetGraphQueryExplained(ctx_, 0, pred, kReferencePred, {}, {},
                                         neptune::ham::QueryOptions());
    });
    if (!got.ok()) return got.status();
    ++stats_.explained_queries;
    stats_.candidates += got->plan.candidates;
    stats_.residual_evals += got->plan.residual_evals;
    stats_.matched += got->plan.nodes_matched;
    stats_.applied_deltas += got->plan.applied_deltas;
    *mismatch = CheckQuery(expected, got->graph);
    return Status::OK();
  }
  auto got = Timed(&recorder_, &stats_, OpKind::kQuery, [&] {
    return tap_.GetGraphQuery(ctx_, 0, pred, kReferencePred, {}, {});
  });
  if (!got.ok()) return got.status();
  *mismatch = CheckQuery(expected, *got);
  return Status::OK();
}

Status Client::FollowRef(std::string* mismatch) {
  const auto& refs = corpus_->references();
  const Reference& ref = refs[rng_.Below(refs.size())];
  const NodeRecord& target = corpus_->Node(ref.to);
  neptune::ham::NodeIndex reached = 0;
  auto got = Timed(&recorder_, &stats_, OpKind::kFollowRef,
                   [&]() -> neptune::Result<neptune::ham::OpenNodeResult> {
                     NEPTUNE_ASSIGN_OR_RETURN(
                         neptune::ham::LinkEndResult end,
                         tap_.GetToNode(ctx_, ref.link, 0));
                     reached = end.node;
                     return tap_.OpenNode(ctx_, end.node, 0,
                                          {corpus_->icon_attr()});
                   });
  if (!got.ok()) return got.status();
  if (reached != ref.to) {
    *mismatch = "reference " + std::to_string(ref.link) + " leads to node " +
                std::to_string(reached);
    return Status::OK();
  }
  *mismatch = CheckOpenNode(target.texts.back(), {target.title}, {}, *got);
  return Status::OK();
}

Status Client::VersionRead(std::string* mismatch) {
  const auto& nodes = corpus_->text_nodes();
  const NodeRecord& rec = corpus_->Node(nodes[rng_.Below(nodes.size())]);
  const size_t k = RecentVersion(&rng_, rec.texts.size());
  auto got = Timed(&recorder_, &stats_, OpKind::kVersionRead, [&] {
    return tap_.OpenNode(ctx_, rec.node, rec.times[k], {});
  });
  if (!got.ok()) return got.status();
  if (got->contents != rec.texts[k]) {
    *mismatch = "node " + std::to_string(rec.node) + " at time " +
                std::to_string(rec.times[k]) +
                " differs from the generator's version " + std::to_string(k);
  }
  return Status::OK();
}

Status Client::NodeDiff(std::string* mismatch) {
  const auto& nodes = corpus_->text_nodes();
  const NodeRecord& rec = corpus_->Node(nodes[rng_.Below(nodes.size())]);
  const size_t last = rec.texts.size() - 1;
  const size_t older = std::min(RecentVersion(&rng_, rec.texts.size()), last - 1);
  const size_t newer = std::min(older + 1 + rng_.Below(3), last);
  auto got = Timed(&recorder_, &stats_, OpKind::kNodeDiff, [&] {
    return tap_.GetNodeDifferences(ctx_, rec.node, rec.times[older],
                                   rec.times[newer]);
  });
  if (!got.ok()) return got.status();
  *mismatch = CheckDifferences(rec.texts[older], rec.texts[newer], *got);
  return Status::OK();
}

Status Client::NodeVersions(std::string* mismatch) {
  const auto& nodes = corpus_->text_nodes();
  const NodeRecord& rec = corpus_->Node(nodes[rng_.Below(nodes.size())]);
  auto got = Timed(&recorder_, &stats_, OpKind::kNodeVersions,
                   [&] { return tap_.GetNodeVersions(ctx_, rec.node); });
  if (!got.ok()) return got.status();
  *mismatch = CheckVersions(rec, *got);
  return Status::OK();
}

Status Client::Annotate(std::string* mismatch) {
  const auto& targets = corpus_->targets(id_);
  const NodeRecord& target = corpus_->Node(targets[rng_.Below(targets.size())]);
  Annotation note;
  note.text = "note w" + std::to_string(id_) + " #" +
              std::to_string(annotations_.size()) + ": " + MakeLine(rng_) +
              "\n";
  const uint64_t position = rng_.Below(target.texts.back().size());
  auto got = Timed(&recorder_, &stats_, OpKind::kAnnotate, [&] {
    return model_.Annotate(target.node, position, note.text);
  });
  if (!got.ok()) return got.status();
  ++stats_.commits;
  stats_.user_bytes_written += note.text.size();
  note.node = *got;
  if (note.node == 0 || (!annotations_.empty() &&
                         note.node == annotations_.back().node)) {
    *mismatch = "annotate returned node " + std::to_string(note.node);
  }
  annotations_.push_back(std::move(note));
  return Status::OK();
}

Status Client::Edit(std::string* mismatch) {
  (void)mismatch;  // checked by the read-back after the restart
  const auto& scratch = corpus_->scratch(id_);
  const size_t pick = rng_.Below(scratch.size());
  EditRecord edit;
  edit.node = scratch[pick];
  edit.text = EditText(rng_, scratch_text_[pick]);
  edit.explanation =
      "w" + std::to_string(id_) + " e" + std::to_string(edits_.size());
  const Status status = Timed(&recorder_, &stats_, OpKind::kEdit, [&] {
    return model_.EditSection(edit.node, edit.text, edit.explanation);
  });
  if (!status.ok()) return status;
  ++stats_.commits;
  stats_.user_bytes_written += edit.text.size();
  scratch_text_[pick] = edit.text;
  edits_.push_back(std::move(edit));
  return Status::OK();
}

}  // namespace perfbench
