#include "layers.h"

#include <cstring>
#include <thread>

#include "app/document.h"
#include "delta/recon_cache.h"
#include "delta/text_diff.h"
#include "delta/version_chain.h"
#include "ham/ham.h"
#include "query/predicate.h"
#include "rpc/wire.h"
#include "storage/env.h"
#include "storage/wal.h"

namespace perfbench {

using neptune::Result;
using neptune::Status;
using neptune::ham::Context;
using neptune::ham::Ham;
using neptune::ham::HamOptions;
using neptune::ham::NodeIndex;

namespace {

constexpr int kReadReplays = 2000;
constexpr int kLinearizeReplays = 400;
constexpr int kCodecReplays = 2000;
constexpr int kAnnotateReplays = 300;  // per writer thread, per engine
constexpr int kFsyncReplays = 200;
constexpr size_t kChainNodes = 32;

std::vector<double> DurationsUs(const SpanRecorder& rec, const char* name) {
  std::vector<double> out;
  for (const SpanRecord& s : rec.spans()) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    }
  }
  return out;
}

SpanRecorder* NewRecorder(std::vector<std::unique_ptr<SpanRecorder>>* recs) {
  recs->push_back(std::make_unique<SpanRecorder>());
  recs->back()->set_enabled(true);
  return recs->back().get();
}

Result<Context> OpenFreshGraph(Ham* ham, const std::string& dir) {
  NEPTUNE_ASSIGN_OR_RETURN(neptune::ham::CreateGraphResult created,
                           ham->CreateGraph(dir, 0755));
  return ham->OpenGraph(created.project, "local", dir);
}

// The read paths against an in-process engine holding the same corpus.
Status ReplayHamReads(const LayerInputs& in, SpanRecorder* rec,
                      std::map<std::string, double>* m) {
  HamOptions options;
  options.sync_commits = false;  // loading only; nothing here commits later
  Ham ham(neptune::Env::Default(), options);
  NEPTUNE_ASSIGN_OR_RETURN(Context ctx,
                           OpenFreshGraph(&ham, in.work_dir + "/replica"));
  Corpus replica;
  NEPTUNE_RETURN_IF_ERROR(replica.Build(&ham, ctx, in.spec->corpus, in.seed));
  if (replica.text_nodes() != in.corpus->text_nodes() ||
      replica.references().size() != in.corpus->references().size()) {
    return Status::Corruption("in-process replica differs from the corpus");
  }
  TapHam tap(&ham, rec, Layer::kHam);
  Rng rng(in.seed ^ 0x5eed);
  const auto& nodes = replica.text_nodes();
  const std::vector<neptune::ham::AttributeIndex> attrs = {
      replica.icon_attr(), replica.status_attr()};
  for (int i = 0; i < kReadReplays; ++i) {
    ScopedSpan root(rec, "replay.open_node", Layer::kApp);
    NEPTUNE_RETURN_IF_ERROR(
        tap.OpenNode(ctx, nodes[rng.Below(nodes.size())], 0, attrs).status());
  }
  for (int i = 0; i < kLinearizeReplays; ++i) {
    const size_t doc = rng.Below(replica.roots().size());
    ScopedSpan root(rec, "replay.linearize", Layer::kApp);
    NEPTUNE_RETURN_IF_ERROR(
        tap.LinearizeGraph(ctx, replica.roots()[doc], 0,
                           kSkipDraftsPred, kOutlineLinkPred,
                           {replica.icon_attr()}, {})
            .status());
  }
  for (int i = 0; i < kReadReplays; ++i) {
    const std::string pred =
        in.spec->query_after_write
            ? DocQueryPred("notes", true)
            : DocQueryPred(replica.DocName(rng.Below(replica.roots().size())),
                           IsConjunction(&rng));
    ScopedSpan root(rec, "replay.query", Layer::kApp);
    NEPTUNE_RETURN_IF_ERROR(
        tap.GetGraphQuery(ctx, 0, pred, "relation = references", {}, {})
            .status());
  }
  (*m)["ham.open_node_us"] = Median(DurationsUs(*rec, "OpenNode"));
  (*m)["ham.linearize_us"] = Median(DurationsUs(*rec, "LinearizeGraph"));
  (*m)["ham.query_us"] = Median(DurationsUs(*rec, "GetGraphQuery"));
  return ham.CloseGraph(ctx);
}

// The paper's annotate command on a small fresh graph, from as many
// threads as the workload has writers: once with fsync per commit and
// once without, so the difference is the fsync share.
Status ReplayAnnotate(const LayerInputs& in, bool sync,
                      std::vector<std::unique_ptr<SpanRecorder>>* recs,
                      std::map<std::string, double>* m) {
  HamOptions options;
  options.sync_commits = sync;
  Ham ham(neptune::Env::Default(), options);
  const std::string dir =
      in.work_dir + (sync ? "/annotate-sync" : "/annotate-nosync");
  NEPTUNE_ASSIGN_OR_RETURN(Context setup_ctx, OpenFreshGraph(&ham, dir));
  neptune::app::DocumentModel setup(&ham, setup_ctx);
  NEPTUNE_RETURN_IF_ERROR(setup.Init());
  NEPTUNE_ASSIGN_OR_RETURN(NodeIndex root, setup.CreateDocument("notes", "N"));
  Rng rng(in.seed ^ 0xa11);
  std::vector<NodeIndex> targets;
  for (int i = 0; i < 8; ++i) {
    NEPTUNE_ASSIGN_OR_RETURN(
        NodeIndex target,
        setup.AddSection(root, "notes", "t" + std::to_string(i),
                         MakeText(rng, in.spec->corpus.lines), 16 * (i + 1)));
    targets.push_back(target);
  }
  NEPTUNE_ASSIGN_OR_RETURN(neptune::ham::ProjectId project,
                           Ham::ReadProjectId(neptune::Env::Default(), dir));
  const int writers = in.spec->corpus.writers;
  std::vector<SpanRecorder*> thread_recs;
  std::vector<Status> results(writers);
  for (int w = 0; w < writers; ++w) thread_recs.push_back(NewRecorder(recs));
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      results[w] = [&]() -> Status {
        NEPTUNE_ASSIGN_OR_RETURN(Context ctx,
                                 ham.OpenGraph(project, "local", dir));
        TapHam tap(&ham, thread_recs[w], Layer::kHam);
        neptune::app::DocumentModel model(&tap, ctx);
        NEPTUNE_RETURN_IF_ERROR(model.Init());
        Rng local(in.seed + 77 * (w + 1));
        for (int i = 0; i < kAnnotateReplays; ++i) {
          ScopedSpan span(thread_recs[w], "replay.annotate", Layer::kApp);
          NEPTUNE_RETURN_IF_ERROR(
              model
                  .Annotate(targets[local.Below(targets.size())],
                            local.Below(64), MakeLine(local))
                  .status());
        }
        return ham.CloseGraph(ctx);
      }();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : results) NEPTUNE_RETURN_IF_ERROR(s);
  std::vector<double> txn, begin;
  for (SpanRecorder* rec : thread_recs) {
    for (double us : DurationsUs(*rec, "replay.annotate")) txn.push_back(us);
    for (double us : DurationsUs(*rec, "BeginTransaction")) begin.push_back(us);
  }
  if (sync) {
    (*m)["ham.annotate_txn_us"] = Median(txn);
    (*m)["ham.begin_wait_p50_us"] = Median(begin);
  } else {
    (*m)["ham.annotate_txn_nosync_us"] = Median(txn);
  }
  return ham.CloseGraph(setup_ctx);
}

Status ReplayQueryCompile(const LayerInputs& in, SpanRecorder* rec,
                          std::map<std::string, double>* m) {
  const std::string pred = in.spec->query_after_write
                               ? DocQueryPred("notes", true)
                               : DocQueryPred(in.corpus->DocName(0), true);
  for (int i = 0; i < kCodecReplays; ++i) {
    ScopedSpan span(rec, "Predicate::Compile", Layer::kQuery);
    NEPTUNE_ASSIGN_OR_RETURN(neptune::query::Predicate parsed,
                             neptune::query::Predicate::Parse(pred));
    neptune::query::CompiledPredicate compiled =
        neptune::query::CompiledPredicate::Compile(parsed);
    if (compiled.IsTriviallyFalse()) return Status::Corruption("bad predicate");
  }
  (*m)["query.compile_us"] = Median(DurationsUs(*rec, "Predicate::Compile"));
  return Status::OK();
}

// VersionChain reads and DiffLines on the generator's own versions.
// The reads run with the process-wide reconstruction cache off, so
// delta.version_get_us is the cost of reconstruction itself: these few
// chains would fit in the cache whole, while the server's history
// corpus is several times its size. How often the server's cache hits
// is delta.cache_hit_ratio, from the server's own counters.
Status ReplayDelta(const LayerInputs& in, SpanRecorder* rec,
                   std::map<std::string, double>* m) {
  struct CacheOff {
    neptune::delta::ReconstructionCache& cache =
        neptune::delta::ReconstructionCache::Instance();
    const size_t bytes = cache.capacity_bytes();
    CacheOff() { cache.set_capacity_bytes(0); }
    ~CacheOff() { cache.set_capacity_bytes(bytes); }
  } cache_off;
  const auto& nodes = in.corpus->text_nodes();
  const size_t count = std::min(kChainNodes, nodes.size());
  std::vector<neptune::delta::VersionChain> chains(count);
  uint64_t stored = 0, user = 0;
  for (size_t i = 0; i < count; ++i) {
    const NodeRecord& rec_i = in.corpus->Node(nodes[i]);
    chains[i].set_keyframe_interval(HamOptions().keyframe_interval);
    for (size_t k = 0; k < rec_i.texts.size(); ++k) {
      NEPTUNE_RETURN_IF_ERROR(
          chains[i].Append(rec_i.times[k], rec_i.texts[k], ""));
      user += rec_i.texts[k].size();
    }
    stored += chains[i].StoredBytes();
  }
  Rng rng(in.seed ^ 0xde17a);
  for (int i = 0; i < kReadReplays; ++i) {
    const size_t c = rng.Below(count);
    const NodeRecord& r = in.corpus->Node(nodes[c]);
    const size_t k = RecentVersion(&rng, r.texts.size());
    std::string got;
    {
      ScopedSpan span(rec, "VersionChain::Get", Layer::kDelta);
      NEPTUNE_ASSIGN_OR_RETURN(got, chains[c].Get(r.times[k]));
    }
    if (got != r.texts[k]) return Status::Corruption("VersionChain replay");
  }
  size_t hunks = 0;
  for (int i = 0; i < kReadReplays / 2; ++i) {
    const NodeRecord& r = in.corpus->Node(nodes[rng.Below(count)]);
    const size_t older = rng.Below(r.texts.size() - 1);
    const size_t newer = std::min(older + 1 + rng.Below(3), r.texts.size() - 1);
    ScopedSpan span(rec, "DiffLines", Layer::kDelta);
    hunks += neptune::delta::DiffLines(r.texts[older], r.texts[newer]).size();
  }
  if (hunks == 0) return Status::Corruption("DiffLines found no differences");
  (*m)["delta.version_get_us"] = Median(DurationsUs(*rec, "VersionChain::Get"));
  (*m)["delta.diff_lines_us"] = Median(DurationsUs(*rec, "DiffLines"));
  (*m)["delta.stored_bytes_per_user_byte"] =
      user == 0 ? 0.0 : static_cast<double>(stored) / static_cast<double>(user);
  return Status::OK();
}

// The wire codecs on answers the remote run received.
Status ReplayWire(const LayerInputs& in, SpanRecorder* rec,
                  std::map<std::string, double>* m) {
  namespace wire = neptune::rpc;
  std::string graph_bytes;
  wire::EncodeSubGraphTo(in.fetch->graph, &graph_bytes);
  for (int i = 0; i < kCodecReplays; ++i) {
    neptune::ham::SubGraph decoded;
    std::string_view view = graph_bytes;
    ScopedSpan span(rec, "DecodeSubGraphFrom", Layer::kWire);
    if (!wire::DecodeSubGraphFrom(&view, &decoded)) {
      return Status::Corruption("subgraph decode replay");
    }
  }
  for (int i = 0; i < kCodecReplays; ++i) {
    ScopedSpan span(rec, "OpenNodeResultCodec", Layer::kWire);
    std::string bytes;
    wire::EncodeOpenNodeResultTo(*in.open, &bytes);
    neptune::ham::OpenNodeResult decoded;
    std::string_view view = bytes;
    if (!wire::DecodeOpenNodeResultFrom(&view, &decoded)) {
      return Status::Corruption("openNode codec replay");
    }
  }
  // A linearizeAndFetch-sized reply through framing and the decoder.
  std::string payload = graph_bytes;
  for (const auto& item : in.fetch->contents) payload += item.contents;
  for (int i = 0; i < kCodecReplays / 4; ++i) {
    ScopedSpan span(rec, "FrameRoundTrip", Layer::kWire);
    const std::string frame = wire::FramePayload(payload);
    wire::FrameDecoder decoder;
    std::vector<std::string> out;
    NEPTUNE_RETURN_IF_ERROR(decoder.Feed(frame, &out));
    if (out.size() != 1 || out[0].size() != payload.size()) {
      return Status::Corruption("frame replay");
    }
  }
  (*m)["wire.decode_subgraph_us"] =
      Median(DurationsUs(*rec, "DecodeSubGraphFrom"));
  (*m)["wire.open_node_codec_us"] =
      Median(DurationsUs(*rec, "OpenNodeResultCodec"));
  (*m)["wire.frame_us_per_kb"] = Median(DurationsUs(*rec, "FrameRoundTrip")) /
                                 (static_cast<double>(payload.size()) / 1024.0);
  return Status::OK();
}

// Synced appends through the WAL writer, on the same file system the
// server's data directory lives on.
Status ReplayFsync(const LayerInputs& in, SpanRecorder* rec,
                   std::map<std::string, double>* m) {
  NEPTUNE_ASSIGN_OR_RETURN(
      std::unique_ptr<neptune::WritableFile> file,
      neptune::Env::Default()->NewWritableFile(in.work_dir + "/fsync.log",
                                               true));
  neptune::LogWriter writer(std::move(file));
  const std::string record(300, 'r');
  for (int i = 0; i < kFsyncReplays; ++i) {
    ScopedSpan span(rec, "LogWriter::AddRecord", Layer::kStorage);
    NEPTUNE_RETURN_IF_ERROR(writer.AddRecord(record, /*sync=*/true));
  }
  NEPTUNE_RETURN_IF_ERROR(writer.Close());
  (*m)["storage.fsync_p50_us"] =
      Median(DurationsUs(*rec, "LogWriter::AddRecord"));
  return Status::OK();
}

}  // namespace

Status RunLayerReplays(const LayerInputs& in,
                       std::vector<std::unique_ptr<SpanRecorder>>* recorders,
                       std::map<std::string, double>* metrics) {
  NEPTUNE_RETURN_IF_ERROR(neptune::Env::Default()->CreateDir(in.work_dir));
  NEPTUNE_RETURN_IF_ERROR(ReplayHamReads(in, NewRecorder(recorders), metrics));
  NEPTUNE_RETURN_IF_ERROR(ReplayAnnotate(in, true, recorders, metrics));
  NEPTUNE_RETURN_IF_ERROR(ReplayAnnotate(in, false, recorders, metrics));
  NEPTUNE_RETURN_IF_ERROR(
      ReplayQueryCompile(in, NewRecorder(recorders), metrics));
  NEPTUNE_RETURN_IF_ERROR(ReplayDelta(in, NewRecorder(recorders), metrics));
  NEPTUNE_RETURN_IF_ERROR(ReplayWire(in, NewRecorder(recorders), metrics));
  return ReplayFsync(in, NewRecorder(recorders), metrics);
}

}  // namespace perfbench
