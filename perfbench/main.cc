// perfbench_load: drives one workload against a real neptune_server
// over loopback and prints one JSON result line.
//
//   perfbench_load --workload browse|history|annotate --seed N
//                  --seconds S --trace 0|1 --server PATH --work-dir DIR
//                  [--rounds R]
//
// Set-up: the corpus is generated from the seed and loaded into a fresh
// data directory by an in-process engine without fsync, then
// `neptune_server serve` starts on that directory and the clients
// connect and warm up. setup_s is the time from the start of this
// process to the end of the warm-up, less the benchmark's own work in
// it (generating text, keeping the generator's record, computing
// expected answers, checking the warm-up's answers). The clients then
// run whole rounds for S seconds (or exactly R rounds). Afterwards the
// run checks three independent counts of the writes, kills the server
// with SIGKILL, restarts it and reads every acknowledged write back.
// With --trace 1 the rounds alternate between untraced and traced, and
// in-process replays attribute time to the layers (layers.h); the
// result then holds the per-layer metrics instead of the end-to-end
// ones.

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "corpus.h"
#include "ham/ham.h"
#include "layers.h"
#include "rpc/remote_ham.h"
#include "server_process.h"
#include "storage/env.h"
#include "tracing.h"
#include "workload.h"

namespace perfbench {
namespace {

using neptune::MetricsSnapshot;
using neptune::Result;
using neptune::Status;
using neptune::ham::Context;
using neptune::ham::NodeIndex;
using neptune::rpc::RemoteHam;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string work_dir;
  int rounds = 0;  // > 0: run exactly this many rounds per client
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--server") {
      args->server = value;
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--rounds") {
      args->rounds = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->server.empty() &&
         !args->work_dir.empty() && args->seconds > 0;
}

std::string Absolute(const std::string& path) {
  if (!path.empty() && path[0] == '/') return path;
  char buf[4096];
  if (getcwd(buf, sizeof(buf)) == nullptr) return path;
  return std::string(buf) + "/" + path;
}

// Difference of one histogram between two snapshots.
neptune::HistogramSnapshot HistogramDelta(const MetricsSnapshot& before,
                                          const MetricsSnapshot& after,
                                          const std::string& name) {
  neptune::HistogramSnapshot out;
  auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return out;
  out = a->second;
  auto b = before.histograms.find(name);
  if (b == before.histograms.end()) return out;
  for (size_t i = 0; i < out.buckets.size() && i < b->second.buckets.size();
       ++i) {
    out.buckets[i] -= b->second.buckets[i];
  }
  out.count -= b->second.count;
  out.sum -= b->second.sum;
  return out;
}

uint64_t CounterDelta(const MetricsSnapshot& before,
                      const MetricsSnapshot& after, const std::string& name) {
  return after.CounterValue(name) - before.CounterValue(name);
}

// Mean latency of the operations other than queries (queries differ
// between the two sets of rounds of a traced run: traced rounds ask
// for plans).
double MeanNonQueryUs(const ClientStats& stats) {
  double sum = 0;
  size_t n = 0;
  for (int k = 0; k < kNumOpKinds; ++k) {
    if (k == static_cast<int>(OpKind::kQuery)) continue;
    for (double us : stats.latency_us[k]) sum += us;
    n += stats.latency_us[k].size();
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

struct Output {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

class Run {
 public:
  Run(const Args& args, const WorkloadSpec& spec, int64_t start_ns)
      : args_(args), spec_(spec), start_ns_(start_ns) {}
  // Takes the server down and removes the run's data, on every path.
  ~Run() {
    server_.Kill();
    if (!work_.empty()) neptune::Env::Default()->RemoveDirRecursive(work_);
  }

  // Returns false when the run could not be carried out at all (no
  // result is printed then).
  bool Execute(Output* out, bool* correct, uint64_t* attempted,
               uint64_t* failed);

 private:
  bool Fail(const std::string& what) {
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
    return false;
  }
  void Mismatch(const std::string& what) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    correct_ = false;
  }
  // With two or more usable CPUs, confines this process (the clients)
  // to one CPU and the server to another, the last two of the allowed
  // set, so that where the scheduler places the two ends of a round
  // trip cannot change between runs.
  void PinCpus();
  Status LoadCorpus();
  Status Connect(std::vector<std::unique_ptr<RemoteHam>>* remotes,
                 std::vector<Context>* contexts);
  // Runs whole rounds of every client, taking turns, until the deadline
  // (checked before each turn of all clients) or for `rounds` rounds,
  // and adds the clients' results to *untraced. With `traced` set, every
  // second round records spans and its results go to *traced instead,
  // so that drift over the run falls on both sets alike.
  void RunClients(int64_t deadline_ns, int rounds, ClientStats* untraced,
                  ClientStats* traced);
  // Annotation nodes and content versions of the scratch sections, as
  // the graph holds them.
  struct WriteCounts {
    uint64_t annotations = 0;
    uint64_t content_versions = 0;
  };
  neptune::Result<WriteCounts> CountWrites(RemoteHam* remote, Context ctx);
  void VerifyCounts(const MetricsSnapshot& before,
                    const MetricsSnapshot& after, uint64_t calls_between,
                    uint64_t acked_commits, const WriteCounts& graph_before,
                    const WriteCounts& graph_after);
  // SIGKILLs the server, restarts it on the same directory and reads
  // every acknowledged annotation and edit back.
  Status RestartAndReadBack();
  void EndToEnd(const ClientStats& all, Output* out);
  Status PerLayer(const ClientStats& untraced, const ClientStats& traced,
                  const MetricsSnapshot& before, const MetricsSnapshot& after,
                  Output* out);

  const Args& args_;
  const WorkloadSpec& spec_;
  const int64_t start_ns_;
  bool correct_ = true;
  std::string work_, data_root_, graph_dir_;
  neptune::ham::ProjectId project_ = 0;
  Corpus corpus_;
  ServerProcess server_;
  std::vector<std::unique_ptr<RemoteHam>> remotes_;
  std::vector<std::unique_ptr<Client>> clients_;
  double setup_s_ = 0;
  int64_t own_ns_ = 0;  // the benchmark's own work during set-up
  uint64_t calls_measured_ = 0;
};

void Run::PinCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return;
  cpu_set_t mine;
  CPU_ZERO(&mine);
  CPU_SET(cpus[cpus.size() - 2], &mine);
  if (sched_setaffinity(0, sizeof(mine), &mine) != 0) return;
  server_.set_cpus({cpus.back()});
}

Status Run::LoadCorpus() {
  neptune::ham::HamOptions options;
  options.sync_commits = false;  // a loader: the server reopens from disk
  neptune::ham::Ham loader(neptune::Env::Default(), options);
  NEPTUNE_ASSIGN_OR_RETURN(neptune::ham::CreateGraphResult created,
                           loader.CreateGraph(graph_dir_, 0755));
  project_ = created.project;
  NEPTUNE_ASSIGN_OR_RETURN(Context ctx,
                           loader.OpenGraph(project_, "local", graph_dir_));
  NEPTUNE_RETURN_IF_ERROR(corpus_.Build(&loader, ctx, spec_.corpus, args_.seed));
  NEPTUNE_RETURN_IF_ERROR(loader.Checkpoint(ctx));
  return loader.CloseGraph(ctx);
}

Status Run::Connect(std::vector<std::unique_ptr<RemoteHam>>* remotes,
                    std::vector<Context>* contexts) {
  for (int w = 0; w < spec_.corpus.writers; ++w) {
    NEPTUNE_ASSIGN_OR_RETURN(std::unique_ptr<RemoteHam> remote,
                             RemoteHam::Connect("127.0.0.1", server_.port()));
    NEPTUNE_ASSIGN_OR_RETURN(Context ctx,
                             remote->OpenGraph(project_, "local", graph_dir_));
    remotes->push_back(std::move(remote));
    contexts->push_back(ctx);
  }
  return Status::OK();
}

void Run::RunClients(int64_t deadline_ns, int rounds, ClientStats* untraced,
                     ClientStats* traced) {
  for (int round = 0; rounds <= 0 || round < rounds; ++round) {
    if (rounds <= 0 && NowNs() >= deadline_ns) break;
    const bool trace_round = traced != nullptr && round % 2 == 1;
    for (auto& client : clients_) {
      client->set_traced(trace_round);
      client->RunRound();
      if (traced != nullptr) {
        (trace_round ? traced : untraced)->Merge(client->stats());
        client->ResetStats();
      }
    }
  }
  for (auto& client : clients_) {
    client->set_traced(false);
    untraced->Merge(client->stats());
    client->ResetStats();
  }
}

Result<Run::WriteCounts> Run::CountWrites(RemoteHam* remote, Context ctx) {
  WriteCounts out;
  NEPTUNE_ASSIGN_OR_RETURN(
      neptune::ham::SubGraph notes,
      remote->GetGraphQuery(ctx, 0, "document = annotations", "false", {}, {}));
  out.annotations = notes.nodes.size();
  for (int w = 0; w < spec_.corpus.writers; ++w) {
    for (NodeIndex node : corpus_.scratch(w)) {
      NEPTUNE_ASSIGN_OR_RETURN(neptune::ham::NodeVersions versions,
                               remote->GetNodeVersions(ctx, node));
      out.content_versions += versions.major.size();
    }
  }
  return out;
}

void Run::VerifyCounts(const MetricsSnapshot& before,
                       const MetricsSnapshot& after, uint64_t calls_between,
                       uint64_t acked_commits, const WriteCounts& graph_before,
                       const WriteCounts& graph_after) {
  // Calls: the clients' own count against the server's request
  // counter. The server counts a statistics request before it takes
  // the snapshot, so the second request falls inside the difference
  // and the first does not.
  const uint64_t requests = CounterDelta(before, after, "rpc.requests");
  if (requests != calls_between + 1) {
    Mismatch("server counted " + std::to_string(requests) +
             " requests, the clients made " +
             std::to_string(calls_between + 1));
  }
  // Commits: acknowledged by the clients, counted by the server, and
  // found in the graph (new annotation nodes plus new content versions
  // of the scratch sections).
  const uint64_t committed = CounterDelta(before, after, "ham.txn.committed");
  const uint64_t found =
      (graph_after.annotations - graph_before.annotations) +
      (graph_after.content_versions - graph_before.content_versions);
  const std::string error = CheckCounts("commits (acked / server / found)",
                                        acked_commits, committed, found);
  if (!error.empty()) Mismatch(error);
}

Status Run::RestartAndReadBack() {
  server_.Kill();
  NEPTUNE_RETURN_IF_ERROR(
      server_.Start(args_.server, data_root_, work_ + "/server-restart"));
  NEPTUNE_ASSIGN_OR_RETURN(std::unique_ptr<RemoteHam> remote,
                           RemoteHam::Connect("127.0.0.1", server_.port()));
  NEPTUNE_ASSIGN_OR_RETURN(Context ctx,
                           remote->OpenGraph(project_, "local", graph_dir_));
  uint64_t annotations = 0;
  for (auto& client : clients_) {
    for (const Annotation& note : client->annotations()) {
      NEPTUNE_ASSIGN_OR_RETURN(neptune::ham::OpenNodeResult got,
                               remote->OpenNode(ctx, note.node, 0, {}));
      if (got.contents != note.text) {
        Mismatch("annotation node " + std::to_string(note.node) +
                 " reads back different text after the restart");
      }
      ++annotations;
    }
    std::map<NodeIndex, std::map<std::string, neptune::ham::Time>> times;
    for (NodeIndex node : corpus_.scratch(client->id())) {
      NEPTUNE_ASSIGN_OR_RETURN(neptune::ham::NodeVersions versions,
                               remote->GetNodeVersions(ctx, node));
      for (const auto& v : versions.major) {
        times[node][v.explanation] = v.time;
      }
    }
    for (const EditRecord& edit : client->edits()) {
      auto it = times[edit.node].find(edit.explanation);
      if (it == times[edit.node].end()) {
        Mismatch("acknowledged edit '" + edit.explanation +
                 "' is missing after the restart");
        continue;
      }
      NEPTUNE_ASSIGN_OR_RETURN(neptune::ham::OpenNodeResult got,
                               remote->OpenNode(ctx, edit.node, it->second, {}));
      if (got.contents != edit.text) {
        Mismatch("edit '" + edit.explanation +
                 "' reads back different text after the restart");
      }
    }
  }
  NEPTUNE_ASSIGN_OR_RETURN(
      neptune::ham::SubGraph notes,
      remote->GetGraphQuery(ctx, 0, "document = annotations", "false", {}, {}));
  if (notes.nodes.size() != annotations) {
    Mismatch("after the restart " + std::to_string(notes.nodes.size()) +
             " annotations exist, " + std::to_string(annotations) +
             " were acknowledged");
  }
  NEPTUNE_RETURN_IF_ERROR(remote->CloseGraph(ctx));
  remote.reset();
  server_.Kill();
  return Status::OK();
}

void Run::EndToEnd(const ClientStats& all, Output* out) {
  // The clients share one thread, so time inside operations adds up.
  const double busy_s = all.busy_us / 1e6;
  const double ops_per_s = Ratio(static_cast<double>(all.ops), busy_s);
  const double commits_per_s = Ratio(static_cast<double>(all.commits), busy_s);
  auto p50 = [&](OpKind kind) {
    return Median(all.latency_us[static_cast<int>(kind)]);
  };
  out->Add("setup_s", setup_s_, "s");
  out->Add("ops_per_s", ops_per_s, "1/s");
  out->Add("open_node_p50_us", p50(OpKind::kOpenNode), "us");
  out->Add("linearize_fetch_p50_us", p50(OpKind::kLinearizeFetch), "us");
  out->Add("query_p50_us", p50(OpKind::kQuery), "us");
  out->Add("version_read_p50_us", p50(OpKind::kVersionRead), "us");
  out->Add("node_diff_p50_us", p50(OpKind::kNodeDiff), "us");
  out->Add("annotate_txn_p50_us", p50(OpKind::kAnnotate), "us");
  out->Add("edit_txn_p50_us", p50(OpKind::kEdit), "us");
  out->Add("commits_per_s", commits_per_s, "1/s");
}

Status Run::PerLayer(const ClientStats& untraced, const ClientStats& traced,
                     const MetricsSnapshot& before,
                     const MetricsSnapshot& after, Output* out) {
  ClientStats all = untraced;
  all.Merge(traced);
  std::map<std::string, double> m;
  LayerInputs in;
  in.spec = &spec_;
  in.corpus = &corpus_;
  in.seed = args_.seed;
  in.work_dir = work_ + "/replays";
  in.fetch = &clients_[0]->last_fetch();
  in.open = &clients_[0]->last_open();
  std::vector<std::unique_ptr<SpanRecorder>> replay_recorders;
  NEPTUNE_RETURN_IF_ERROR(RunLayerReplays(in, &replay_recorders, &m));

  std::vector<const SpanRecorder*> recorders;
  for (auto& client : clients_) recorders.push_back(client->recorder());
  for (auto& rec : replay_recorders) recorders.push_back(rec.get());
  TraceSummary summary;
  for (const SpanRecorder* rec : recorders) Summarize(rec->spans(), &summary);
  const std::string spans_path =
      Absolute(args_.work_dir) + "/spans-" + spec_.name + ".jsonl";
  if (!WriteSpans(spans_path, recorders)) {
    std::fprintf(stderr, "perfbench: could not write the span file\n");
  }

  const double ops = static_cast<double>(all.ops);
  uint64_t calls = 0;
  for (auto& client : clients_) calls += client->calls();
  auto p = [&](OpKind kind, double q) {
    return Quantile(untraced.latency_us[static_cast<int>(kind)], q);
  };
  auto samples = [&](OpKind kind) {
    return static_cast<double>(
        untraced.latency_us[static_cast<int>(kind)].size());
  };
  // rpc
  out->Add("rpc.ping_p50_us", Median(traced.ping_us), "us");
  out->Add("rpc.calls_per_op",
           Ratio(static_cast<double>(calls_measured_), ops), "count");
  out->Add("rpc.bytes_per_op",
           Ratio(static_cast<double>(CounterDelta(before, after, "rpc.bytes_in") +
                                     CounterDelta(before, after, "rpc.bytes_out")),
                 ops),
           "bytes");
  // The mean, not a quantile: the server's histogram has coarse fixed
  // buckets, so its p50 reads the same bucket bound in every run.
  out->Add("rpc.loop_lag_mean_us",
           HistogramDelta(before, after, "server.loop.lag_us").MeanMicros(),
           "us");
  out->Add("rpc.open_node_overhead_us",
           p(OpKind::kOpenNode, 0.5) - m["ham.open_node_us"], "us");
  out->Add("rpc.query_overhead_us", p(OpKind::kQuery, 0.5) - m["ham.query_us"],
           "us");
  out->Add("rpc.open_node_p99_us", p(OpKind::kOpenNode, 0.99), "us");
  out->Add("rpc.open_node_samples", samples(OpKind::kOpenNode), "count");
  out->Add("rpc.annotate_txn_p99_us", p(OpKind::kAnnotate, 0.99), "us");
  out->Add("rpc.annotate_txn_samples", samples(OpKind::kAnnotate), "count");
  // Time per client round in each kind of operation: their shares of
  // the busy time show which kind an ops_per_s change comes from.
  for (int k = 0; k < kNumOpKinds; ++k) {
    double sum = 0;
    for (double us : untraced.latency_us[k]) sum += us;
    out->Add(std::string("app.") + OpName(static_cast<OpKind>(k)) +
                 "_us_per_round",
             Ratio(sum, static_cast<double>(untraced.rounds)), "us");
  }
  // wire
  for (const char* name : {"wire.decode_subgraph_us", "wire.open_node_codec_us",
                           "wire.frame_us_per_kb"}) {
    out->Add(name, m[name], "us");
  }
  // ham
  for (const char* name :
       {"ham.open_node_us", "ham.linearize_us", "ham.query_us",
        "ham.annotate_txn_us", "ham.annotate_txn_nosync_us",
        "ham.begin_wait_p50_us"}) {
    out->Add(name, m[name], "us");
  }
  // query
  const double matched = static_cast<double>(traced.matched);
  out->Add("query.candidates_per_match",
           Ratio(static_cast<double>(traced.candidates), matched), "count");
  out->Add("query.residual_evals_per_match",
           Ratio(static_cast<double>(traced.residual_evals), matched), "count");
  out->Add("query.compile_us", m["query.compile_us"], "us");
  out->Add("query.applied_deltas_per_query",
           Ratio(static_cast<double>(traced.applied_deltas),
                 static_cast<double>(traced.explained_queries)),
           "count");
  // delta
  const double hits = static_cast<double>(CounterDelta(before, after, "delta.cache.hit"));
  const double misses =
      static_cast<double>(CounterDelta(before, after, "delta.cache.miss"));
  out->Add("delta.version_get_us", m["delta.version_get_us"], "us");
  out->Add("delta.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  out->Add("delta.diff_lines_us", m["delta.diff_lines_us"], "us");
  out->Add("delta.stored_bytes_per_user_byte",
           m["delta.stored_bytes_per_user_byte"], "ratio");
  // storage
  const double committed =
      static_cast<double>(CounterDelta(before, after, "ham.txn.committed"));
  const double wal = static_cast<double>(CounterDelta(before, after, "storage.wal.bytes"));
  const double checkpoint_bytes =
      static_cast<double>(CounterDelta(before, after, "storage.checkpoint.bytes"));
  out->Add("storage.fsync_p50_us", m["storage.fsync_p50_us"], "us");
  out->Add("storage.wal_bytes_per_commit", Ratio(wal, committed), "bytes");
  out->Add("storage.checkpoints",
           static_cast<double>(
               HistogramDelta(before, after, "storage.checkpoint").count),
           "count");
  out->Add("storage.bytes_written_per_user_byte",
           Ratio(wal + checkpoint_bytes,
                 static_cast<double>(all.user_bytes_written)),
           "ratio");
  // Self time per call into each layer, over every span recorded.
  for (int l = 0; l < kNumLayers; ++l) {
    out->Add(std::string(LayerName(static_cast<Layer>(l))) + ".self_us_per_call",
             Ratio(static_cast<double>(summary.self_ns[l]) / 1000.0,
                   static_cast<double>(summary.calls[l])),
             "us");
  }
  out->Add("trace.overhead_pct",
           100.0 * (Ratio(MeanNonQueryUs(traced), MeanNonQueryUs(untraced)) - 1.0),
           "%");
  out->Add("trace.spans", static_cast<double>(summary.spans), "count");
  return Status::OK();
}

bool Run::Execute(Output* out, bool* correct, uint64_t* attempted,
                  uint64_t* failed) {
  work_ = Absolute(args_.work_dir) + "/" + spec_.name + "-" +
          std::to_string(getpid());
  data_root_ = work_ + "/data";
  graph_dir_ = data_root_ + "/graph";
  neptune::Env* env = neptune::Env::Default();
  env->RemoveDirRecursive(work_);
  if (!env->CreateDir(data_root_).ok()) return Fail("cannot create " + work_);

  PinCpus();
  Status status = LoadCorpus();
  if (!status.ok()) return Fail("corpus: " + status.ToString());
  {
    OwnTime own(&own_ns_);
    uint64_t versions = 0;
    for (const NodeRecord& rec : corpus_.records()) versions += rec.texts.size();
    std::fprintf(stderr,
                 "perfbench: %s corpus: %zu nodes, %zu text sections, %llu "
                 "content versions, %llu bytes written\n",
                 spec_.name, corpus_.records().size(),
                 corpus_.text_nodes().size(),
                 static_cast<unsigned long long>(versions),
                 static_cast<unsigned long long>(corpus_.user_bytes()));
  }
  status = server_.Start(args_.server, data_root_, work_ + "/server");
  if (!status.ok()) return Fail("server: " + status.ToString());
  std::vector<Context> contexts;
  status = Connect(&remotes_, &contexts);
  if (!status.ok()) return Fail("connect: " + status.ToString());
  {
    OwnTime own(&own_ns_);  // expected answers are computed here
    for (int w = 0; w < spec_.corpus.writers; ++w) {
      clients_.push_back(std::make_unique<Client>(
          w, spec_, remotes_[w].get(), contexts[w], &corpus_, args_.seed));
    }
  }
  ClientStats warmup;
  const int64_t warmup_start = NowNs();
  RunClients(0, spec_.warmup_rounds, &warmup, nullptr);
  // Of the warm-up, only the time inside operations is the program's.
  own_ns_ += NowNs() - warmup_start - static_cast<int64_t>(warmup.busy_us * 1e3);
  setup_s_ =
      static_cast<double>(NowNs() - start_ns_ - corpus_.own_ns() - own_ns_) / 1e9;
  if (warmup.mismatches > 0) {
    Mismatch(std::to_string(warmup.mismatches) +
             " warm-up operations returned wrong answers");
  }

  auto graph_before = CountWrites(remotes_[0].get(), contexts[0]);
  if (!graph_before.ok()) return Fail("count: " + graph_before.status().ToString());
  std::vector<uint64_t> calls_before;
  for (auto& client : clients_) calls_before.push_back(client->calls());
  auto before = remotes_[0]->GetServerStatistics();
  if (!before.ok()) return Fail("statistics: " + before.status().ToString());

  // Measurement. A traced run alternates untraced and traced rounds, so
  // the two sets of rounds give the tracing overhead.
  const int64_t total_ns = static_cast<int64_t>(args_.seconds * 1e9);
  // --rounds R gives each set of a traced run R rounds.
  const int rounds = args_.trace ? 2 * args_.rounds : args_.rounds;
  ClientStats untraced, traced;
  RunClients(NowNs() + total_ns, rounds, &untraced,
             args_.trace ? &traced : nullptr);
  auto after = remotes_[0]->GetServerStatistics();
  if (!after.ok()) return Fail("statistics: " + after.status().ToString());

  ClientStats all = untraced;
  all.Merge(traced);
  calls_measured_ = 0;
  for (size_t c = 0; c < clients_.size(); ++c) {
    calls_measured_ += clients_[c]->calls() - calls_before[c];
  }
  for (auto& client : clients_) {
    for (const std::string& e : client->errors()) {
      std::fprintf(stderr, "perfbench: %s\n", e.c_str());
    }
  }
  if (all.mismatches > 0) Mismatch(std::to_string(all.mismatches) +
                                   " operations returned wrong answers");

  auto graph_after = CountWrites(remotes_[0].get(), contexts[0]);
  if (!graph_after.ok()) return Fail("count: " + graph_after.status().ToString());
  VerifyCounts(*before, *after, calls_measured_, all.commits, *graph_before,
               *graph_after);
  for (size_t c = 0; c < clients_.size(); ++c) {
    remotes_[c]->CloseGraph(contexts[c]);
  }
  status = RestartAndReadBack();
  if (!status.ok()) return Fail("restart: " + status.ToString());

  if (args_.trace) {
    status = PerLayer(untraced, traced, *before, *after, out);
    if (!status.ok()) return Fail("replays: " + status.ToString());
  } else {
    EndToEnd(all, out);
  }
  *attempted = all.ops;
  *failed = all.failed;
  *correct = correct_;
  return true;
}

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const Output& out) {
  std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [name, value] = out.metrics[i];
    const double v = std::isfinite(value.first) ? value.first : 0.0;
    char num[64];
    std::snprintf(num, sizeof(num), "%.9g", v);
    s += (i ? ", " : "") + std::string("\"") + name + "\": {\"value\": " +
         num + ", \"unit\": \"" + value.second + "\"}";
  }
  return s + "}}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const int64_t start_ns = perfbench::NowNs();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--server PATH --work-dir DIR [--rounds R]\n",
                 argv[0]);
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  neptune::SetLogLevel(neptune::LogLevel::kWarn);
  perfbench::InstallExitHandlers();
  perfbench::Output out;
  bool correct = false;
  uint64_t attempted = 0, failed = 0;
  {
    perfbench::Run run(args, *spec, start_ns);
    if (!run.Execute(&out, &correct, &attempted, &failed)) return 1;
  }
  std::printf("%s\n", perfbench::Json(correct, attempted, failed, out).c_str());
  return 0;
}
