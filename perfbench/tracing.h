// The benchmark's own tracing: spans recorded around the calls it
// makes into each layer's public functions, kept in memory and written
// out when the run ends. Nothing inside the program is instrumented.
//
// A span has a name, a layer, its parent span and the operation it
// belongs to (all spans of one benchmark operation share `op`). A
// layer's self time is its spans' durations minus the part their
// child spans cover.

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ham/ham_interface.h"
#include "util.h"

namespace perfbench {

enum class Layer : uint8_t { kApp, kRpc, kHam, kWire, kQuery, kDelta, kStorage };
constexpr int kNumLayers = 7;
const char* LayerName(Layer layer);

struct SpanRecord {
  const char* name;
  Layer layer;
  int32_t parent;  // index in the recorder, -1 for a root
  uint64_t op;
  int64_t start_ns;
  int64_t end_ns;
};

// One per client and per replay thread; not thread-safe.
class SpanRecorder {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  void set_op(uint64_t op) { op_ = op; }

  // Opens a span under the innermost open one; returns its index or
  // -1 when tracing is off.
  int32_t Begin(const char* name, Layer layer) {
    if (!enabled_) return -1;
    spans_.push_back(SpanRecord{name, layer, open_.empty() ? -1 : open_.back(),
                                op_, NowNs(), 0});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void End(int32_t index) {
    if (index < 0) return;
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  uint64_t op_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, Layer layer)
      : rec_(rec), index_(rec->Begin(name, layer)) {}
  ~ScopedSpan() { rec_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t index_;
};

// Self time (ns) and number of spans per layer, summed over `spans`.
struct TraceSummary {
  int64_t self_ns[kNumLayers] = {};
  uint64_t calls[kNumLayers] = {};
  uint64_t spans = 0;
};
void Summarize(const std::vector<SpanRecord>& spans, TraceSummary* summary);

// Writes spans as JSON lines; `thread` distinguishes recorders.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders);

// A HamInterface decorator that counts every call it forwards and,
// when its recorder is on, records a span around each one. The
// benchmark puts one in front of the remote stub (layer rpc) and one
// in front of the in-process engine (layer ham).
class TapHam final : public neptune::ham::HamInterface {
 public:
  TapHam(neptune::ham::HamInterface* inner, SpanRecorder* rec, Layer layer)
      : inner_(inner), rec_(rec), layer_(layer) {}

  uint64_t calls() const { return calls_; }
  // Counts a call made on the inner object outside this interface
  // (RemoteHam batch methods, ping, statistics).
  void CountExtraCall() { ++calls_; }

#define PERFBENCH_TAP(Ret, Name, Params, Args)          \
  Ret Name Params override {                            \
    ++calls_;                                           \
    ScopedSpan span(rec_, #Name, layer_);               \
    return inner_->Name Args;                           \
  }
  using Context = neptune::ham::Context;
  using Time = neptune::ham::Time;
  using NodeIndex = neptune::ham::NodeIndex;
  using LinkIndex = neptune::ham::LinkIndex;
  using AttributeIndex = neptune::ham::AttributeIndex;
  using AttrList = std::vector<neptune::ham::AttributeIndex>;
  template <typename T>
  using Result = neptune::Result<T>;
  using Status = neptune::Status;

  PERFBENCH_TAP(Result<neptune::ham::CreateGraphResult>, CreateGraph,
                (const std::string& d, uint32_t p), (d, p))
  PERFBENCH_TAP(Status, DestroyGraph,
                (neptune::ham::ProjectId p, const std::string& d), (p, d))
  PERFBENCH_TAP(Result<Context>, OpenGraph,
                (neptune::ham::ProjectId p, const std::string& m,
                 const std::string& d),
                (p, m, d))
  PERFBENCH_TAP(Status, CloseGraph, (Context c), (c))
  PERFBENCH_TAP(Status, BeginTransaction, (Context c), (c))
  PERFBENCH_TAP(Status, CommitTransaction, (Context c), (c))
  PERFBENCH_TAP(Status, AbortTransaction, (Context c), (c))
  PERFBENCH_TAP(Result<neptune::ham::AddNodeResult>, AddNode,
                (Context c, bool k), (c, k))
  PERFBENCH_TAP(Status, DeleteNode, (Context c, NodeIndex n), (c, n))
  PERFBENCH_TAP(Result<neptune::ham::AddLinkResult>, AddLink,
                (Context c, const neptune::ham::LinkPt& f,
                 const neptune::ham::LinkPt& t),
                (c, f, t))
  PERFBENCH_TAP(Result<neptune::ham::AddLinkResult>, CopyLink,
                (Context c, LinkIndex l, Time t, bool s,
                 const neptune::ham::LinkPt& o),
                (c, l, t, s, o))
  PERFBENCH_TAP(Status, DeleteLink, (Context c, LinkIndex l), (c, l))
  PERFBENCH_TAP(Result<neptune::ham::SubGraph>, LinearizeGraph,
                (Context c, NodeIndex s, Time t, const std::string& np,
                 const std::string& lp, const AttrList& na, const AttrList& la),
                (c, s, t, np, lp, na, la))
  PERFBENCH_TAP(Result<neptune::ham::SubGraph>, GetGraphQuery,
                (Context c, Time t, const std::string& np, const std::string& lp,
                 const AttrList& na, const AttrList& la),
                (c, t, np, lp, na, la))
  PERFBENCH_TAP(Result<neptune::ham::QueryExplain>, GetGraphQueryExplained,
                (Context c, Time t, const std::string& np, const std::string& lp,
                 const AttrList& na, const AttrList& la,
                 const neptune::ham::QueryOptions& o),
                (c, t, np, lp, na, la, o))
  PERFBENCH_TAP(Result<neptune::ham::OpenNodeResult>, OpenNode,
                (Context c, NodeIndex n, Time t, const AttrList& a),
                (c, n, t, a))
  PERFBENCH_TAP(Status, ModifyNode,
                (Context c, NodeIndex n, Time t, const std::string& s,
                 const std::vector<neptune::ham::AttachmentUpdate>& a,
                 const std::string& e),
                (c, n, t, s, a, e))
  PERFBENCH_TAP(Result<Time>, GetNodeTimeStamp, (Context c, NodeIndex n),
                (c, n))
  PERFBENCH_TAP(Status, ChangeNodeProtection,
                (Context c, NodeIndex n, uint32_t p), (c, n, p))
  PERFBENCH_TAP(Result<neptune::ham::NodeVersions>, GetNodeVersions,
                (Context c, NodeIndex n), (c, n))
  PERFBENCH_TAP(Result<std::vector<neptune::delta::Difference>>,
                GetNodeDifferences, (Context c, NodeIndex n, Time a, Time b),
                (c, n, a, b))
  PERFBENCH_TAP(Result<neptune::ham::LinkEndResult>, GetToNode,
                (Context c, LinkIndex l, Time t), (c, l, t))
  PERFBENCH_TAP(Result<neptune::ham::LinkEndResult>, GetFromNode,
                (Context c, LinkIndex l, Time t), (c, l, t))
  PERFBENCH_TAP(Result<std::vector<neptune::ham::AttributeEntry>>,
                GetAttributes, (Context c, Time t), (c, t))
  PERFBENCH_TAP(Result<std::vector<std::string>>, GetAttributeValues,
                (Context c, AttributeIndex a, Time t), (c, a, t))
  PERFBENCH_TAP(Result<AttributeIndex>, GetAttributeIndex,
                (Context c, const std::string& n), (c, n))
  PERFBENCH_TAP(Status, SetNodeAttributeValue,
                (Context c, NodeIndex n, AttributeIndex a, const std::string& v),
                (c, n, a, v))
  PERFBENCH_TAP(Status, DeleteNodeAttribute,
                (Context c, NodeIndex n, AttributeIndex a), (c, n, a))
  PERFBENCH_TAP(Result<std::string>, GetNodeAttributeValue,
                (Context c, NodeIndex n, AttributeIndex a, Time t),
                (c, n, a, t))
  PERFBENCH_TAP(Result<std::vector<neptune::ham::AttributeValueEntry>>,
                GetNodeAttributes, (Context c, NodeIndex n, Time t), (c, n, t))
  PERFBENCH_TAP(Status, SetLinkAttributeValue,
                (Context c, LinkIndex l, AttributeIndex a, const std::string& v),
                (c, l, a, v))
  PERFBENCH_TAP(Status, DeleteLinkAttribute,
                (Context c, LinkIndex l, AttributeIndex a), (c, l, a))
  PERFBENCH_TAP(Result<std::string>, GetLinkAttributeValue,
                (Context c, LinkIndex l, AttributeIndex a, Time t),
                (c, l, a, t))
  PERFBENCH_TAP(Result<std::vector<neptune::ham::AttributeValueEntry>>,
                GetLinkAttributes, (Context c, LinkIndex l, Time t), (c, l, t))
  PERFBENCH_TAP(Status, SetGraphDemonValue,
                (Context c, neptune::ham::Event e, const std::string& d),
                (c, e, d))
  PERFBENCH_TAP(Result<std::vector<neptune::ham::DemonEntry>>, GetGraphDemons,
                (Context c, Time t), (c, t))
  PERFBENCH_TAP(Status, SetNodeDemon,
                (Context c, NodeIndex n, neptune::ham::Event e,
                 const std::string& d),
                (c, n, e, d))
  PERFBENCH_TAP(Result<std::vector<neptune::ham::DemonEntry>>, GetNodeDemons,
                (Context c, NodeIndex n, Time t), (c, n, t))
  PERFBENCH_TAP(Result<neptune::ham::ContextInfo>, CreateContext,
                (Context c, const std::string& n), (c, n))
  PERFBENCH_TAP(Result<Context>, OpenContext,
                (Context c, neptune::ham::ThreadId t), (c, t))
  PERFBENCH_TAP(Status, MergeContext,
                (Context c, neptune::ham::ThreadId t, bool f), (c, t, f))
  PERFBENCH_TAP(Result<std::vector<neptune::ham::ContextInfo>>, ListContexts,
                (Context c), (c))
  PERFBENCH_TAP(Status, Checkpoint, (Context c), (c))
  PERFBENCH_TAP(Result<neptune::ham::GraphStats>, GetStats, (Context c), (c))
  PERFBENCH_TAP(Result<neptune::ham::ThreadId>, ContextThread, (Context c),
                (c))
#undef PERFBENCH_TAP

 private:
  neptune::ham::HamInterface* inner_;
  SpanRecorder* rec_;
  Layer layer_;
  uint64_t calls_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
