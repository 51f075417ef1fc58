#include "tracing.h"

#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  static const char* const kNames[kNumLayers] = {
      "app", "rpc", "ham", "wire", "query", "delta", "storage"};
  return kNames[static_cast<int>(layer)];
}

void Summarize(const std::vector<SpanRecord>& spans, TraceSummary* summary) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      child_ns[spans[i].parent] += spans[i].end_ns - spans[i].start_ns;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const int64_t dur = s.end_ns - s.start_ns;
    summary->self_ns[static_cast<int>(s.layer)] += dur - child_ns[i];
    ++summary->calls[static_cast<int>(s.layer)];
  }
  summary->spans += spans.size();
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t t = 0; t < recorders.size(); ++t) {
    for (const SpanRecord& s : recorders[t]->spans()) {
      std::fprintf(f,
                   "{\"thread\":%zu,\"op\":%llu,\"name\":\"%s\",\"layer\":"
                   "\"%s\",\"parent\":%d,\"start_ns\":%lld,\"dur_ns\":%lld}\n",
                   t, static_cast<unsigned long long>(s.op), s.name,
                   LayerName(s.layer), s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns - s.start_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
