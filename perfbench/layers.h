// In-process replays for the traced run. Each replay calls one
// layer's public functions directly, with the benchmark's own spans
// around the calls, on inputs taken from the workload: an in-process
// Ham holding the same corpus (built again from the same seed), the
// wire codecs on answers the remote run received, VersionChain and
// DiffLines on the generator's version texts, and LogWriter appends.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "corpus.h"
#include "rpc/remote_ham.h"
#include "tracing.h"
#include "workload.h"

namespace perfbench {

struct LayerInputs {
  const WorkloadSpec* spec = nullptr;
  const Corpus* corpus = nullptr;
  uint64_t seed = 0;
  std::string work_dir;  // scratch space for local graphs and a log file
  const neptune::rpc::RemoteHam::LinearizeAndFetchResult* fetch = nullptr;
  const neptune::ham::OpenNodeResult* open = nullptr;
};

// Runs every replay; spans go to `recorders` (one per replay thread,
// appended), per-layer metrics to *metrics by name.
neptune::Status RunLayerReplays(
    const LayerInputs& in, std::vector<std::unique_ptr<SpanRecorder>>* recorders,
    std::map<std::string, double>* metrics);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
