#include "src/service/cluster/merge.h"

namespace prochlo {

Result<PipelineResult> HistogramMerge::Merge(uint64_t epoch, std::vector<EpochPartial>& partials,
                                             ThreadPool* pool) {
  Rng noise_rng = DeriveEpochNoiseRng(config_.seed, epoch);
  return pipeline_.MergePartials(partials, noise_rng, pool);
}

}  // namespace prochlo
