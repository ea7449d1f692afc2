// HistogramMerge: combines per-group per-epoch partials into the one
// analyzer-facing histogram — bit-identical to what a serial single
// frontend would have produced for the same epoch membership.
//
// The merge is two-phase, mirroring ESA's shuffler/analyzer split.  The
// groups are pure shufflers: each opens only the outer layer of its reports
// and ships every crowd's inner boxes still encrypted (EpochPartial).
// Thresholding, noise, and the minimum-batch decision are functions of the
// WHOLE epoch — a crowd split 12/8 across two groups passes a T=20
// threshold globally but would die in both halves — so they run exactly
// once here, on summed crowd cardinalities, with the same (seed, epoch)
// noise RNG the serial drain uses, over crowds in the same ascending-hash
// order.  Only then does the merge act as the analyzer and decrypt the
// survivors: a crowd below the threshold is never opened.  See
// Pipeline::MergePartials for the replay contract and its determinism
// caveats.
#ifndef PROCHLO_SRC_SERVICE_CLUSTER_MERGE_H_
#define PROCHLO_SRC_SERVICE_CLUSTER_MERGE_H_

#include <vector>

#include "src/core/pipeline.h"
#include "src/service/frontend.h"

namespace prochlo {

class HistogramMerge {
 public:
  // `config` must equal the groups' pipeline config (same seed → same
  // analyzer/shuffler keys, same per-epoch RNG derivations).
  explicit HistogramMerge(const PipelineConfig& config)
      : config_(config), pipeline_(config) {}

  // Merges one epoch's partials (one per contributing group; order
  // irrelevant) into the final result.  The noise RNG is derived from
  // (seed, epoch), exactly as the serial drain derives it.  The survivors'
  // decryption fans out on the merge pipeline's pool (by default the
  // process pool).  On success the survivors' inner boxes have been moved
  // out of `partials`; on error `partials` is untouched.
  Result<PipelineResult> Merge(uint64_t epoch, std::vector<EpochPartial>& partials);

 private:
  PipelineConfig config_;
  Pipeline pipeline_;
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SERVICE_CLUSTER_MERGE_H_
