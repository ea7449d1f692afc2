// End-to-end ESA pipeline wiring (paper Figure 1): encoders at clients, one
// shuffler (or a blinded two-shuffler pair), and an analyzer, with the
// attestation-based trust establishment of §4.1.1.
//
// This is the highest-level public API: construct a Pipeline with a
// PipelineConfig, feed client values, and collect the analyzer-side
// histogram.  The benches and examples drive experiments through it.
#ifndef PROCHLO_SRC_CORE_PIPELINE_H_
#define PROCHLO_SRC_CORE_PIPELINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/analyzer.h"
#include "src/core/blind_shuffler.h"
#include "src/core/encoder.h"
#include "src/core/shuffler.h"
#include "src/util/record_stream.h"
#include "src/util/thread_pool.h"

namespace prochlo {

// PipelineConfig::num_threads value that borrows ThreadPool::Process().
inline constexpr size_t kProcessPoolThreads = static_cast<size_t>(-1);

struct PipelineConfig {
  // Single shuffler (plain-hash crowd IDs) or the §4.3 two-shuffler split.
  bool use_blinded_crowd_ids = false;
  ShufflerConfig shuffler;
  // Secret-share encoding threshold; typically equal to the crowd threshold
  // (§5.2 sets both to 20).
  std::optional<uint32_t> secret_share_threshold;
  size_t payload_size = 64;
  // Worker threads for the crypto-heavy stages.  The default borrows the
  // process-wide pool (ThreadPool::Process()), so every drain in the
  // process shares one set of CPU workers; 0 runs sequentially (the test
  // oracle); any other N gives this pipeline a private pool of N workers
  // (the determinism tests' and benches' thread axis).  Results do not
  // depend on the choice.
  size_t num_threads = kProcessPoolThreads;
  // Deterministic seed for all pipeline randomness.
  std::string seed = "prochlo-pipeline";
};

struct PipelineResult {
  std::map<std::string, uint64_t> histogram;  // value -> count at analyzer
  uint64_t locked_groups = 0;                 // secret-share groups not recovered
  ShufflerStats shuffler_stats;   // single-shuffler mode, or stage 2 in blinded mode
  ShufflerStats shuffler1_stats;  // blinded mode only
  AnalyzerStats analyzer_stats;
  // Wall-clock split, seconds (Table 3's columns).
  double encode_shuffle1_seconds = 0;
  double shuffle2_seconds = 0;
  double analyze_seconds = 0;
};

// One crowd's pre-threshold contribution from one shard group: its
// reports' inner boxes, still encrypted to the analyzer.  A group is a pure
// shuffler — it opens only the outer layer — so a partial carries crowd
// cardinalities and ciphertext, never plaintext.  Boxes are moved in from
// the opened views and moved out again by MergePartials; never copied.
struct CrowdPartial {
  std::vector<Bytes> inner_boxes;
  // Always empty: groups no longer decrypt.  Kept only because the frozen
  // benchmark (perfbench/src/cluster_epoch.cc) still reads it; delete it at
  // the next benchmark change (ROADMAP).
  std::map<Bytes, uint64_t> value_counts;
};

// One epoch's pre-threshold state from one shard group, the unit
// HistogramMerge combines: per-crowd inner boxes keyed by plain crowd hash.
// No thresholding, noise, minimum-batch decision or inner-layer decryption
// has happened — those are functions of the whole epoch and belong to
// MergePartials.
struct EpochPartial {
  uint64_t reports = 0;    // raw reports pulled from the stream
  uint64_t malformed = 0;  // outer opens that failed
  std::map<uint64_t, CrowdPartial> crowds;
};

class Pipeline {
 public:
  explicit Pipeline(const PipelineConfig& config);

  // An encoder configured with this pipeline's keys (clients would each own
  // one; they are stateless and shareable).
  Encoder MakeEncoder() const;

  // The client side of Run: seals every (crowd_id, value) input, in input
  // order.  Each fixed-size chunk of inputs gets its own DRBG forked from
  // the pipeline's, so the reports depend on the seed alone — never on
  // num_threads.
  Result<std::vector<Bytes>> Encode(
      const std::vector<std::pair<std::string, std::string>>& inputs);

  // Runs the full pipeline over (crowd_id, value) client inputs: Encode,
  // then RunReports.  With secret-share encoding configured, the value is
  // share-encoded.
  Result<PipelineResult> Run(const std::vector<std::pair<std::string, std::string>>& inputs);

  // Convenience: crowd ID = value (the Vocab arrangement).
  Result<PipelineResult> RunValues(const std::vector<std::string>& values);

  // The shuffle + analyze stages over externally-supplied sealed reports
  // (already encoded by clients) — the entry point the ingestion frontend
  // drains epochs through.  Reports are pulled from `reports`, so a spooled
  // epoch streams off disk; `rng`/`noise_rng` drive the stage randomness,
  // letting the caller derive them per epoch for drain-order-independent
  // determinism.  The result's histogram depends only on the report *set*
  // (not arrival order) under kNone/kNaive thresholding, and additionally
  // under kRandomized when each crowd maps to one value.
  Result<PipelineResult> RunReports(RecordStream& reports, SecureRandom& rng, Rng& noise_rng);
  // Convenience over a materialized batch, using the pipeline's own RNGs.
  Result<PipelineResult> RunReports(const std::vector<Bytes>& reports);

  // Cluster split of RunReports, bit-identical when recombined (see
  // MergePartials).  RunReportsPartial is the shuffler's per-report work
  // only — open the outer layer, bucket the inner boxes by crowd — and
  // needs no randomness: a group's partial is a pure function of its report
  // set.  Nothing is decrypted here.  Single-shuffler (plain-hash crowd ID)
  // mode only: blinded crowd IDs need the two-party rendezvous and return
  // an Error here.
  Result<EpochPartial> RunReportsPartial(RecordStream& reports);

  // The analyzer side of the cluster split: combines the partials of ONE
  // epoch into the analyzer-facing result.  Crowd cardinalities are summed
  // across groups and the batch-global stages run exactly once: the
  // minimum-batch check, then per-crowd noise + thresholding in ascending
  // crowd-hash order — ThresholdAndStrip's order over the union of reports
  // — so with the serial drain's epoch-derived `noise_rng` each crowd
  // consumes the same noise draw.  Only then are crowd IDs stripped and the
  // survivors' inner boxes decrypted (on the pipeline's pool), so a crowd
  // below the threshold is never opened.  Within a crowd that loses
  // members to noise, survivors are taken in ascending ciphertext order,
  // so the result depends only on the report set — never on group count,
  // split, or partial order.  It is bit-identical to the serial
  // drain under kNone/kNaive, and under kRandomized when each crowd maps to
  // one value (the serial drain drops from its shuffled tail instead).
  // On success the survivors' inner boxes are moved out of `partials`; on
  // error `partials` is untouched, so the caller can retry.
  Result<PipelineResult> MergePartials(std::vector<EpochPartial>& partials, Rng& noise_rng);

 private:
  PipelineConfig config_;
  SecureRandom rng_;
  Rng noise_rng_;
  std::unique_ptr<ThreadPool> owned_pool_;  // set only for an explicit num_threads
  ThreadPool* pool_;                        // owned_pool_, the process pool, or null
  std::optional<Shuffler> shuffler_;
  std::optional<BlindShufflerPair> blind_pair_;
  Analyzer analyzer_;
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_CORE_PIPELINE_H_
