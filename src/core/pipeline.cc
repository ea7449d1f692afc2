#include "src/core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>

namespace prochlo {

namespace {
double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Inputs per forked client DRBG in Run's encode: a fixed split, so the
// sealed reports depend on the seed alone, never on the pool size.
constexpr size_t kEncodeChunk = 256;
}  // namespace

Pipeline::Pipeline(const PipelineConfig& config)
    : config_(config),
      rng_(ToBytes(config.seed)),
      noise_rng_(CrowdIdHash(config.seed + "-noise")),
      owned_pool_(config.num_threads != 0 && config.num_threads != kProcessPoolThreads
                      ? std::make_unique<ThreadPool>(config.num_threads)
                      : nullptr),
      pool_(config.num_threads == kProcessPoolThreads ? &ThreadPool::Process()
                                                       : owned_pool_.get()),
      analyzer_(KeyPair::Generate(rng_)) {
  if (config_.use_blinded_crowd_ids) {
    blind_pair_.emplace(rng_, config_.shuffler);
  } else {
    shuffler_.emplace(KeyPair::Generate(rng_), config_.shuffler);
  }
}

Encoder Pipeline::MakeEncoder() const {
  EncoderConfig encoder_config;
  if (config_.use_blinded_crowd_ids) {
    encoder_config.shuffler_public = blind_pair_->shuffler1_public();
    encoder_config.shuffler2_public = blind_pair_->shuffler2_elgamal_public();
    encoder_config.crowd_mode = CrowdIdMode::kBlinded;
  } else {
    encoder_config.shuffler_public = shuffler_->public_key();
    encoder_config.crowd_mode = CrowdIdMode::kPlainHash;
  }
  encoder_config.analyzer_public = analyzer_.public_key();
  encoder_config.payload_size = config_.payload_size;
  encoder_config.secret_share_threshold = config_.secret_share_threshold;
  return Encoder(encoder_config);
}

Result<std::vector<Bytes>> Pipeline::Encode(
    const std::vector<std::pair<std::string, std::string>>& inputs) {
  // One shared Encoder holds the immutable key/config state; each chunk of
  // inputs forks only an independent DRBG, as each client has its own.
  const Encoder encoder = MakeEncoder();
  const size_t chunks = (inputs.size() + kEncodeChunk - 1) / kEncodeChunk;
  std::vector<SecureRandom> rngs;
  rngs.reserve(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    rngs.emplace_back(rng_.RandomBytes(32));
  }
  std::vector<Bytes> reports(inputs.size());
  std::atomic<bool> failed{false};
  ParallelFor(pool_, chunks, [&](size_t c) {
    const size_t end = std::min(inputs.size(), (c + 1) * kEncodeChunk);
    for (size_t i = c * kEncodeChunk; i < end; ++i) {
      auto report = encoder.EncodeValue(inputs[i].second, inputs[i].first, rngs[c]);
      if (report.ok()) {
        reports[i] = std::move(report).value();
      } else {
        failed = true;
      }
    }
  });
  if (failed) {
    return Error{"some inputs could not be encoded (payload_size too small?)"};
  }
  return reports;
}

Result<PipelineResult> Pipeline::Run(
    const std::vector<std::pair<std::string, std::string>>& inputs) {
  auto t0 = std::chrono::steady_clock::now();
  auto reports = Encode(inputs);
  if (!reports.ok()) {
    return reports.error();
  }
  VectorRecordStream stream(reports.value());
  auto result = RunReports(stream, rng_, noise_rng_);
  if (result.ok()) {
    // Fold the encode stage into the first stage's wall-clock split.
    result.value().encode_shuffle1_seconds = SecondsSince(t0);
  }
  return result;
}

Result<PipelineResult> Pipeline::RunReports(RecordStream& reports, SecureRandom& rng,
                                            Rng& noise_rng) {
  PipelineResult result;

  // ---- Shuffle + threshold ----
  auto t0 = std::chrono::steady_clock::now();
  std::vector<Bytes> inner_boxes;
  if (config_.use_blinded_crowd_ids) {
    // The two-party split works on materialized batches (each stage
    // re-encrypts the full batch anyway).
    std::vector<Bytes> batch;
    batch.reserve(reports.size());
    while (auto record = reports.Next()) {
      batch.push_back(std::move(*record));
    }
    auto stage1 = blind_pair_->ProcessBatch(batch, rng, noise_rng, pool_);
    result.encode_shuffle1_seconds = SecondsSince(t0);
    if (!stage1.ok()) {
      return stage1.error();
    }
    inner_boxes = std::move(stage1).value();
    result.shuffler1_stats = blind_pair_->stats1();
    result.shuffler_stats = blind_pair_->stats2();
    // ProcessBatch runs both stages; attribute the Shuffler 2 share of time
    // by re-measuring: the split is provided by the Vocab timing bench
    // (which drives the stages separately for Table 3).
  } else {
    auto shuffled = shuffler_->ProcessStream(reports, rng, noise_rng, pool_);
    result.encode_shuffle1_seconds = SecondsSince(t0);
    if (!shuffled.ok()) {
      return shuffled.error();
    }
    inner_boxes = std::move(shuffled).value();
    result.shuffler_stats = shuffler_->stats();
  }

  // ---- Analyze ----
  auto t2 = std::chrono::steady_clock::now();
  std::vector<Bytes> payloads =
      analyzer_.DecryptBatch(inner_boxes, pool_);  // lint:allow(analyzer-open)
  if (config_.secret_share_threshold.has_value()) {
    auto recovered =
        Analyzer::RecoverSecretShared(payloads, *config_.secret_share_threshold);
    result.histogram = std::move(recovered.values);
    result.locked_groups = recovered.locked_groups;
  } else {
    result.histogram = Analyzer::HistogramOfValues(payloads);
  }
  result.analyzer_stats = analyzer_.stats();
  result.analyze_seconds = SecondsSince(t2);
  return result;
}

Result<PipelineResult> Pipeline::RunReports(const std::vector<Bytes>& reports) {
  VectorRecordStream stream(reports);
  return RunReports(stream, rng_, noise_rng_);
}

Result<EpochPartial> Pipeline::RunReportsPartial(RecordStream& reports) {
  if (config_.use_blinded_crowd_ids) {
    return Error{
        "partial drain requires plain-hash crowd IDs "
        "(blinded mode needs the two-party rendezvous)"};
  }
  EpochPartial partial;
  partial.reports = reports.size();
  auto views = shuffler_->OpenStream(reports, pool_);
  if (!views.ok()) {
    return views.error();
  }
  partial.malformed = partial.reports - views.value().size();
  for (auto& view : views.value()) {
    partial.crowds[view.crowd.plain_hash].inner_boxes.push_back(std::move(view.inner_box));
  }
  return partial;
}

Result<PipelineResult> Pipeline::MergePartials(std::vector<EpochPartial>& partials,
                                               Rng& noise_rng) {
  if (config_.use_blinded_crowd_ids) {
    return Error{
        "partial merge requires plain-hash crowd IDs "
        "(blinded mode needs the two-party rendezvous)"};
  }
  auto t0 = std::chrono::steady_clock::now();
  PipelineResult result;
  // Crowd hash -> that crowd's share in each partial.  The ordered map is
  // ThresholdAndStrip's ascending crowd-hash order over the union.
  std::map<uint64_t, std::vector<CrowdPartial*>> crowds;
  for (auto& partial : partials) {
    result.shuffler_stats.received += partial.reports;
    result.shuffler_stats.malformed += partial.malformed;
    for (auto& [crowd_hash, crowd] : partial.crowds) {
      crowds[crowd_hash].push_back(&crowd);
    }
  }

  // The minimum-batch decision is a property of the whole epoch, so it runs
  // here — over the union — with ProcessStream's exact semantics (and exact
  // message): the raw report count, malformed included, must clear the bar.
  const ShufflerConfig& shuffler_config = config_.shuffler;
  if (result.shuffler_stats.received < shuffler_config.min_batch_size) {
    return Error{"batch below the minimum cardinality; keep batching"};
  }
  result.shuffler_stats.crowds_seen = crowds.size();

  // Threshold on cardinalities alone; only surviving crowds' boxes move.
  std::vector<Bytes> forwarded;
  for (auto& [crowd_hash, shares] : crowds) {
    uint64_t total = 0;
    for (const CrowdPartial* share : shares) {
      total += share->inner_boxes.size();
    }
    uint64_t count = total;
    if (shuffler_config.threshold_mode == ThresholdMode::kRandomized) {
      uint64_t d = static_cast<uint64_t>(noise_rng.NextRoundedTruncatedGaussian(
          shuffler_config.policy.drop_mean, shuffler_config.policy.drop_sigma));
      d = std::min(d, count);
      result.shuffler_stats.dropped_noise += d;
      count -= d;
    }
    bool keep = true;
    if (shuffler_config.threshold_mode != ThresholdMode::kNone) {
      keep = static_cast<double>(count) >= shuffler_config.policy.threshold;
    }
    if (!keep) {
      result.shuffler_stats.dropped_threshold += count;
      continue;
    }
    result.shuffler_stats.crowds_forwarded++;
    result.shuffler_stats.forwarded += count;
    const auto begin = static_cast<std::ptrdiff_t>(forwarded.size());
    for (CrowdPartial* share : shares) {
      std::move(share->inner_boxes.begin(), share->inner_boxes.end(),
                std::back_inserter(forwarded));
      share->inner_boxes.clear();
    }
    if (count < total) {
      // Noise drops: the `count` smallest ciphertexts survive, a choice
      // that depends on the report set alone.
      auto keep_end = forwarded.begin() + begin + static_cast<std::ptrdiff_t>(count);
      std::nth_element(forwarded.begin() + begin, keep_end, forwarded.end());
      forwarded.erase(keep_end, forwarded.end());
    }
  }

  // Crowd IDs stop here: the analyzer gets a flat batch of inner boxes.
  std::vector<Bytes> payloads =
      analyzer_.DecryptBatch(forwarded, pool_);  // lint:allow(analyzer-open)
  result.analyzer_stats.received = forwarded.size();
  result.analyzer_stats.undecryptable = forwarded.size() - payloads.size();
  if (config_.secret_share_threshold.has_value()) {
    auto recovered = Analyzer::RecoverSecretShared(payloads, *config_.secret_share_threshold);
    result.histogram = std::move(recovered.values);
    result.locked_groups = recovered.locked_groups;
  } else {
    result.histogram = Analyzer::HistogramOfValues(payloads);
  }
  result.analyze_seconds = SecondsSince(t0);
  return result;
}

Result<PipelineResult> Pipeline::RunValues(const std::vector<std::string>& values) {
  std::vector<std::pair<std::string, std::string>> inputs;
  inputs.reserve(values.size());
  for (const auto& value : values) {
    inputs.emplace_back(value, value);
  }
  return Run(inputs);
}

}  // namespace prochlo
