#include "src/core/blind_shuffler.h"

#include <atomic>
#include <map>
#include <optional>

namespace prochlo {

BlindShuffler1::BlindShuffler1(SecureRandom& rng)
    : keys_(KeyPair::Generate(rng)), alpha_(rng.RandomSecretScalar(P256::Get().order())) {}

Result<std::vector<BlindedItem>> BlindShuffler1::Process(const std::vector<Bytes>& reports,
                                                         SecureRandom& rng, ThreadPool* pool) {
  stats_.received += reports.size();

  // Open the outer layer through the batched ct lane (the ECDH against each
  // report's ephemeral key dominates; one shared inversion per chunk), then
  // filter out records in the wrong pipeline mode.
  std::vector<std::optional<ShufflerView>> slots = BatchOpenReports(keys_, reports, pool);
  for (auto& slot : slots) {
    if (slot.has_value() && (slot->crowd.mode != CrowdIdMode::kBlinded ||
                             !slot->crowd.blinded_ct.has_value())) {
      slot.reset();  // malformed or wrong pipeline mode
    }
  }

  std::vector<ElGamalCiphertext> cts;
  std::vector<BlindedItem> items;
  cts.reserve(reports.size());
  items.reserve(reports.size());
  for (auto& slot : slots) {
    if (!slot.has_value()) {
      stats_.malformed++;
      continue;
    }
    cts.push_back(*slot->crowd.blinded_ct);
    items.push_back(BlindedItem{{}, std::move(slot->inner_box)});
  }

  // Blind every crowd-ID ciphertext with α via the batch fast path: Jacobian
  // arithmetic with one affine conversion per chunk instead of per point.
  std::vector<ElGamalCiphertext> blinded = ElGamalBlindBatch(cts, alpha_, pool);
  for (size_t i = 0; i < items.size(); ++i) {
    items[i].blinded_crowd = blinded[i];
  }

  rng.ShuffleVector(items);
  stats_.forwarded += items.size();
  return items;
}

BlindShuffler2::BlindShuffler2(SecureRandom& rng, ShufflerConfig config)
    : keys_(KeyPair::Generate(rng)), config_(config) {}

Result<std::vector<Bytes>> BlindShuffler2::Process(std::vector<BlindedItem> items,
                                                   SecureRandom& rng, Rng& noise_rng,
                                                   ThreadPool* pool) {
  stats_.received += items.size();

  // Decrypt every blinded crowd ID to µ^α via the batch fast path (pure
  // ECC; one affine conversion per chunk).
  std::vector<ElGamalCiphertext> cts;
  cts.reserve(items.size());
  for (const auto& item : items) {
    cts.push_back(item.blinded_crowd);
  }
  std::vector<EcPoint> points = ElGamalDecryptBatch(keys_.private_key, cts, pool);
  std::vector<Bytes> blinded_keys(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    blinded_keys[i] = P256::Get().Encode(points[i]);
  }

  // Group by blinded ID (equality is preserved by blinding) and threshold.
  std::map<Bytes, std::vector<size_t>> crowds;
  for (size_t i = 0; i < items.size(); ++i) {
    crowds[blinded_keys[i]].push_back(i);
  }
  stats_.crowds_seen += crowds.size();

  std::vector<Bytes> survivors;
  survivors.reserve(items.size());
  for (auto& [key, indices] : crowds) {
    size_t count = indices.size();
    if (config_.threshold_mode == ThresholdMode::kRandomized) {
      size_t d = static_cast<size_t>(noise_rng.NextRoundedTruncatedGaussian(
          config_.policy.drop_mean, config_.policy.drop_sigma));
      d = std::min(d, count);
      stats_.dropped_noise += d;
      count -= d;
    }
    bool keep = true;
    if (config_.threshold_mode != ThresholdMode::kNone) {
      keep = static_cast<double>(count) >= config_.policy.threshold;
    }
    if (!keep) {
      stats_.dropped_threshold += count;
      continue;
    }
    stats_.crowds_forwarded++;
    for (size_t k = 0; k < count; ++k) {
      survivors.push_back(std::move(items[indices[k]].inner_box));
    }
  }

  rng.ShuffleVector(survivors);
  stats_.forwarded += survivors.size();
  return survivors;
}

Result<std::vector<Bytes>> BlindShufflerPair::ProcessBatch(const std::vector<Bytes>& reports,
                                                           SecureRandom& rng, Rng& noise_rng,
                                                           ThreadPool* pool) {
  auto stage1 = shuffler1_.Process(reports, rng, pool);
  if (!stage1.ok()) {
    return stage1.error();
  }
  return shuffler2_.Process(std::move(stage1).value(), rng, noise_rng, pool);
}

}  // namespace prochlo
