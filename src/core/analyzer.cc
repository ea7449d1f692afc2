#include "src/core/analyzer.h"

#include <algorithm>
#include <optional>

#include "src/crypto/secret_share.h"

namespace prochlo {

std::vector<Bytes> Analyzer::DecryptBatch(const std::vector<Bytes>& inner_boxes,
                                          ThreadPool* pool) {
  // The inner ECDH runs on HybridOpenBatch's batched ct lane, in fixed
  // chunks (not pool-derived) so the payloads are bit-identical at any
  // thread count, as in BatchOpenReports.  The chunks are smaller than the
  // shuffler's: the analyzer opens only the thresholded survivors, a few
  // thousand boxes an epoch, and small chunks keep every worker busy.
  constexpr size_t kOpenChunk = 64;
  const size_t n = inner_boxes.size();
  stats_.received += n;
  std::vector<std::optional<Bytes>> slots(n);
  ParallelFor(pool, (n + kOpenChunk - 1) / kOpenChunk, [&](size_t c) {
    const size_t begin = c * kOpenChunk;
    const size_t end = std::min(n, begin + kOpenChunk);
    // A box that fails to deserialize keeps a default HybridBox, whose
    // empty ephemeral key makes HybridOpenBatch fail that slot alone.
    std::vector<HybridBox> boxes(end - begin);
    for (size_t i = begin; i < end; ++i) {
      auto box = HybridBox::Deserialize(inner_boxes[i]);
      if (box.has_value()) {
        boxes[i - begin] = std::move(*box);
      }
    }
    std::vector<std::optional<Bytes>> opened =
        HybridOpenBatch(keys_, boxes, kAnalyzerLayerContext);
    for (size_t i = begin; i < end; ++i) {
      if (opened[i - begin].has_value()) {
        slots[i] = UnpadPayload(*opened[i - begin]);
      }
    }
  });

  std::vector<Bytes> payloads;
  payloads.reserve(inner_boxes.size());
  for (auto& slot : slots) {
    if (slot.has_value()) {
      payloads.push_back(std::move(*slot));
    } else {
      stats_.undecryptable++;
    }
  }
  return payloads;
}

std::map<std::string, uint64_t> Analyzer::HistogramOfValues(const std::vector<Bytes>& payloads) {
  std::map<std::string, uint64_t> histogram;
  for (const auto& payload : payloads) {
    histogram[ToString(payload)]++;
  }
  return histogram;
}

Analyzer::RecoveredHistogram Analyzer::RecoverSecretShared(const std::vector<Bytes>& payloads,
                                                           uint32_t threshold) {
  RecoveredHistogram result;
  // Group shares by their deterministic ciphertext.
  std::map<Bytes, std::vector<SecretShare>> groups;
  for (const auto& payload : payloads) {
    auto encoding = SecretShareEncoding::Deserialize(payload);
    if (!encoding.has_value()) {
      result.malformed++;
      continue;
    }
    groups[encoding->ciphertext].push_back(encoding->share);
  }

  SecretSharer sharer(threshold);
  for (const auto& [ciphertext, shares] : groups) {
    auto recovered = sharer.Recover(ciphertext, shares);
    if (recovered.has_value()) {
      result.values[ToString(*recovered)] += shares.size();
    } else {
      result.locked_groups++;
    }
  }
  return result;
}

}  // namespace prochlo
