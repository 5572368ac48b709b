#include "serve/store_version.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace hdczsc::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t extend_content_checksum(std::uint64_t h, const PrototypeStore& store,
                                      const std::vector<std::uint8_t>& seen_mask,
                                      std::size_t begin_row) {
  const std::size_t d = store.dim();
  const std::size_t wpr = store.words_per_row();
  const float* F = store.float_rows();
  const std::uint64_t* P = store.packed_data();
  for (std::size_t c = begin_row; c < store.n_classes(); ++c) {
    h = fnv_bytes(h, F + c * d, d * sizeof(float));
    h = fnv_bytes(h, P + c * wpr, wpr * sizeof(std::uint64_t));
    const unsigned char seen = seen_mask.empty() || seen_mask[c] != 0 ? 1 : 0;
    h = fnv_bytes(h, &seen, 1);
  }
  return h;
}

std::uint64_t content_checksum(const PrototypeStore& store,
                               const std::vector<std::uint8_t>& seen_mask) {
  return extend_content_checksum(kFnvOffset, store, seen_mask, 0);
}

std::vector<std::uint8_t> extend_seen_mask(const std::vector<std::uint8_t>& base_mask,
                                           std::size_t base_rows,
                                           const std::vector<std::uint8_t>& flags,
                                           std::size_t n_new) {
  if (!flags.empty() && flags.size() != n_new)
    throw std::invalid_argument("extend_seen_mask: " + std::to_string(flags.size()) +
                                " seen flags for " + std::to_string(n_new) + " new rows");
  std::vector<std::uint8_t> mask;
  mask.reserve(base_rows + n_new);
  if (base_mask.empty())
    mask.assign(base_rows, 1);
  else
    mask.assign(base_mask.begin(), base_mask.end());
  for (std::size_t i = 0; i < n_new; ++i)
    mask.push_back(!flags.empty() && flags[i] != 0 ? 1 : 0);
  if (std::all_of(mask.begin(), mask.end(), [](std::uint8_t m) { return m != 0; }))
    mask.clear();  // all-seen ≡ no partition
  return mask;
}

std::vector<std::uint32_t> extend_ivf_assignments(const tensor::Tensor& centroids,
                                                  const std::vector<std::uint32_t>& assignments,
                                                  const PrototypeStore& grown,
                                                  std::size_t first_new_row) {
  // One allocation and one copy of the base vector: it is the live
  // version's, O(C) at catalog scale.
  std::vector<std::uint32_t> out;
  out.reserve(grown.n_classes());
  out.assign(assignments.begin(), assignments.end());
  out.resize(grown.n_classes());
  assign_nearest_centroids(centroids, grown.float_rows() + first_new_row * centroids.size(1),
                           nullptr, grown.n_classes() - first_new_row,
                           out.data() + first_new_row);
  return out;
}

float calibrate_seen_penalty(const PrototypeStore& store,
                             const std::vector<std::uint8_t>& seen_mask,
                             const GzslCalibration& calibration, bool binary) {
  const std::size_t C = store.n_classes();
  if (seen_mask.empty() || seen_mask.size() != C) return 0.0f;  // no partition
  bool any_seen = false, any_unseen = false;
  for (std::uint8_t m : seen_mask) (m != 0 ? any_seen : any_unseen) = true;
  if (!any_seen || !any_unseen) return 0.0f;

  const tensor::Tensor& emb = calibration.embeddings;
  if (emb.dim() != 2 || emb.size(0) == 0 || emb.size(1) != store.dim()) return 0.0f;
  const std::size_t N = std::min(emb.size(0), calibration.labels.size());
  if (N == 0) return 0.0f;

  // Unpenalized logits once; every candidate penalty is then a pure
  // per-sample comparison between the best seen and best unseen column.
  const tensor::Tensor logits =
      binary ? store.score_binary(emb) : store.score_float(emb);

  struct Sample {
    std::size_t label = 0;
    bool label_seen = false;
    float best_seen = 0.0f;
    float best_unseen = 0.0f;
    std::size_t seen_arg = 0;
    std::size_t unseen_arg = 0;
  };
  std::vector<Sample> samples;
  samples.reserve(N);
  const float* L = logits.data();
  for (std::size_t i = 0; i < N; ++i) {
    const std::size_t label = calibration.labels[i];
    if (label >= C) continue;  // split predates an append; skip
    Sample s;
    s.label = label;
    s.label_seen = seen_mask[label] != 0;
    s.best_seen = -std::numeric_limits<float>::infinity();
    s.best_unseen = -std::numeric_limits<float>::infinity();
    const float* row = L + i * C;
    for (std::size_t c = 0; c < C; ++c) {
      if (seen_mask[c] != 0) {
        if (row[c] > s.best_seen) {
          s.best_seen = row[c];
          s.seen_arg = c;
        }
      } else if (row[c] > s.best_unseen) {
        s.best_unseen = row[c];
        s.unseen_arg = c;
      }
    }
    samples.push_back(s);
  }
  if (samples.empty()) return 0.0f;

  // Candidate penalties: 0, plus one just past each sample's seen-unseen
  // decision margin — the exact points where a decision flips domain.
  std::vector<float> candidates{0.0f};
  for (const Sample& s : samples) {
    const float margin = s.best_seen - s.best_unseen;
    if (margin >= 0.0f && std::isfinite(margin))
      candidates.push_back(std::nextafter(margin, std::numeric_limits<float>::max()));
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());

  const auto harmonic = [&](float p) {
    std::size_t seen_total = 0, seen_ok = 0, unseen_total = 0, unseen_ok = 0;
    for (const Sample& s : samples) {
      // The penalized argmax decides seen iff best_seen - p still beats
      // best_unseen (first-max tie rule: the lower column index wins).
      const float ps = s.best_seen - p;
      const bool pick_seen =
          ps > s.best_unseen || (ps == s.best_unseen && s.seen_arg < s.unseen_arg);
      const std::size_t pred = pick_seen ? s.seen_arg : s.unseen_arg;
      if (s.label_seen) {
        ++seen_total;
        seen_ok += pred == s.label;
      } else {
        ++unseen_total;
        unseen_ok += pred == s.label;
      }
    }
    const double as = seen_total ? static_cast<double>(seen_ok) / seen_total : 0.0;
    const double au = unseen_total ? static_cast<double>(unseen_ok) / unseen_total : 0.0;
    return as + au > 0.0 ? 2.0 * as * au / (as + au) : 0.0;
  };

  float best_p = 0.0f;
  double best_h = -1.0;
  for (float p : candidates) {
    const double h = harmonic(p);
    if (h > best_h) {  // ties keep the earlier (smaller) penalty
      best_h = h;
      best_p = p;
    }
  }
  return best_p;
}

}  // namespace hdczsc::serve
