// Approximate million-class retrieval benchmark: the IVF + fused Hamming
// scan + binary→float rerank cascade (serve/ann_store.hpp) against
// the exact sharded scatter/gather scan, on a clustered synthetic label
// space — the regime the coarse quantizer is built for.
//
// Sections:
//  * build     — prototype store + spherical k-means wall time at scale.
//  * baseline  — exact sharded topk_float / topk_binary latency for the
//                query batch (the ground truth AND the speedup denominator).
//  * sweep     — nprobe Pareto: per probe width, latency + recall@10 of the
//                ivf-binary tier and the cascade tier (rerank·k float
//                re-scores), recall measured against the exact float top-10.
//  * defaults  — the serving defaults (nprobe = Cc/8, rerank = 4): the
//                recall@10 and exact-float-vs-cascade speedup quoted in the
//                acceptance gates. The speedup is the median ratio over 7
//                (exact float, cascade) pairs timed back to back, so both
//                sides of each ratio see the same machine state.
//
// Gates (defaults keep local / sanitizer runs informational):
//   --min-recall=R    floor on cascade recall@10 at the serving defaults
//                     (CI passes 0.99).
//   --min-speedup=X   floor on the median per-pair exact-float / cascade
//                     latency ratio at the serving defaults (CI passes 3.0
//                     at 250k classes).
//
//   ./bench_ann_retrieval [--classes=1000000] [--dim=64] [--expansion=4]
//                         [--queries=128] [--k=10] [--rerank=4] [--reps=3]
//                         [--json=BENCH_ann.json]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "serve/ann_store.hpp"
#include "serve/sharded_store.hpp"
#include "tensor/ops.hpp"
#include "util/config.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace hdczsc;

namespace {

template <typename Fn>
double best_seconds(Fn&& fn, std::size_t reps) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    util::Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// Median of an odd-length sample.
double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Mean recall@k of `got` against the exact top-k `want`.
double recall_at_k(const std::vector<std::vector<serve::TopK>>& got,
                   const std::vector<std::vector<serve::TopK>>& want) {
  std::size_t inter = 0, total = 0;
  for (std::size_t q = 0; q < want.size(); ++q) {
    std::set<std::size_t> truth;
    for (const serve::TopK& h : want[q]) truth.insert(h.label);
    for (const serve::TopK& h : got[q]) inter += truth.count(h.label);
    total += want[q].size();
  }
  return total ? static_cast<double>(inter) / static_cast<double>(total) : 0.0;
}

struct SweepPoint {
  std::size_t nprobe = 0;
  double ivf_ms = 0.0, ivf_recall = 0.0;
  double cascade_ms = 0.0, cascade_recall = 0.0, cascade_speedup = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  util::ArgMap args(argc, argv);
  const std::size_t classes = static_cast<std::size_t>(args.get_int("classes", 1000000));
  const std::size_t dim = static_cast<std::size_t>(args.get_int("dim", 64));
  const std::size_t expansion = static_cast<std::size_t>(args.get_int("expansion", 4));
  const std::size_t n_queries = static_cast<std::size_t>(args.get_int("queries", 128));
  const std::size_t k = static_cast<std::size_t>(args.get_int("k", 10));
  const std::size_t rerank = static_cast<std::size_t>(args.get_int("rerank", 4));
  const std::size_t reps = static_cast<std::size_t>(args.get_int("reps", 3));
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 7)));
  util::Timer wall;

  // -- clustered synthetic label space ---------------------------------------
  // Two-level structure, the shape of real near-duplicate-heavy corpora:
  // ~√C well-separated unit cluster centers; each cluster holds families of
  // ~15 near-duplicate rows (family center = cluster center + medium noise,
  // rows = family center + small noise). A query lands next to one row, so
  // its exact top-k is its own family — findable by the coarse probe
  // (cluster level) and separable by the binary prefilter (family level).
  const std::size_t n_centers = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::llround(std::sqrt(static_cast<double>(classes)))));
  const std::size_t family = 15;
  std::printf("label space: %zu classes over %zu clusters, families of %zu, d=%zu, "
              "expansion=%zu (D=%zu)\n",
              classes, n_centers, family, dim, expansion, dim * expansion);

  util::Timer t_data;
  tensor::Tensor centers = tensor::Tensor::randn({n_centers, dim}, rng);
  centers = tensor::l2_normalize_rows(centers);
  tensor::Tensor emb({n_queries, dim});
  const serve::PrototypeStore store = [&] {
    tensor::Tensor protos({classes, dim});
    std::vector<float> fc(dim);
    std::size_t c = 0;
    for (std::size_t f = 0; c < classes; ++f) {
      const float* mu = centers.data() + (f % n_centers) * dim;
      for (std::size_t j = 0; j < dim; ++j)
        fc[j] = mu[j] + 0.05f * static_cast<float>(rng.normal());
      for (std::size_t i = 0; i < family && c < classes; ++i, ++c) {
        float* row = protos.data() + c * dim;
        for (std::size_t j = 0; j < dim; ++j)
          row[j] = fc[j] + 0.005f * static_cast<float>(rng.normal());
      }
    }
    for (std::size_t q = 0; q < n_queries; ++q) {
      const float* row = protos.data() + rng.next_below(classes) * dim;
      for (std::size_t j = 0; j < dim; ++j)
        emb.data()[q * dim + j] = row[j] + 0.002f * static_cast<float>(rng.normal());
    }
    return serve::PrototypeStore(protos, 4.0f, expansion);
  }();
  std::printf("store built in %.1f s (float %.1f MB, binary %.1f MB)\n", t_data.seconds(),
              store.float_bytes() / 1e6, store.binary_bytes() / 1e6);

  util::Timer t_ivf;
  const serve::IvfIndex ivf(store);
  const std::size_t cc = ivf.n_centroids();
  std::printf("IVF coarse quantizer: %zu centroids, k-means in %.1f s, default nprobe %zu\n",
              cc, t_ivf.seconds(), ivf.default_nprobe());

  // -- exact baselines: ground truth + the speedup denominator ---------------
  const serve::ShardedPrototypeStore sharded(store, 16);
  const auto truth = sharded.topk_float(emb, k);
  const double exact_float_ms =
      1e3 * best_seconds([&] { sharded.topk_float(emb, k); }, reps);
  const double exact_binary_ms =
      1e3 * best_seconds([&] { sharded.topk_binary(emb, k); }, reps);
  const double binary_ceiling = recall_at_k(sharded.topk_binary(emb, k), truth);
  std::printf("exact sharded scan, %zu queries: float %.1f ms, binary %.1f ms "
              "(binary recall ceiling %.4f)\n",
              n_queries, exact_float_ms, exact_binary_ms, binary_ceiling);

  // -- nprobe Pareto sweep ---------------------------------------------------
  util::Table sweep_table("nprobe Pareto — " + std::to_string(n_queries) + " queries, k=" +
                          std::to_string(k) + ", rerank=" + std::to_string(rerank));
  sweep_table.set_header({"nprobe", "swept", "ivf ms", "ivf R@k", "cascade ms",
                          "cascade R@k", "speedup"});
  std::vector<SweepPoint> sweep;
  std::vector<std::size_t> widths;
  for (std::size_t p = 1; p < ivf.default_nprobe(); p *= 4) widths.push_back(p);
  widths.push_back(ivf.default_nprobe());
  widths.push_back(std::min(cc, 4 * ivf.default_nprobe()));
  for (std::size_t nprobe : widths) {
    SweepPoint pt;
    pt.nprobe = nprobe;
    pt.ivf_ms = 1e3 * best_seconds([&] { ivf.topk_binary(emb, k, nprobe); }, reps);
    pt.ivf_recall = recall_at_k(ivf.topk_binary(emb, k, nprobe), truth);
    pt.cascade_ms =
        1e3 * best_seconds([&] { ivf.topk_cascade(emb, k, nprobe, rerank); }, reps);
    pt.cascade_recall = recall_at_k(ivf.topk_cascade(emb, k, nprobe, rerank), truth);
    pt.cascade_speedup = exact_float_ms / pt.cascade_ms;
    sweep.push_back(pt);
    sweep_table.add_row({std::to_string(nprobe),
                         util::Table::num(100.0 * nprobe / cc, 1) + "%",
                         util::Table::num(pt.ivf_ms, 1), util::Table::num(pt.ivf_recall, 4),
                         util::Table::num(pt.cascade_ms, 1),
                         util::Table::num(pt.cascade_recall, 4),
                         util::Table::num(pt.cascade_speedup, 2) + "x"});
  }
  sweep_table.print();

  // -- the serving defaults: the gated numbers -------------------------------
  // The speedup gate times its two sides back to back, kGatePairs times,
  // and reads the median per-pair ratio: the start-up baseline above and a
  // cascade timed seconds later can see different machine states on a
  // shared host, which made a best-of-reps quotient flake around the gate.
  constexpr std::size_t kGatePairs = 7;
  std::vector<double> pair_exact_ms, pair_cascade_ms, pair_ratio;
  for (std::size_t p = 0; p < kGatePairs; ++p) {
    pair_exact_ms.push_back(1e3 * best_seconds([&] { sharded.topk_float(emb, k); }, 1));
    pair_cascade_ms.push_back(
        1e3 * best_seconds([&] { ivf.topk_cascade(emb, k, 0, rerank); }, 1));
    pair_ratio.push_back(pair_exact_ms.back() / pair_cascade_ms.back());
  }
  const double default_exact_ms = median(pair_exact_ms);
  const double default_ms = median(pair_cascade_ms);
  const double default_speedup = median(pair_ratio);
  const double default_recall = recall_at_k(ivf.topk_cascade(emb, k, 0, rerank), truth);
  const auto stats = ivf.probe_stats();
  const double prune_rate =
      stats.rows_swept ? static_cast<double>(stats.rows_pruned) / stats.rows_swept : 0.0;
  std::printf("defaults (nprobe=%zu, rerank=%zu): cascade %.1f ms, recall@%zu %.4f, "
              "%.2fx over exact float (%.1f ms; medians of %zu back-to-back pairs); "
              "block test pruned %.1f%% of swept rows\n",
              ivf.default_nprobe(), rerank, default_ms, k, default_recall, default_speedup,
              default_exact_ms, kGatePairs, 100.0 * prune_rate);

  // -- machine-readable artifact ---------------------------------------------
  if (args.has("json")) {
    const std::string json_path = args.get_str("json", "BENCH_ann.json");
    FILE* j = std::fopen(json_path.c_str(), "w");
    if (!j) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(j, "{\n");
    std::fprintf(j, "  \"bench\": \"ann_retrieval\",\n");
    std::fprintf(j,
                 "  \"config\": {\"classes\": %zu, \"dim\": %zu, \"expansion\": %zu, "
                 "\"queries\": %zu, \"k\": %zu, \"rerank\": %zu, \"centroids\": %zu, "
                 "\"default_nprobe\": %zu},\n",
                 classes, dim, expansion, n_queries, k, rerank, cc, ivf.default_nprobe());
    std::fprintf(j,
                 "  \"exact\": {\"float_ms\": %.3f, \"binary_ms\": %.3f, "
                 "\"binary_recall_ceiling\": %.5f},\n",
                 exact_float_ms, exact_binary_ms, binary_ceiling);
    std::fprintf(j, "  \"sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& p = sweep[i];
      std::fprintf(j,
                   "    {\"nprobe\": %zu, \"ivf_ms\": %.3f, \"ivf_recall\": %.5f, "
                   "\"cascade_ms\": %.3f, \"cascade_recall\": %.5f, \"speedup\": %.3f}%s\n",
                   p.nprobe, p.ivf_ms, p.ivf_recall, p.cascade_ms, p.cascade_recall,
                   p.cascade_speedup, i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(j, "  ],\n");
    std::fprintf(j,
                 "  \"defaults\": {\"cascade_ms\": %.3f, \"exact_float_ms\": %.3f, "
                 "\"recall\": %.5f, \"speedup\": %.3f, \"gate_pairs\": %zu, "
                 "\"prune_rate\": %.4f}\n",
                 default_ms, default_exact_ms, default_recall, default_speedup, kGatePairs,
                 prune_rate);
    std::fprintf(j, "}\n");
    std::fclose(j);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  // -- acceptance gates ------------------------------------------------------
  const double min_recall = args.get_double("min-recall", 0.0);
  const double min_speedup = args.get_double("min-speedup", 0.0);
  int rc = 0;
  if (min_recall > 0.0) {
    std::printf("recall@%zu at defaults: %.4f (gate >= %.4f: %s)\n", k, default_recall,
                min_recall, default_recall >= min_recall ? "PASS" : "FAIL");
    if (default_recall < min_recall) {
      std::fprintf(stderr, "FAIL: cascade recall %.4f below required %.4f\n", default_recall,
                   min_recall);
      rc = 1;
    }
  } else {
    std::printf("recall@%zu at defaults: %.4f (informational — no gate set)\n", k,
                default_recall);
  }
  if (min_speedup > 0.0) {
    std::printf("cascade speedup at defaults: %.2fx (gate >= %.2fx: %s)\n", default_speedup,
                min_speedup, default_speedup >= min_speedup ? "PASS" : "FAIL");
    if (default_speedup < min_speedup) {
      std::fprintf(stderr, "FAIL: cascade speedup %.2fx below required %.2fx\n",
                   default_speedup, min_speedup);
      rc = 1;
    }
  } else {
    std::printf("cascade speedup at defaults: %.2fx (informational — no gate set)\n",
                default_speedup);
  }
  std::printf("wall time: %.1f s\n", wall.seconds());
  return rc;
}
