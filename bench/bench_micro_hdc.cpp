// Micro-benchmarks of the HDC primitives: bind/bundle/similarity in both
// bipolar (int8 multiply) and packed-binary (XOR + popcount) forms — the
// operations the paper offloads to non-von-Neumann accelerators (§V).
#include <benchmark/benchmark.h>

#include "data/attribute_space.hpp"
#include "hdc/codebook.hpp"
#include "hdc/hypervector.hpp"

namespace {

using namespace hdczsc;

void BM_BipolarBind(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  auto a = hdc::BipolarHV::random(d, rng);
  auto b = hdc::BipolarHV::random(d, rng);
  for (auto _ : state) benchmark::DoNotOptimize(a.bind(b));
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(d));
}
BENCHMARK(BM_BipolarBind)->Arg(512)->Arg(1536)->Arg(8192);

void BM_BinaryBind(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  auto a = hdc::BinaryHV::random(d, rng);
  auto b = hdc::BinaryHV::random(d, rng);
  for (auto _ : state) benchmark::DoNotOptimize(a.bind(b));
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(d));
}
BENCHMARK(BM_BinaryBind)->Arg(512)->Arg(1536)->Arg(8192);

void BM_BipolarCosine(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  auto a = hdc::BipolarHV::random(d, rng);
  auto b = hdc::BipolarHV::random(d, rng);
  for (auto _ : state) benchmark::DoNotOptimize(a.cosine(b));
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(d));
}
BENCHMARK(BM_BipolarCosine)->Arg(512)->Arg(1536)->Arg(8192);

void BM_BinaryHammingSimilarity(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  util::Rng rng(4);
  auto a = hdc::BinaryHV::random(d, rng);
  auto b = hdc::BinaryHV::random(d, rng);
  for (auto _ : state) benchmark::DoNotOptimize(a.similarity(b));
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(d));
}
BENCHMARK(BM_BinaryHammingSimilarity)->Arg(512)->Arg(1536)->Arg(8192);

void BM_Bundle(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t d = 1536;
  util::Rng rng(5);
  std::vector<hdc::BipolarHV> items;
  for (std::size_t i = 0; i < k; ++i) items.push_back(hdc::BipolarHV::random(d, rng));
  for (auto _ : state) {
    hdc::BundleAccumulator acc(d);
    for (const auto& hv : items) acc.add(hv);
    benchmark::DoNotOptimize(acc.finalize(rng));
  }
}
BENCHMARK(BM_Bundle)->Arg(4)->Arg(16)->Arg(64);

void BM_HammingMany(benchmark::State& state) {
  // The serving hot path: one query vs. a whole packed prototype matrix in
  // a single contiguous XOR+popcount sweep (hdc::hamming_many_packed).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  util::Rng rng(11);
  auto query = hdc::BinaryHV::random(d, rng);
  const std::size_t words = query.words().size();
  std::vector<std::uint64_t> rows(n * words);
  for (auto& w : rows) w = rng.next_u64();
  std::vector<std::uint32_t> out(n);
  for (auto _ : state) {
    hdc::hamming_many_packed(query.words().data(), rows.data(), n, words, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(n * d));
}
BENCHMARK(BM_HammingMany)->Args({50, 256})->Args({200, 256})->Args({200, 2048})->Args({1000, 1536});

void BM_HammingMulti(benchmark::State& state, const char* kernel) {
  // The sharded exact scan's sweep (hdc::hamming_many_packed_multi): a
  // batch of queries against one catalog shard's worth of code rows,
  // pinned to one kernel variant so variants compare at each code width
  // (64-bit words per row) and batch size.
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  const std::size_t n_queries = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kRows = 62500;
  util::Rng rng(13);
  std::vector<std::uint64_t> rows(kRows * words), queries(n_queries * words);
  for (auto& w : rows) w = rng.next_u64();
  for (auto& w : queries) w = rng.next_u64();
  std::vector<std::uint32_t> out(n_queries * kRows);
  hdc::set_hamming_kernel(kernel);
  for (auto _ : state) {
    hdc::hamming_many_packed_multi(queries.data(), n_queries, rows.data(), kRows, words,
                                   out.data());
    benchmark::DoNotOptimize(out.data());
  }
  hdc::set_hamming_kernel("auto");
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(kRows * n_queries));
}

// One BM_HammingMulti/<variant> family per kernel variant this CPU runs.
const bool hamming_multi_registered = [] {
  for (const char* kernel : {"portable", "popcnt", "avx512"}) {
    if (!hdc::set_hamming_kernel(kernel)) continue;
    benchmark::RegisterBenchmark(("BM_HammingMulti/" + std::string(kernel)).c_str(),
                                 BM_HammingMulti, kernel)
        ->ArgsProduct({{1, 2, 3, 4, 8, 32}, {1, 2, 3, 4, 16}})
        ->ArgNames({"words", "queries"});
  }
  hdc::set_hamming_kernel("auto");
  return true;
}();

void BM_HammingTopK(benchmark::State& state, const char* kernel) {
  // The binary top-k paths' fused scan-and-select
  // (hdc::hamming_topk_packed): a batch of queries against one catalog
  // shard's worth of code rows (62,500 rows), top-10 per query, pinned to
  // one kernel variant. The pruned-share counter is the share of
  // (query, row) pairs the block test skipped.
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  const std::size_t n_queries = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kRows = 62500, kTop = 10;
  util::Rng rng(14);
  std::vector<std::uint64_t> rows(kRows * words), queries(n_queries * words);
  for (auto& w : rows) w = rng.next_u64();
  for (auto& w : queries) w = rng.next_u64();
  std::vector<std::uint64_t> slots(n_queries * kTop);
  std::vector<hdc::HammingTopK> heaps;
  std::uint64_t pruned = 0;
  hdc::set_hamming_kernel(kernel);
  for (auto _ : state) {
    heaps.clear();
    for (std::size_t q = 0; q < n_queries; ++q) heaps.emplace_back(slots.data() + q * kTop, kTop);
    pruned += hdc::hamming_topk_packed(queries.data(), n_queries, rows.data(), kRows, words, {},
                                       heaps.data());
    benchmark::DoNotOptimize(slots.data());
  }
  hdc::set_hamming_kernel("auto");
  const double pairs = static_cast<double>(state.iterations()) * kRows * n_queries;
  state.counters["pruned_share"] = static_cast<double>(pruned) / pairs;
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(kRows * n_queries));
}

// One BM_HammingTopK/<variant> family per kernel variant this CPU runs:
// catalog's code width (4 words) and 2048-bit rows (32 words).
const bool hamming_topk_registered = [] {
  for (const char* kernel : {"portable", "popcnt", "avx512"}) {
    if (!hdc::set_hamming_kernel(kernel)) continue;
    benchmark::RegisterBenchmark(("BM_HammingTopK/" + std::string(kernel)).c_str(),
                                 BM_HammingTopK, kernel)
        ->ArgsProduct({{4, 32}, {1, 4, 16}})
        ->ArgNames({"words", "queries"});
  }
  hdc::set_hamming_kernel("auto");
  return true;
}();

void BM_HammingManyVsLoop(benchmark::State& state) {
  // Baseline for BM_HammingMany: the same scan through the one-pair
  // BinaryHV::hamming API (per-row dispatch, no contiguous layout).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  util::Rng rng(12);
  auto query = hdc::BinaryHV::random(d, rng);
  std::vector<hdc::BinaryHV> protos;
  for (std::size_t i = 0; i < n; ++i) protos.push_back(hdc::BinaryHV::random(d, rng));
  std::vector<std::size_t> out(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) out[i] = query.hamming(protos[i]);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(n * d));
}
BENCHMARK(BM_HammingManyVsLoop)->Args({200, 256})->Args({200, 2048});

void BM_AssociativeLookup(benchmark::State& state) {
  // Nearest-item search over a codebook of `n` entries at d=1536 — the
  // inference primitive of the attribute-extraction head.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(6);
  hdc::Codebook cb(n, 1536, rng);
  auto query = hdc::BipolarHV::random(1536, rng);
  for (auto _ : state) benchmark::DoNotOptimize(cb.nearest(query));
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(n));
}
BENCHMARK(BM_AssociativeLookup)->Arg(61)->Arg(312);

void BM_DictionaryMaterialization(benchmark::State& state) {
  // Rematerializing the full 312 x d dictionary from the two codebooks
  // (the "on the fly" binding of §III-A).
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  auto space = data::AttributeSpace::cub();
  hdc::FactoredDictionary dict(space.n_groups(), space.n_values(), space.hdc_pairs(), d, rng);
  for (auto _ : state) benchmark::DoNotOptimize(dict.dictionary_tensor());
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * 312 *
                          static_cast<long>(d));
}
BENCHMARK(BM_DictionaryMaterialization)->Arg(256)->Arg(1536);

}  // namespace
