/// \file hv_ops_gbench.cpp
/// google-benchmark microbenchmarks for the hypervector kernels — the
/// ablation behind keeping two backends: the dense int8 reference (the
/// paper's arithmetic, which every packed path is tested against) vs the
/// bit-packed XOR/popcount fast path.
///
/// Expected shape: packed bind and packed dot are ~10-50x faster than dense
/// at equal dimensionality (64 elements per word vs 1 per byte lane).

#include <benchmark/benchmark.h>

#include "hdc/assoc_memory.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/packed_hv.hpp"
#include "util/rng.hpp"

namespace {

using hdtest::hdc::Hypervector;
using hdtest::hdc::PackedHv;

void BM_DenseBind(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdtest::util::Rng rng(1);
  const auto a = Hypervector::random(dim, rng);
  const auto b = Hypervector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bind(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_DenseBind)->Arg(1024)->Arg(4096)->Arg(10000);

void BM_PackedBind(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdtest::util::Rng rng(1);
  const auto a = PackedHv::random(dim, rng);
  const auto b = PackedHv::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bind(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_PackedBind)->Arg(1024)->Arg(4096)->Arg(10000);

void BM_DenseDot(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdtest::util::Rng rng(2);
  const auto a = Hypervector::random(dim, rng);
  const auto b = Hypervector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dot(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_DenseDot)->Arg(1024)->Arg(4096)->Arg(10000);

void BM_PackedDot(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdtest::util::Rng rng(2);
  const auto a = PackedHv::random(dim, rng);
  const auto b = PackedHv::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dot(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_PackedDot)->Arg(1024)->Arg(4096)->Arg(10000);

void BM_DenseCosine(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdtest::util::Rng rng(3);
  const auto a = Hypervector::random(dim, rng);
  const auto b = Hypervector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cosine(a, b));
  }
}
BENCHMARK(BM_DenseCosine)->Arg(4096);

void BM_Permute(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdtest::util::Rng rng(4);
  const auto v = Hypervector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(permute(v, 1));
  }
}
BENCHMARK(BM_Permute)->Arg(4096);

void BM_AccumulatorAddBound(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdtest::util::Rng rng(5);
  const auto a = Hypervector::random(dim, rng);
  const auto b = Hypervector::random(dim, rng);
  hdtest::hdc::Accumulator acc(dim);
  for (auto _ : state) {
    acc.add_bound(a, b);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_AccumulatorAddBound)->Arg(4096)->Arg(10000);

void BM_Bipolarize(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdtest::util::Rng rng(6);
  const auto tie = Hypervector::random(dim, rng);
  hdtest::hdc::Accumulator acc(dim);
  for (int i = 0; i < 101; ++i) acc.add(Hypervector::random(dim, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.bipolarize(tie));
  }
}
BENCHMARK(BM_Bipolarize)->Arg(4096)->Arg(10000);

void BM_PackFromDense(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdtest::util::Rng rng(7);
  const auto v = Hypervector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PackedHv::from_dense(v));
  }
}
BENCHMARK(BM_PackFromDense)->Arg(4096);

void BM_AmPredictDense(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdtest::util::Rng rng(8);
  hdtest::hdc::AssociativeMemory am(10, dim, 3);
  for (std::size_t c = 0; c < 10; ++c) {
    am.add(c, Hypervector::random(dim, rng));
  }
  am.finalize();
  const auto query = Hypervector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(am.predict(query));
  }
}
BENCHMARK(BM_AmPredictDense)->Arg(4096)->Arg(10000);

void BM_AmPredictPacked(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdtest::util::Rng rng(8);
  hdtest::hdc::AssociativeMemory am(10, dim, 3);
  for (std::size_t c = 0; c < 10; ++c) {
    am.add(c, Hypervector::random(dim, rng));
  }
  am.finalize();
  const auto query = PackedHv::from_dense(Hypervector::random(dim, rng));
  const auto& packed = am.packed();
  for (auto _ : state) {
    benchmark::DoNotOptimize(packed.predict(query));
  }
}
BENCHMARK(BM_AmPredictPacked)->Arg(4096)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
