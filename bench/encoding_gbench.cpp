/// \file encoding_gbench.cpp
/// google-benchmark microbenchmarks for image encoding — the ablation behind
/// incremental delta re-encoding (IncrementalPixelEncoder), which the fuzzer
/// uses because bundling is linear and most mutations touch few pixels.
///
/// Expected shape: full encode costs O(W*H) pixel-HV accumulations; the
/// incremental re-encoder costs O(changed pixels), so sparse fuzzing
/// mutations (rand: 3 pixels, row: 28 pixels) re-encode 5-100x faster. The
/// training-path encode_into (no bipolarize) is also measured, and so are
/// the packed paths the fuzz loop and model serving run: the fused full
/// encode (encode_packed, MappedModel::encode_packed) and the packed delta
/// re-encode, whose crossover against full encode sets the dense-routing
/// constant in IncrementalPixelEncoder::encode_mutant_packed.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "hdc/serialize.hpp"
#include "util/rng.hpp"

namespace {

using namespace hdtest;

hdc::ModelConfig bench_config(std::size_t dim) {
  hdc::ModelConfig config;
  config.dim = dim;
  config.seed = 99;
  return config;
}

data::Image sample_digit() {
  util::Rng rng(5);
  return data::render_digit(8, rng);
}

void BM_FullEncode(benchmark::State& state) {
  const hdc::PixelEncoder enc(bench_config(static_cast<std::size_t>(state.range(0))),
                              28, 28);
  const auto img = sample_digit();
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(img));
  }
}
BENCHMARK(BM_FullEncode)->Arg(1024)->Arg(4096)->Arg(10000);

/// Packed full encode (one fused bundle_bound pass): the dense-routed
/// mutant's and the training batch's encode.
void BM_FullEncodePacked(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const hdc::PixelEncoder enc(bench_config(dim), 28, 28);
  const auto img = sample_digit();
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode_packed(img));
  }
}
BENCHMARK(BM_FullEncodePacked)->Arg(1024)->Arg(4096)->Arg(16384);

/// MappedModel::encode_packed: the same kernel over codebook views into a
/// mapped (checksum-verified) v3 file — the serving path.
void BM_MappedEncodePacked(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto pair = data::make_digit_train_test(5, 1, 17);
  hdc::HdcClassifier model(bench_config(dim), 28, 28, 10);
  model.fit(pair.train);
  const auto path =
      (std::filesystem::temp_directory_path() /
       ("hdtest_encoding_gbench_" + std::to_string(dim) + ".hdtm"))
          .string();
  hdc::save_model(model, path);
  {
    const hdc::MappedModel mapped(path);
    const auto img = sample_digit();
    for (auto _ : state) {
      benchmark::DoNotOptimize(mapped.encode_packed(img));
    }
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_MappedEncodePacked)->Arg(4096)->Arg(16384);

void BM_EncodeIntoAccumulator(benchmark::State& state) {
  const hdc::PixelEncoder enc(bench_config(static_cast<std::size_t>(state.range(0))),
                              28, 28);
  const auto img = sample_digit();
  hdc::Accumulator acc(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    acc.clear();
    enc.encode_into(img, acc);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_EncodeIntoAccumulator)->Arg(4096);

/// Packed delta re-encode (csa_patch + slice_bipolarize) with
/// state.range(1) changed pixels at distinct positions, each moving to a
/// different value level. Read against BM_FullEncodePacked at the same D:
/// the pixel count where the two cross is the dense-routing point of
/// encode_mutant_packed, which routes a mutant with more than W*H/20
/// (39 of 784) value changes to the full encode, so the 64 and 98 rows
/// time that routed full encode. The crossover recorded in encoder.cpp was
/// measured with the routing bound at W*H/8, when those rows still timed
/// the delta path.
void BM_IncrementalEncodePacked(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const hdc::PixelEncoder enc(bench_config(dim), 28, 28);
  const auto base = sample_digit();
  hdc::IncrementalPixelEncoder inc(enc);
  inc.rebase(base);
  std::vector<std::size_t> order(base.pixels().size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Rng rng(7);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_u64(i)]);
  }
  auto mutant = base;
  for (std::int64_t i = 0; i < state.range(1); ++i) {
    auto& px = mutant.pixels()[order[static_cast<std::size_t>(i)]];
    px = static_cast<std::uint8_t>(px ^ 0x80);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(inc.encode_mutant_packed(mutant));
  }
  state.counters["patches"] = static_cast<double>(inc.last_delta_count());
}
BENCHMARK(BM_IncrementalEncodePacked)
    ->Args({4096, 3})     // 'rand' strategy footprint
    ->Args({4096, 33})    // a campaign-rand stream's grown delta
    ->Args({4096, 39})    // the most the delta path takes at 784 pixels
    ->Args({4096, 64})
    ->Args({4096, 98})
    ->Args({16384, 3})
    ->Args({16384, 33})
    ->Args({16384, 39})
    ->Args({16384, 64})
    ->Args({16384, 98});

void BM_TrainOneImage(benchmark::State& state) {
  // The paper's training inner loop: encode + add into a class lane.
  const auto dim = static_cast<std::size_t>(state.range(0));
  const hdc::PixelEncoder enc(bench_config(dim), 28, 28);
  const auto img = sample_digit();
  hdc::Accumulator class_lane(dim);
  for (auto _ : state) {
    class_lane.add(enc.encode(img));
    benchmark::DoNotOptimize(class_lane);
  }
}
BENCHMARK(BM_TrainOneImage)->Arg(4096);

void BM_NGramEncodeText(benchmark::State& state) {
  const hdc::NGramTextEncoder enc(bench_config(4096),
                                  "abcdefghijklmnopqrstuvwxyz ", 3);
  const std::string text(static_cast<std::size_t>(state.range(0)), 'q');
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(text));
  }
}
BENCHMARK(BM_NGramEncodeText)->Arg(100)->Arg(500);

}  // namespace

BENCHMARK_MAIN();
