// Remat file layout property suite: a model saved with
// save_model(..., CodebookMode::kRemat) omits its codebook mirrors, and every
// loader regenerates them from the seed. Whatever is served from that file —
// stream-loaded or memory-mapped — must be bit-identical to the stored-layout
// file in everything it computes (predictions, fuzz campaign records) across
// every available kernel backend, diffed against the scalar oracle backend.
// Also pins the regeneration rule itself (PackedItemMemory::remat against
// packing the dense ItemMemory) at the word-tail dims, and the unverified
// map's dense-free cold start.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "backend_guard.hpp"
#include "data/synthetic_digits.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutation.hpp"
#include "hdc/instrument.hpp"
#include "hdc/serialize.hpp"
#include "util/simd/kernels.hpp"

namespace hdtest::hdc {
namespace {

const data::TrainTestPair& digits() {
  static const data::TrainTestPair pair =
      data::make_digit_train_test(12, 6, 777);
  return pair;
}

HdcClassifier trained(std::size_t dim) {
  ModelConfig config;
  config.dim = dim;
  config.seed = 4242;
  HdcClassifier model(config, 28, 28, 10);
  model.fit(digits().train);
  return model;
}

/// A v3 model file on disk in the given codebook layout, removed on scope
/// exit.
class ModelFile {
 public:
  ModelFile(const HdcClassifier& model, CodebookMode codebooks,
            const char* tag) {
    path_ = (std::filesystem::temp_directory_path() /
             (std::string("hdtest_remat_") + tag + "_" +
              std::to_string(std::random_device{}()) + ".hdtm"))
                .string();
    save_model(model, path_, codebooks);
  }
  ~ModelFile() { std::filesystem::remove(path_); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

// The acceptance sweep: dims covering word-tail boundaries and production
// scale, every available kernel backend, stored vs remat file, stream load
// vs mapped — one bit-identical prediction vector per cell, the expected one
// computed from the trained model on the scalar oracle backend.
TEST(CodebookRemat, PredictionsBitIdenticalAcrossEveryCell) {
  for (const std::size_t dim : {63u, 64u, 65u, 4096u, 16384u}) {
    const auto model = trained(dim);
    const auto expected = [&] {
      BackendGuard oracle("oracle");
      return model.predict_batch(digits().test.images);
    }();
    const ModelFile stored(model, CodebookMode::kStored, "cellstored");
    const ModelFile remat(model, CodebookMode::kRemat, "cellremat");
    ASSERT_LT(std::filesystem::file_size(remat.path()),
              std::filesystem::file_size(stored.path()))
        << "dim=" << dim;
    for (const auto* backend : util::simd::available_kernels()) {
      BackendGuard kernel_guard(backend->name);
      for (const auto* file : {&stored, &remat}) {
        const char* layout = file == &stored ? "stored" : "remat";
        EXPECT_EQ(load_model(file->path()).predict_batch(digits().test.images),
                  expected)
            << "load_model " << layout << " dim=" << dim
            << " backend=" << backend->name;
        const MappedModel mapped(file->path());
        EXPECT_EQ(mapped.predict_batch(digits().test.images), expected)
            << "MappedModel " << layout << " dim=" << dim
            << " backend=" << backend->name;
      }
    }
  }
}

TEST(CodebookRemat, CampaignRecordsBitIdenticalAcrossStorageAndDevices) {
  // run_campaign records of a model loaded from a remat file must match the
  // stored-file model's under every kernel backend — the full differential-
  // fuzzing observable surface. The reference run is the trained model on
  // the scalar oracle backend.
  const auto model = trained(2048);
  const ModelFile stored_file(model, CodebookMode::kStored, "campstored");
  const ModelFile remat_file(model, CodebookMode::kRemat, "campremat");
  const auto stored = load_model(stored_file.path());
  const auto remat = load_model(remat_file.path());
  const fuzz::GaussNoiseMutation strategy;
  fuzz::FuzzConfig fuzz_config;
  fuzz_config.iter_times = 4;
  const fuzz::Fuzzer reference_fuzzer(model, strategy, fuzz_config);
  const fuzz::Fuzzer stored_fuzzer(stored, strategy, fuzz_config);
  const fuzz::Fuzzer remat_fuzzer(remat, strategy, fuzz_config);
  fuzz::CampaignConfig campaign;
  campaign.max_images = 4;
  campaign.workers = 2;

  const auto baseline = [&] {
    BackendGuard oracle("oracle");
    return fuzz::run_campaign(reference_fuzzer, digits().test, campaign);
  }();
  for (const auto* backend : util::simd::available_kernels()) {
    BackendGuard guard(backend->name);
    const auto stored_result =
        fuzz::run_campaign(stored_fuzzer, digits().test, campaign);
    const auto remat_result =
        fuzz::run_campaign(remat_fuzzer, digits().test, campaign);
    if (const auto diff = fuzz::first_divergence(baseline, stored_result)) {
      ADD_FAILURE() << "stored file backend=" << backend->name << ": "
                    << diff->describe();
    }
    if (const auto diff = fuzz::first_divergence(stored_result, remat_result)) {
      ADD_FAILURE() << "remat file vs stored file backend=" << backend->name
                    << ": " << diff->describe();
    }
  }
}

TEST(CodebookRemat, UnverifiedRematMapIsDenseFreeAndBitIdentical) {
  // Mapping a remat file regenerates the omitted codebooks straight into
  // packed words: no dense Hypervector, no from_dense re-pack, no ItemMemory
  // generation — with the digest sweep off, and through serving.
  const auto model = trained(1024);
  const auto expected = model.predict_batch(digits().test.images);
  const ModelFile file(model, CodebookMode::kRemat, "densefree");
  MapOptions options;
  options.verify_checksum = false;
  instrument::reset();
  const MappedModel mapped(file.path(), options);
  const auto labels = mapped.predict_batch(digits().test.images);
  EXPECT_EQ(instrument::dense_hv_materializations(), 0u);
  EXPECT_EQ(instrument::packed_from_dense(), 0u);
  EXPECT_EQ(instrument::item_memory_generations(), 0u);
  EXPECT_EQ(instrument::packed_codebook_builds(), 0u);
  EXPECT_EQ(labels, expected);
}

TEST(CodebookRemat, RegeneratedRowsMatchPackedItemMemoryAtTailDims) {
  // The regeneration rule (one complemented rng word per 64 lanes, padding
  // past dim cleared) must reproduce packing the dense random codebook,
  // including the partial, exact and one-over last words.
  for (const std::size_t dim : {63u, 64u, 65u}) {
    constexpr std::size_t kCount = 7;
    constexpr std::uint64_t kSeed = 0x5eedULL;
    const PackedItemMemory packed(
        ItemMemory(kCount, dim, kSeed, ValueStrategy::kRandom));
    const auto regenerated = PackedItemMemory::remat(dim, kCount, kSeed);
    EXPECT_TRUE(regenerated.owning());
    ASSERT_EQ(regenerated.count(), kCount);
    ASSERT_EQ(regenerated.words_per_entry(), packed.words_per_entry());
    for (std::size_t i = 0; i < kCount; ++i) {
      const auto want = packed[i];
      const auto got = regenerated[i];
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "dim=" << dim << " row=" << i;
    }
    EXPECT_EQ(regenerated.content_digest(), packed.content_digest())
        << "dim=" << dim;
  }
}

}  // namespace
}  // namespace hdtest::hdc
