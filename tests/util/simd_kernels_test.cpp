// Property tests for the kernel table: every available backend must agree
// bit-for-bit with the scalar oracle backend on every kernel. The shapes
// are the edge cases (word counts straddling the 1/2/4/8-word vector
// widths plus larger mixed tails) followed by shapes drawn from a seeded
// util::Rng: words 1-300, ladder levels 1-12, classes 1-32 with duplicate
// prototype rows so ties occur, and ref_class at the first and last class.
// The bundling kernel has its own shape list (pixel counts around the
// 16-pixel Harley–Seal rounds, lane tails, repeated value rows).
// SWAR is one of the backends swept, so every backend also matches SWAR.
// Also covers the selection API itself (registry shape, forced selection,
// unknown-name rejection, the oracle never being auto-selected).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "util/simd/kernels.hpp"

namespace hdtest::util::simd {
namespace {

/// One block shape: packed word count, bit-slice ladder depth, and AM
/// class count.
struct Shape {
  std::size_t words = 1;
  std::size_t levels = 1;
  std::size_t classes = 1;
};

/// Edge shapes, then kSeededShapes shapes from a fixed-seed Rng — the same
/// list every run, so a failure names a reproducible shape.
std::vector<Shape> shapes() {
  constexpr std::size_t kSeededShapes = 24;
  const std::size_t edge_words[] = {1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 128, 129};
  const std::size_t edge_levels[] = {1, 2, 3, 5, 11, 12};
  const std::size_t edge_classes[] = {1, 2, 7, 32};
  std::vector<Shape> out;
  for (std::size_t i = 0; i < std::size(edge_words); ++i) {
    out.push_back({edge_words[i], edge_levels[i % std::size(edge_levels)],
                   edge_classes[i % std::size(edge_classes)]});
  }
  Rng rng(0x5eed5a9e);
  for (std::size_t i = 0; i < kSeededShapes; ++i) {
    out.push_back({1 + rng.uniform_u64(300), 1 + rng.uniform_u64(12),
                   1 + rng.uniform_u64(32)});
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Shape& shape) {
  return os << "words=" << shape.words << " levels=" << shape.levels
            << " classes=" << shape.classes;
}

std::vector<std::uint64_t> random_words(std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> out(n);
  for (auto& w : out) w = rng.next_u64();
  return out;
}

const Kernels& oracle() {
  for (const Kernels* k : available_kernels()) {
    if (std::strcmp(k->name, "oracle") == 0) return *k;
  }
  throw std::logic_error("oracle backend missing from the available list");
}

TEST(SimdRegistry, SwarIsAlwaysRegisteredAndAvailable) {
  ASSERT_FALSE(registered_kernels().empty());
  ASSERT_FALSE(available_kernels().empty());
  bool found = false;
  for (const Kernels* k : available_kernels()) {
    found = found || std::strcmp(k->name, "swar") == 0;
    // Every available backend must also be registered.
    bool registered = false;
    for (const Kernels* r : registered_kernels()) registered |= r == k;
    EXPECT_TRUE(registered) << k->name;
  }
  EXPECT_TRUE(found);
}

TEST(SimdRegistry, OracleIsAvailableLastAndNeverAutoSelected) {
  ASSERT_FALSE(available_kernels().empty());
  EXPECT_STREQ(available_kernels().back()->name, "oracle");
  EXPECT_STREQ(registered_kernels().back()->name, "oracle");
  // Default selection picks the best backend; only an explicit
  // HDTEST_KERNEL_BACKEND=oracle may select the oracle.
  set_kernels_for_testing(nullptr);
  const char* forced = std::getenv("HDTEST_KERNEL_BACKEND");
  if (forced == nullptr || std::strcmp(forced, "oracle") != 0) {
    EXPECT_STRNE(kernels().name, "oracle");
  } else {
    EXPECT_STREQ(kernels().name, "oracle");
  }
}

TEST(SimdRegistry, ActiveBackendIsAvailable) {
  const Kernels& active = kernels();
  bool found = false;
  for (const Kernels* k : available_kernels()) found |= k == &active;
  EXPECT_TRUE(found) << active.name;
}

TEST(SimdRegistry, ForcingUnknownBackendThrows) {
  EXPECT_THROW(set_kernels_for_testing("definitely-not-a-backend"),
               std::invalid_argument);
  // A failed force must not have changed the active backend.
  const Kernels& active = kernels();
  bool found = false;
  for (const Kernels* k : available_kernels()) found |= k == &active;
  EXPECT_TRUE(found);
}

TEST(SimdRegistry, ForcingEachAvailableBackendSticks) {
  for (const Kernels* k : available_kernels()) {
    set_kernels_for_testing(k->name);
    EXPECT_STREQ(kernels().name, k->name);
  }
  set_kernels_for_testing(nullptr);  // restore default selection
}

TEST(SimdKernels, XorPopcountMatchesSwarEverywhere) {
  Rng rng(11);
  for (const Shape& shape : shapes()) {
    const std::size_t n = shape.words;
    const auto a = random_words(n, rng);
    const auto b = random_words(n, rng);
    const auto expected = oracle().xor_popcount(a.data(), b.data(), n);
    for (const Kernels* k : available_kernels()) {
      EXPECT_EQ(k->xor_popcount(a.data(), b.data(), n), expected)
          << k->name << " " << shape;
      // Identical inputs: distance zero on every backend.
      EXPECT_EQ(k->xor_popcount(a.data(), a.data(), n), 0u)
          << k->name << " " << shape;
    }
  }
}

/// One bundle_bound shape: packed words per row, pixel count, and the
/// tail bits cut from the last word (lane count = 64 * words - tail).
struct BundleShape {
  std::size_t words = 1;
  std::size_t count = 0;
  std::size_t tail = 0;
};

std::ostream& operator<<(std::ostream& os, const BundleShape& shape) {
  return os << "words=" << shape.words << " count=" << shape.count
            << " tail=" << shape.tail;
}

/// Every edge word count (straddling the 1/4/8-word block widths) crossed
/// with every edge pixel count (Harley–Seal round boundaries at 16, odd and
/// even, an MNIST image and one more), then kSeededShapes shapes drawn from
/// a fixed-seed Rng: words 1-300, counts 0-1000, any tail.
std::vector<BundleShape> bundle_shapes() {
  constexpr std::size_t kSeededShapes = 24;
  const std::size_t edge_words[] = {1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17};
  const std::size_t edge_counts[] = {0, 1, 2, 15, 16, 17, 31, 784, 785};
  std::vector<BundleShape> out;
  std::size_t i = 0;
  for (const std::size_t words : edge_words) {
    for (const std::size_t count : edge_counts) {
      // Tails cycle through none, a single lane, and a mid-word cut.
      const std::size_t tails[] = {0, 63, 24};
      out.push_back({words, count, tails[i++ % std::size(tails)]});
    }
  }
  Rng rng(0xb0b0b0);
  for (std::size_t k = 0; k < kSeededShapes; ++k) {
    out.push_back({1 + rng.uniform_u64(300), rng.uniform_u64(1001),
                   rng.uniform_u64(64)});
  }
  return out;
}

TEST(SimdKernels, BundleBoundMatchesOracleOnEveryShape) {
  Rng rng(12);
  for (const BundleShape& shape : bundle_shapes()) {
    const std::size_t words = shape.words;
    const std::size_t bits = words * 64 - shape.tail;
    const std::size_t count = shape.count;
    // Rows one word wider than the packed width on odd pixel counts, so a
    // kernel that confuses stride with width shows.
    const std::size_t stride = words + count % 2;
    // Half the shapes pair every pixel with its complement under the same
    // value row: each pair adds exactly one set bit per lane, so with an
    // even count every lane sits at count/2 and Eq. 1 takes the tie-break.
    const bool paired = rng.uniform_u64(2) == 0;
    auto positions = random_words(count * stride, rng);
    // Few value rows, drawn with repetition.
    const std::size_t value_count = 1 + rng.uniform_u64(3);
    const auto values = random_words(value_count * stride, rng);
    std::vector<const std::uint64_t*> rows(count);
    for (std::size_t p = 0; p < count; ++p) {
      rows[p] = values.data() + rng.uniform_u64(value_count) * stride;
      if (paired && p % 2 == 1) {
        rows[p] = rows[p - 1];
        for (std::size_t w = 0; w < stride; ++w) {
          positions[p * stride + w] = ~positions[(p - 1) * stride + w];
        }
      }
    }
    const auto tb = random_words(words, rng);
    std::vector<std::int32_t> lanes0(bits);
    for (auto& lane : lanes0) {
      lane = static_cast<std::int32_t>(rng.uniform_u64(9)) - 4;
    }

    std::vector<std::uint64_t> expected(words, ~0ULL);
    auto expected_lanes = lanes0;
    oracle().bundle_bound(positions.data(), stride, rows.data(), count, bits,
                          tb.data(), expected.data(), expected_lanes.data());
    EXPECT_EQ(expected.back() & ~tail_mask(bits), 0u) << shape;
    if (paired && count % 2 == 0) {
      // All ties: the result is the tie-break pattern, and every lane sum
      // is zero.
      auto ties = tb;
      ties.back() &= tail_mask(bits);
      EXPECT_EQ(expected, ties) << shape;
      EXPECT_EQ(expected_lanes, lanes0) << shape;
    }
    for (const Kernels* k : available_kernels()) {
      std::vector<std::uint64_t> out(words, ~0ULL);
      auto lanes = lanes0;
      k->bundle_bound(positions.data(), stride, rows.data(), count, bits,
                      tb.data(), out.data(), lanes.data());
      EXPECT_EQ(out, expected) << k->name << " " << shape;
      EXPECT_EQ(lanes, expected_lanes) << k->name << " " << shape;
      // Without lanes: the same packed result.
      std::vector<std::uint64_t> packed_only(words, ~0ULL);
      k->bundle_bound(positions.data(), stride, rows.data(), count, bits,
                      tb.data(), packed_only.data(), nullptr);
      EXPECT_EQ(packed_only, expected) << k->name << " " << shape;
    }
  }
}

TEST(SimdKernels, CsaPatchMatchesSwar) {
  Rng rng(13);
  for (const Shape& shape : shapes()) {
    const std::size_t words = shape.words;
    // Zeroed top two levels give the bias headroom the re-encoder
    // guarantees (a patch adds at most 6 per lane), so the ripple
    // terminates inside the bank just like the re-encoder's use.
    const std::size_t levels = std::max<std::size_t>(shape.levels, 3);
    auto bank0 = random_words(levels * words, rng);
    const auto top = static_cast<std::ptrdiff_t>((levels - 2) * words);
    std::fill(bank0.begin() + top, bank0.end(), 0);
    const auto pos = random_words(words, rng);
    const auto old_val = random_words(words, rng);
    const auto new_val = random_words(words, rng);
    auto expected = bank0;
    oracle().csa_patch(expected.data(), words, levels, pos.data(),
                       old_val.data(), new_val.data());
    for (const Kernels* k : available_kernels()) {
      auto bank = bank0;
      k->csa_patch(bank.data(), words, levels, pos.data(), old_val.data(),
                   new_val.data());
      EXPECT_EQ(bank, expected) << k->name << " " << shape;
    }
  }
}

TEST(SimdKernels, SliceBipolarizeMatchesSwar) {
  Rng rng(15);
  for (const Shape& shape : shapes()) {
    const std::size_t words = shape.words;
    const std::size_t levels = shape.levels;
    const auto bank = random_words(levels * words, rng);
    const auto tb = random_words(words, rng);
    const std::uint32_t max_count = (1u << levels) - 1;
    for (const std::uint32_t threshold :
         {0u, 1u, max_count, 1u << (levels - 1),
          static_cast<std::uint32_t>(rng.uniform_u64(max_count + 1u))}) {
      std::vector<std::uint64_t> expected(words, 0);
      oracle().slice_bipolarize(bank.data(), words, levels, threshold,
                                tb.data(), expected.data());
      for (const Kernels* k : available_kernels()) {
        std::vector<std::uint64_t> out(words, 0);
        k->slice_bipolarize(bank.data(), words, levels, threshold, tb.data(),
                            out.data());
        EXPECT_EQ(out, expected)
            << k->name << " " << shape << " threshold=" << threshold;
      }
    }
  }
}

TEST(SimdKernels, AmSweepMatchesSwarWithAndWithoutRef) {
  Rng rng(16);
  for (const Shape& shape : shapes()) {
    const std::size_t stride = shape.words;
    const std::size_t classes = shape.classes;
    auto am = random_words(classes * stride, rng);
    // Duplicate prototype rows: the last class repeats the first, so a
    // query equal to that row ties at distance zero and the lowest class
    // index must win.
    if (classes > 1) {
      const auto last = static_cast<std::ptrdiff_t>((classes - 1) * stride);
      std::copy_n(am.begin(), stride, am.begin() + last);
    }
    const std::size_t count = 13;
    const auto first_row = static_cast<std::ptrdiff_t>(stride);
    std::vector<std::vector<std::uint64_t>> queries;
    std::vector<const std::uint64_t*> qptrs;
    for (std::size_t q = 0; q < count; ++q) {
      // Query 2 equals the first (and duplicated last) prototype row.
      queries.push_back(q == 2 ? std::vector<std::uint64_t>(
                                     am.begin(), am.begin() + first_row)
                               : random_words(stride, rng));
    }
    for (const auto& query : queries) qptrs.push_back(query.data());
    for (const std::uint32_t ref_class :
         {0u, static_cast<std::uint32_t>(classes - 1)}) {
      std::vector<std::uint32_t> expected_cls(count);
      std::vector<std::uint64_t> expected_ham(count);
      std::vector<std::uint64_t> expected_ref(count);
      oracle().am_sweep(am.data(), classes, stride, qptrs.data(), count,
                        expected_cls.data(), expected_ham.data(),
                        expected_ref.data(), ref_class);
      ASSERT_EQ(expected_cls[2], 0u) << shape;
      ASSERT_EQ(expected_ham[2], 0u) << shape;
      for (const Kernels* k : available_kernels()) {
        std::vector<std::uint32_t> cls(count);
        std::vector<std::uint64_t> ham(count);
        std::vector<std::uint64_t> ref(count);
        k->am_sweep(am.data(), classes, stride, qptrs.data(), count,
                    cls.data(), ham.data(), ref.data(), ref_class);
        EXPECT_EQ(cls, expected_cls)
            << k->name << " " << shape << " ref_class=" << ref_class;
        EXPECT_EQ(ham, expected_ham)
            << k->name << " " << shape << " ref_class=" << ref_class;
        EXPECT_EQ(ref, expected_ref)
            << k->name << " " << shape << " ref_class=" << ref_class;
        // Null ref_ham: labels unchanged, no ref output required.
        std::vector<std::uint32_t> cls2(count);
        std::vector<std::uint64_t> ham2(count);
        k->am_sweep(am.data(), classes, stride, qptrs.data(), count,
                    cls2.data(), ham2.data(), nullptr, ref_class);
        EXPECT_EQ(cls2, expected_cls) << k->name << " " << shape;
        EXPECT_EQ(ham2, expected_ham) << k->name << " " << shape;
      }
    }
  }
}

TEST(SimdKernels, CpuFeaturesStringIsNonEmpty) {
  EXPECT_FALSE(cpu_features_string().empty());
}

}  // namespace
}  // namespace hdtest::util::simd
