// Tests for data/image: the value type, distance metrics, PGM, ASCII.

#include "data/image.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "temp_path.hpp"

namespace hdtest::data {
namespace {

TEST(Image, DefaultIsEmpty) {
  Image img;
  EXPECT_TRUE(img.empty());
  EXPECT_EQ(img.size(), 0u);
}

TEST(Image, FilledConstruction) {
  Image img(4, 3, 7);
  EXPECT_EQ(img.width(), 4u);
  EXPECT_EQ(img.height(), 3u);
  EXPECT_EQ(img.size(), 12u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(img(r, c), 7);
    }
  }
}

TEST(Image, ZeroDimensionThrows) {
  EXPECT_THROW(Image(0, 5), std::invalid_argument);
  EXPECT_THROW(Image(5, 0), std::invalid_argument);
}

TEST(Image, BufferConstructionChecksSize) {
  std::vector<std::uint8_t> pixels{1, 2, 3, 4, 5, 6};
  const Image img(3, 2, pixels);
  EXPECT_EQ(img(0, 2), 3);
  EXPECT_EQ(img(1, 0), 4);
  EXPECT_THROW(Image(2, 2, pixels), std::invalid_argument);
}

TEST(Image, AtAndSetAreBoundsChecked) {
  Image img(2, 2);
  img.set(1, 1, 9);
  EXPECT_EQ(img.at(1, 1), 9);
  EXPECT_THROW((void)img.at(2, 0), std::out_of_range);
  EXPECT_THROW((void)img.at(0, 2), std::out_of_range);
  EXPECT_THROW(img.set(2, 0, 1), std::out_of_range);
}

TEST(Image, RowMajorLayout) {
  Image img(3, 2);
  img(0, 1) = 10;
  img(1, 2) = 20;
  EXPECT_EQ(img.pixels()[1], 10);
  EXPECT_EQ(img.pixels()[5], 20);
}

TEST(Image, AddClampedSaturates) {
  Image img(1, 1, 250);
  img.add_clamped(0, 0, 20);
  EXPECT_EQ(img(0, 0), 255);
  img.add_clamped(0, 0, -300);
  EXPECT_EQ(img(0, 0), 0);
  img.add_clamped(0, 0, 42);
  EXPECT_EQ(img(0, 0), 42);
}

TEST(Image, MeanIntensity) {
  Image img(2, 1);
  img(0, 0) = 10;
  img(0, 1) = 30;
  EXPECT_DOUBLE_EQ(img.mean_intensity(), 20.0);
  EXPECT_DOUBLE_EQ(Image().mean_intensity(), 0.0);
}

TEST(Image, CountDiff) {
  Image a(2, 2, 0);
  Image b = a;
  EXPECT_EQ(a.count_diff(b), 0u);
  b(0, 0) = 1;
  b(1, 1) = 2;
  EXPECT_EQ(a.count_diff(b), 2u);
  const Image c(3, 2, 0);
  EXPECT_THROW((void)a.count_diff(c), std::invalid_argument);
}

TEST(Distance, L1IsSumOfAbsDiffOver255) {
  Image a(2, 1, 0);
  Image b(2, 1, 0);
  b(0, 0) = 255;  // contributes 1.0
  b(0, 1) = 51;   // contributes 0.2
  EXPECT_NEAR(l1_distance(a, b), 1.2, 1e-12);
  EXPECT_NEAR(l1_distance(b, a), 1.2, 1e-12);  // symmetric
}

TEST(Distance, L2IsEuclideanOfNormalizedDeltas) {
  Image a(2, 1, 0);
  Image b(2, 1, 0);
  b(0, 0) = 255;
  b(0, 1) = 255;
  EXPECT_NEAR(l2_distance(a, b), std::sqrt(2.0), 1e-12);
}

TEST(Distance, LinfIsMaxNormalizedDelta) {
  Image a(3, 1, 100);
  Image b = a;
  b(0, 1) = 151;  // |51|/255 = 0.2
  b(0, 2) = 90;   // 10/255
  EXPECT_NEAR(linf_distance(a, b), 0.2, 1e-12);
}

TEST(Distance, IdenticalImagesAreZero) {
  const Image a(5, 5, 42);
  EXPECT_DOUBLE_EQ(l1_distance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(l2_distance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(linf_distance(a, a), 0.0);
}

TEST(Distance, ShapeMismatchThrows) {
  const Image a(2, 2);
  const Image b(2, 3);
  EXPECT_THROW((void)l1_distance(a, b), std::invalid_argument);
  EXPECT_THROW((void)l2_distance(a, b), std::invalid_argument);
  EXPECT_THROW((void)linf_distance(a, b), std::invalid_argument);
  EXPECT_THROW((void)diff_mask(a, b), std::invalid_argument);
}

TEST(Distance, TriangleInequalityHoldsForL2) {
  Image a(4, 4, 0);
  Image b(4, 4, 100);
  Image c(4, 4, 200);
  EXPECT_LE(l2_distance(a, c), l2_distance(a, b) + l2_distance(b, c) + 1e-12);
}

TEST(DiffMask, MarksExactlyChangedPixels) {
  Image a(2, 2, 0);
  Image b = a;
  b(0, 1) = 3;
  const auto mask = diff_mask(a, b);
  EXPECT_EQ(mask(0, 0), 0);
  EXPECT_EQ(mask(0, 1), 255);
  EXPECT_EQ(mask(1, 0), 0);
  EXPECT_EQ(mask(1, 1), 0);
}

class PgmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = unique_temp_path("hdtest_img", ".pgm").string();
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_;
};

TEST_F(PgmTest, RoundTripPreservesPixels) {
  Image img(7, 5);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 7; ++c) {
      img(r, c) = static_cast<std::uint8_t>(r * 7 + c);
    }
  }
  write_pgm(img, path_);
  const auto loaded = read_pgm(path_);
  EXPECT_EQ(loaded, img);
}

TEST_F(PgmTest, ReadRejectsWrongMagic) {
  {
    std::ofstream out(path_);
    out << "P2\n1 1\n255\n0\n";
  }
  EXPECT_THROW((void)read_pgm(path_), std::runtime_error);
}

TEST_F(PgmTest, ReadRejectsTruncatedData) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "P5\n4 4\n255\n";
    out << "ab";  // only 2 of 16 bytes
  }
  EXPECT_THROW((void)read_pgm(path_), std::runtime_error);
}

TEST(Pgm, MissingFileThrows) {
  EXPECT_THROW((void)read_pgm("/nonexistent_zzz.pgm"), std::runtime_error);
  EXPECT_THROW(write_pgm(Image(1, 1), "/nonexistent_dir_zzz/x.pgm"),
               std::runtime_error);
}

TEST(AsciiArt, DimensionsAndRamp) {
  Image img(3, 2, 0);
  img(0, 0) = 255;
  const auto art = ascii_art(img);
  // 2 lines of 3 chars + newlines.
  EXPECT_EQ(art.size(), 2u * 4u);
  EXPECT_EQ(art[0], '@');  // max intensity
  EXPECT_EQ(art[1], ' ');  // zero intensity
}

}  // namespace
}  // namespace hdtest::data
