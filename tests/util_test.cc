#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/hash.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/table_printer.h"

namespace coverpack {
namespace {

TEST(MathUtilTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4u);
  EXPECT_EQ(CeilDiv(9, 3), 3u);
  EXPECT_EQ(CeilDiv(1, 5), 1u);
}

TEST(MathUtilTest, SaturatingPow) {
  EXPECT_EQ(SaturatingPow(2, 10), 1024u);
  EXPECT_EQ(SaturatingPow(10, 0), 1u);
  EXPECT_EQ(SaturatingPow(0, 5), 0u);
  EXPECT_EQ(SaturatingPow(UINT64_C(1) << 32, 3), UINT64_MAX);  // saturates
}

TEST(MathUtilTest, SaturatingAddAndMulAtBothCaps) {
  // The default cap: UINT64_MAX.
  EXPECT_EQ(SaturatingAdd(2, 3), 5u);
  EXPECT_EQ(SaturatingAdd(UINT64_MAX - 1, 1), UINT64_MAX);
  EXPECT_EQ(SaturatingAdd(UINT64_MAX - 1, 2), UINT64_MAX);
  EXPECT_EQ(SaturatingAdd(UINT64_MAX, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(SaturatingMul(0, UINT64_MAX), 0u);
  EXPECT_EQ(SaturatingMul(UINT64_MAX, 0), 0u);
  EXPECT_EQ(SaturatingMul(uint64_t{1} << 32, uint64_t{1} << 31), uint64_t{1} << 63);
  EXPECT_EQ(SaturatingMul(uint64_t{1} << 32, uint64_t{1} << 32), UINT64_MAX);
  // The planner's cap, 2^60: reaching it exactly is not saturation.
  constexpr uint64_t kCap = uint64_t{1} << 60;
  EXPECT_EQ(SaturatingAdd(kCap - 2, 1, kCap), kCap - 1);
  EXPECT_EQ(SaturatingAdd(kCap - 1, 1, kCap), kCap);
  EXPECT_EQ(SaturatingAdd(kCap - 1, 2, kCap), kCap);
  EXPECT_EQ(SaturatingMul(uint64_t{1} << 29, uint64_t{1} << 30, kCap), uint64_t{1} << 59);
  EXPECT_EQ(SaturatingMul(uint64_t{1} << 30, uint64_t{1} << 30, kCap), kCap);
  EXPECT_EQ(SaturatingMul(uint64_t{1} << 30, uint64_t{1} << 31, kCap), kCap);
  EXPECT_EQ(SaturatingMul(0, kCap + 1, kCap), 0u);
  // An input already above the cap gives the cap.
  EXPECT_EQ(SaturatingAdd(kCap + 5, 0, kCap), kCap);
  EXPECT_EQ(SaturatingAdd(kCap + 5, 1, kCap), kCap);
  EXPECT_EQ(SaturatingAdd(1, kCap + 5, kCap), kCap);
  EXPECT_EQ(SaturatingMul(kCap + 5, 1, kCap), kCap);
  EXPECT_EQ(SaturatingMul(1, kCap + 5, kCap), kCap);
}

TEST(MathUtilTest, IntegerRoots) {
  EXPECT_EQ(FloorNthRoot(64, 3), 4u);
  EXPECT_EQ(FloorNthRoot(63, 3), 3u);
  EXPECT_EQ(CeilNthRoot(64, 3), 4u);
  EXPECT_EQ(CeilNthRoot(65, 3), 5u);
  EXPECT_EQ(FloorNthRoot(1, 7), 1u);
  EXPECT_EQ(FloorNthRoot(0, 2), 0u);
  EXPECT_EQ(FloorNthRoot(1000000, 1), 1000000u);
  // Large values stay exact (no floating-point drift).
  uint64_t big = UINT64_C(999999999999999999);
  uint64_t root = FloorNthRoot(big, 2);
  EXPECT_LE(root * root, big);
  EXPECT_GT((root + 1) * (root + 1), big);
}

TEST(MathUtilTest, PowerLawFitRecoversSlope) {
  // y = 5 * x^(-1/3).
  std::vector<double> xs{4, 16, 64, 256};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(5.0 * std::pow(x, -1.0 / 3.0));
  PowerLawFit fit = FitPowerLaw(xs, ys);
  EXPECT_NEAR(fit.slope, -1.0 / 3.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(MathUtilTest, PowerLawFitSkipsNonPositive) {
  std::vector<double> xs{1, 2, 0, 4};
  std::vector<double> ys{2, 4, 100, 8};
  PowerLawFit fit = FitPowerLaw(xs, ys);
  EXPECT_NEAR(fit.slope, 1.0, 1e-9);  // the (0, 100) point is ignored
}

TEST(RandomTest, DeterministicStreams) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(43);
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    int64_t v = rng.UniformInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, UniformIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 80000; ++i) ++counts[rng.Uniform(8)];
  for (int count : counts) {
    EXPECT_GT(count, 9200);
    EXPECT_LT(count, 10800);
  }
}

TEST(RandomTest, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.25);
  EXPECT_GT(hits, 2200);
  EXPECT_LT(hits, 2800);
}

TEST(RandomTest, ZipfIsSkewed) {
  Rng rng(5);
  ZipfSampler sampler(100, 1.2);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[sampler.Sample(&rng)];
  // Rank 0 dominates rank 50 heavily.
  EXPECT_GT(counts[0], 10 * std::max(1, counts[50]));
}

TEST(RandomTest, ZipfZeroSkewIsUniform) {
  Rng rng(5);
  ZipfSampler sampler(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[sampler.Sample(&rng)];
  for (int count : counts) {
    EXPECT_GT(count, 4300);
    EXPECT_LT(count, 5700);
  }
}

TEST(RandomTest, ShuffleIsAPermutation) {
  Rng rng(9);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = items;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(HashTest, MixAndCombine) {
  EXPECT_NE(MixHash(1), MixHash(2));
  EXPECT_NE(HashCombine(0, 1), HashCombine(1, 0));
  EXPECT_EQ(HashVector({1, 2, 3}), HashVector({1, 2, 3}));
  EXPECT_NE(HashVector({1, 2, 3}), HashVector({3, 2, 1}));
  EXPECT_NE(HashVector({}), HashVector({0}));
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer-name", "22"});
  std::string text = table.ToString();
  EXPECT_NE(text.find("| name        |"), std::string::npos);
  EXPECT_NE(text.find("| longer-name | 22"), std::string::npos);
}

TEST(TablePrinterTest, PadsMissingCells) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"only-one"});
  std::string text = table.ToString();
  EXPECT_NE(text.find("only-one"), std::string::npos);
  // Three header cells always rendered.
  EXPECT_NE(text.find("| a"), std::string::npos);
}

TEST(TablePrinterTest, SeparatorRendersRule) {
  TablePrinter table({"h"});
  table.AddRow({"1"});
  table.AddSeparator();
  table.AddRow({"2"});
  std::string text = table.ToString();
  // 5 rules: top, under header, separator, bottom... count '+---+' lines.
  int rules = 0;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty() && line[0] == '+') ++rules;
  }
  EXPECT_EQ(rules, 4);
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace coverpack
