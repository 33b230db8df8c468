// Tests for the support utilities: hashing/RNG quality properties, the
// bench table formatter, and the check macros.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace diva::support {
namespace {

TEST(Rng, SplitMixIsDeterministicPerSeed) {
  SplitMix64 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    EXPECT_NE(va, c.next());  // astronomically unlikely to collide
  }
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  SplitMix64 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.below(13);
    ASSERT_LT(v, 13u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 13u) << "all residues should appear in 2000 draws";
}

TEST(Rng, BelowEdgeCases) {
  SplitMix64 rng(1);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, UniformIsInHalfOpenInterval) {
  SplitMix64 rng(9);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
  const double r = rng.uniform(5.0, 6.0);
  EXPECT_GE(r, 5.0);
  EXPECT_LT(r, 6.0);
}

TEST(Rng, Mix64IsBijectiveOnSamples) {
  // Distinct inputs must map to distinct outputs (injectivity sample).
  std::set<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 10000; ++i) out.insert(mix64(i));
  EXPECT_EQ(out.size(), 10000u);
}

TEST(Rng, HashBelowIsUniformish) {
  // Chi-square-lite: bucket counts within 3x of expectation.
  constexpr int kBuckets = 16;
  int counts[kBuckets] = {};
  for (std::uint64_t i = 0; i < 16000; ++i)
    ++counts[hashBelow(hashCombine(1, i), kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, 1000 / 2);
    EXPECT_LT(c, 1000 * 2);
  }
}

TEST(Rng, HashCombineIsOrderSensitive) {
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
  EXPECT_NE(hashCombine(1, 2, 3), hashCombine(3, 2, 1));
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"a", "bbbb"});
  t.addRow({"1", "2"});
  t.addRow({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| a   | bbbb |"), std::string::npos);
  EXPECT_NE(s.find("| 333 | 4    |"), std::string::npos);
  // Rules at top, under header, and bottom.
  int rules = 0;
  std::istringstream is(s);
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("+-", 0) == 0) ++rules;
  EXPECT_EQ(rules, 3);
}

TEST(Table, HandlesShortRows) {
  Table t({"x", "y"});
  t.addRow({"only"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

TEST(Fmt, FixedPrecisionAndPercent) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmtPercent(0.444), "44%");
  EXPECT_EQ(fmtPercent(1.0), "100%");
}

TEST(Check, ThrowsWithLocationAndMessage) {
  try {
    DIVA_CHECK_MSG(1 == 2, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
    EXPECT_NE(what.find("context 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(DIVA_CHECK(true));
  EXPECT_NO_THROW(DIVA_CHECK_MSG(2 + 2 == 4, "fine"));
}

}  // namespace
}  // namespace diva::support
