#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace spongefiles {

struct ZipfSamplerTestPeer {
  static size_t Rank(const ZipfSampler& zipf, double u) {
    return zipf.Rank(u);
  }
  // The rank a lower_bound over the sampler's whole CDF gives `u`.
  static size_t FullSearchRank(const ZipfSampler& zipf, double u) {
    auto it = std::lower_bound(zipf.cdf_.begin(), zipf.cdf_.end(), u);
    return static_cast<size_t>(it - zipf.cdf_.begin());
  }
  static const std::vector<double>& Cdf(const ZipfSampler& zipf) {
    return zipf.cdf_;
  }
};

namespace {

// The guide table must return exactly the full search's rank for every
// draw; edge cases are draws at and next to bucket edges (b / n) and CDF
// values, where a rounding slip would shift the answer by one rank.
TEST(ZipfTest, GuideTableRankEqualsFullSearch) {
  for (size_t n : {1u, 2u, 100u, 20000u}) {
    for (double s : {0.0, 0.5, 0.99, 1.0, 1.5, 3.0}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " s=" + std::to_string(s));
      ZipfSampler zipf(n, s);
      std::vector<double> draws = {0.0, std::nextafter(1.0, 0.0)};
      const double dn = static_cast<double>(n);
      for (size_t b = 0; b <= n; ++b) {
        const double edge = static_cast<double>(b) / dn;
        draws.push_back(edge);
        draws.push_back(std::nextafter(edge, 0.0));
        draws.push_back(std::nextafter(edge, 1.0));
      }
      for (double c : ZipfSamplerTestPeer::Cdf(zipf)) {
        draws.push_back(c);
        draws.push_back(std::nextafter(c, 0.0));
        draws.push_back(std::nextafter(c, 1.0));
      }
      Rng rng(n + static_cast<uint64_t>(s * 100));
      for (int i = 0; i < 10000; ++i) draws.push_back(rng.NextDouble());
      for (double u : draws) {
        if (u < 0.0 || u >= 1.0) continue;
        ASSERT_EQ(ZipfSamplerTestPeer::Rank(zipf, u),
                  ZipfSamplerTestPeer::FullSearchRank(zipf, u))
            << "u=" << u;
      }
    }
  }
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0;
  double sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler zipf(100, 1.0);
  double total = 0;
  for (size_t k = 0; k < zipf.n(); ++k) total += zipf.Pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, RankZeroMostPopular) {
  ZipfSampler zipf(50, 1.1);
  for (size_t k = 1; k < zipf.n(); ++k) {
    EXPECT_GT(zipf.Pmf(k - 1), zipf.Pmf(k));
  }
}

TEST(ZipfTest, EmpiricalMatchesPmf) {
  ZipfSampler zipf(20, 1.0);
  Rng rng(17);
  std::vector<int> counts(20, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) counts[zipf.Sample(rng)]++;
  for (size_t k = 0; k < 20; ++k) {
    double expected = zipf.Pmf(k);
    double observed = static_cast<double>(counts[k]) / n;
    EXPECT_NEAR(observed, expected, 0.01) << "rank " << k;
  }
}

TEST(ZipfTest, HighExponentConcentrates) {
  ZipfSampler zipf(1000, 2.0);
  // With s=2 the head rank holds the majority of the mass.
  EXPECT_GT(zipf.Pmf(0), 0.5);
}

}  // namespace
}  // namespace spongefiles
