#ifndef SPONGEFILES_COMMON_STATS_H_
#define SPONGEFILES_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace spongefiles {

// Descriptive statistics used by the skew analysis (Figure 1) and the
// experiment harnesses.

double Mean(const std::vector<double>& xs);
double Variance(const std::vector<double>& xs);  // population variance
double StdDev(const std::vector<double>& xs);

// The unbiased sample skewness estimator G1 used by the paper's Figure 1(b):
//   g1 = m3 / m2^{3/2},  G1 = g1 * sqrt(n (n-1)) / (n - 2)
// Returns 0 for n < 3 or zero variance.
double UnbiasedSkewness(const std::vector<double>& xs);

// Quantile by linear interpolation over the sorted sample. q in [0, 1].
double Quantile(std::vector<double> xs, double q);

// Quantiles over an already-sorted sample (no copy).
double QuantileSorted(const std::vector<double>& sorted, double q);

// A point on an empirical CDF: fraction of samples <= value.
struct CdfPoint {
  double value = 0;
  double fraction = 0;
};

// Builds an empirical CDF reduced to at most `max_points` points (always
// including the min and max).
std::vector<CdfPoint> EmpiricalCdf(std::vector<double> xs,
                                   size_t max_points = 64);

}  // namespace spongefiles

#endif  // SPONGEFILES_COMMON_STATS_H_
