#include "common/random.h"

#include <algorithm>

namespace spongefiles {

ZipfSampler::ZipfSampler(size_t n, double s) {
  assert(n > 0 && n < UINT32_MAX);
  cdf_.resize(n);
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
  guide_.resize(n + 1);
  size_t rank = 0;
  for (size_t b = 0; b <= n; ++b) {
    while (rank < n && Bucket(cdf_[rank]) < b) ++rank;
    guide_[b] = static_cast<uint32_t>(rank);
  }
}

size_t ZipfSampler::Bucket(double u) const {
  return std::min(static_cast<size_t>(u * static_cast<double>(cdf_.size())),
                  cdf_.size() - 1);
}

size_t ZipfSampler::Rank(double u) const {
  size_t b = Bucket(u);
  auto it = std::lower_bound(cdf_.begin() + guide_[b],
                             cdf_.begin() + guide_[b + 1], u);
  return static_cast<size_t>(it - cdf_.begin());
}

double ZipfSampler::Pmf(size_t k) const {
  assert(k < cdf_.size());
  if (k == 0) return cdf_[0];
  return cdf_[k] - cdf_[k - 1];
}

}  // namespace spongefiles
