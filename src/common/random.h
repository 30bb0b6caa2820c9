#ifndef SPONGEFILES_COMMON_RANDOM_H_
#define SPONGEFILES_COMMON_RANDOM_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace spongefiles {

// Deterministic 64-bit PRNG (splitmix64 seeding + xoshiro256**). All
// randomness in the simulator flows through explicitly seeded Rng instances
// so every experiment is reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    uint64_t z = seed;
    for (auto& s : state_) {
      z += 0x9e3779b97f4a7c15ull;
      uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      s = x ^ (x >> 31);
    }
  }

  uint64_t Next() {
    uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). Requires bound > 0.
  uint64_t Uniform(uint64_t bound) {
    assert(bound > 0);
    return Next() % bound;
  }

  // Uniform in [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return lo + static_cast<int64_t>(
                    Uniform(static_cast<uint64_t>(hi - lo) + 1));
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  bool Bernoulli(double p) { return NextDouble() < p; }

  // Standard normal via Box-Muller.
  double Normal() {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 <= 0) u1 = 1e-18;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  // Lognormal with given parameters of the underlying normal.
  double LogNormal(double mu, double sigma) {
    return std::exp(mu + sigma * Normal());
  }

  // Exponential with the given mean.
  double Exponential(double mean) {
    double u = NextDouble();
    if (u <= 0) u = 1e-18;
    return -mean * std::log(u);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

// Samples ranks from a Zipf(s) distribution over {0, ..., n-1} using a
// precomputed inverse CDF table. Rank 0 is the most popular item.
//
// A guide table with one bucket per rank narrows each draw's search: a
// uniform u falls in bucket floor(u * n), and guide_[b] is the first rank
// whose CDF value falls in bucket b or later. Bucketing is monotone in its
// argument, so every rank before guide_[b] has a CDF below u, and rank
// guide_[b + 1] (or n - 1, whose CDF is 1) has one at or above it. A
// lower_bound over [guide_[b], guide_[b + 1]) — which lands on its end
// when every value in it is below u — therefore returns exactly the rank
// a lower_bound over the whole CDF returns.
class ZipfSampler {
 public:
  // Requires n > 0. `s` is the Zipf exponent (s = 1.0 is classic Zipf).
  ZipfSampler(size_t n, double s);

  size_t Sample(Rng& rng) const { return Rank(rng.NextDouble()); }

  // Probability mass of rank `k`.
  double Pmf(size_t k) const;

  size_t n() const { return cdf_.size(); }

 private:
  friend struct ZipfSamplerTestPeer;  // compares Rank with the full search

  // The rank a draw of `u` in [0, 1) maps to: the first rank whose CDF
  // value is >= u.
  size_t Rank(double u) const;
  size_t Bucket(double u) const;

  std::vector<double> cdf_;     // cumulative, cdf_.back() == 1.0
  std::vector<uint32_t> guide_;  // n + 1 entries; guide_[n] == n
};

}  // namespace spongefiles

#endif  // SPONGEFILES_COMMON_RANDOM_H_
