// The two-wide Welford fold of ClassCondAccumulator::addTrace
// (src/stats/accumulator.cpp, DESIGN.md §10) against the scalar loop it
// replaced, bit for bit: at odd and even sample counts, so both the paired
// samples and the scalar tail are covered.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "stats/accumulator.h"
#include "trace/prng.h"

namespace lpa {
namespace {

/// The scalar per-class Welford update, one sample at a time.
struct ScalarWelford {
  std::uint32_t numSamples;
  std::vector<std::uint64_t> count = std::vector<std::uint64_t>(16, 0);
  std::vector<double> mean, m2;

  explicit ScalarWelford(std::uint32_t n)
      : numSamples(n), mean(16u * n, 0.0), m2(16u * n, 0.0) {}

  void add(std::uint8_t cls, const double* x) {
    ++count[cls];
    const double k = static_cast<double>(count[cls]);
    double* mu = mean.data() + std::size_t(cls) * numSamples;
    double* s2 = m2.data() + std::size_t(cls) * numSamples;
    for (std::uint32_t s = 0; s < numSamples; ++s) {
      const double delta = x[s] - mu[s];
      mu[s] += delta / k;
      s2[s] += delta * (x[s] - mu[s]);
    }
  }
};

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(WelfordFold, PairedSamplesAndTailMatchTheScalarLoop) {
  for (std::uint32_t numSamples : {1u, 3u, 101u}) {
    SCOPED_TRACE(std::to_string(numSamples) + " samples");
    stats::ClassCondAccumulator acc(numSamples);
    ScalarWelford ref(numSamples);
    Prng rng(0xF01D + numSamples);
    std::vector<double> x(numSamples);
    for (int i = 0; i < 400; ++i) {
      const std::uint8_t cls = rng.nibble();
      // Magnitudes from 1e-3 to 1e3 with a class-dependent offset, so the
      // deltas and quotients round in every way.
      for (std::uint32_t s = 0; s < numSamples; ++s) {
        const double u = static_cast<double>(rng.next() >> 11) * 0x1p-53;
        x[s] = cls * 0.37 + u * (s % 7 == 0 ? 1e3 : s % 3 == 0 ? 1e-3 : 1.0);
      }
      acc.addTrace(cls, x.data());
      ref.add(cls, x.data());
      ASSERT_EQ(acc.count(cls), ref.count[cls]);
      const double n1 = static_cast<double>(ref.count[cls] - 1);
      for (std::uint32_t s = 0; s < numSamples; ++s) {
        const std::size_t at = std::size_t(cls) * numSamples + s;
        ASSERT_TRUE(sameBits(ref.mean[at], acc.mean(cls, s)))
            << "trace " << i << " sample " << s;
        // At count 2 the variance is M2 itself (M2 / 1); later it is the
        // same quotient on both sides.
        const double var = ref.count[cls] < 2 ? 0.0 : ref.m2[at] / n1;
        ASSERT_TRUE(sameBits(var, acc.variance(cls, s)))
            << "trace " << i << " sample " << s;
      }
    }
  }
}

}  // namespace
}  // namespace lpa
