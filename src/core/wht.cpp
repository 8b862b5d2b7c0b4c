#include "core/wht.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace lpa {

void fwht(std::vector<double>& data) {
  const std::size_t n = data.size();
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("FWHT length must be a power of two");
  }
  for (std::size_t step = 1; step < n; step <<= 1) {
    for (std::size_t block = 0; block < n; block += step << 1) {
      for (std::size_t i = block; i < block + step; ++i) {
        const double x = data[i];
        const double y = data[i + step];
        data[i] = x + y;
        data[i + step] = x - y;
      }
    }
  }
}

std::array<double, 16> whtCoefficients16(const std::array<double, 16>& f) {
  std::array<double, 16> out = f;
  whtCoefficients16(out.data(), 1);
  return out;
}

namespace {

typedef double Pair __attribute__((vector_size(16)));

/// Two butterfly stages over the rows r, r + s, r + 2s and r + 3s: step s
/// combines (r, r + s) and (r + 2s, r + 3s), then step 2s combines
/// (r, r + 2s) and (r + s, r + 3s). These are fwht's pairs at both steps,
/// and each row is read and written once. The last two stages end with the
/// division by 4. Two values per operation, then a scalar tail; elementwise
/// +, - and / round each lane exactly like the scalar expressions.
template <bool kLastStages>
void twoStages(double* r0, double* r1, double* r2, double* r3,
               std::size_t n) {
  const Pair four = {4.0, 4.0};
  std::size_t t = 0;
  for (; t + 2 <= n; t += 2) {
    Pair x0, x1, x2, x3;
    std::memcpy(&x0, r0 + t, sizeof(Pair));
    std::memcpy(&x1, r1 + t, sizeof(Pair));
    std::memcpy(&x2, r2 + t, sizeof(Pair));
    std::memcpy(&x3, r3 + t, sizeof(Pair));
    const Pair y0 = x0 + x1, y1 = x0 - x1, y2 = x2 + x3, y3 = x2 - x3;
    Pair z0 = y0 + y2, z1 = y1 + y3, z2 = y0 - y2, z3 = y1 - y3;
    if constexpr (kLastStages) {
      z0 /= four;
      z1 /= four;
      z2 /= four;
      z3 /= four;
    }
    std::memcpy(r0 + t, &z0, sizeof(Pair));
    std::memcpy(r1 + t, &z1, sizeof(Pair));
    std::memcpy(r2 + t, &z2, sizeof(Pair));
    std::memcpy(r3 + t, &z3, sizeof(Pair));
  }
  for (; t < n; ++t) {
    const double y0 = r0[t] + r1[t], y1 = r0[t] - r1[t];
    const double y2 = r2[t] + r3[t], y3 = r2[t] - r3[t];
    const double z0 = y0 + y2, z1 = y1 + y3, z2 = y0 - y2, z3 = y1 - y3;
    r0[t] = kLastStages ? z0 / 4.0 : z0;
    r1[t] = kLastStages ? z1 / 4.0 : z1;
    r2[t] = kLastStages ? z2 / 4.0 : z2;
    r3[t] = kLastStages ? z3 / 4.0 : z3;
  }
}

}  // namespace

void whtCoefficients16(double* waves, std::size_t n) {
  const auto row = [waves, n](std::size_t i) { return waves + i * n; };
  // Steps 1 and 2 within each block of four rows, then steps 4 and 8 across
  // the blocks, ending with the orthonormal scale 2^{4/2} = 4.
  for (std::size_t b = 0; b < 16; b += 4) {
    twoStages<false>(row(b), row(b + 1), row(b + 2), row(b + 3), n);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    twoStages<true>(row(i), row(i + 4), row(i + 8), row(i + 12), n);
  }
}

std::vector<double> whtCoefficients(std::vector<double> f) {
  const double norm = std::sqrt(static_cast<double>(f.size()));
  fwht(f);
  for (double& v : f) v /= norm;
  return f;
}

std::vector<double> whtInverse(std::vector<double> a) {
  return whtCoefficients(std::move(a));
}

}  // namespace lpa
