#pragma once
// Walsh-Hadamard transform over F_2^n with the paper's orthonormal Fourier
// basis psi_u(t) = 2^{-n/2} (-1)^{u.t}.
//
// For a leakage function f : F_2^n -> R the coefficients are
//   a_u = 2^{-n/2} * sum_t f(t) (-1)^{u.t},
// the decomposition f(t) = sum_u a_u psi_u(t) holds, and Parseval gives
//   sum_t f(t)^2 = sum_u a_u^2.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lpa {

/// In-place fast WHT (butterfly), unnormalized: out[u] = sum_t f[t](-1)^{u.t}.
/// Length must be a power of two.
void fwht(std::vector<double>& data);

/// Orthonormal coefficients a_u for a 16-entry leakage function: the
/// n = 1 case of the whole-wave overload below.
std::array<double, 16> whtCoefficients16(const std::array<double, 16>& f);

/// Orthonormal coefficients of `n` 16-entry leakage functions at once.
/// `waves` holds 16 rows of `n` values: on entry row t holds f(t) of every
/// function, on return row u holds its a_u. The butterfly stages combine
/// whole rows, two stages per pass and two values per operation, so every
/// function goes through exactly fwht's additions and subtractions and then
/// the division by 4, bit for bit, with no allocation.
void whtCoefficients16(double* waves, std::size_t n);

/// General orthonormal coefficients (length = 2^n).
std::vector<double> whtCoefficients(std::vector<double> f);

/// Inverse of whtCoefficients (same orthonormal scaling: an involution).
std::vector<double> whtInverse(std::vector<double> a);

}  // namespace lpa
