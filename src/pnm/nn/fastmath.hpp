#ifndef PNM_NN_FASTMATH_HPP
#define PNM_NN_FASTMATH_HPP

/// \file fastmath.hpp
/// \brief Declared accuracy-neutral exp/log for the fine-tuning hot path.
///
/// Softmax cross-entropy is the largest single cost of a fine-tuning
/// step, and through libm `exp`/`log` (one opaque call per logit) it
/// cannot vectorize.  These replacements trade *declared, bounded*
/// accuracy against libm for speed.  They are themselves exactly
/// specified, so the vector kernels built on them (nn/dense_simd.hpp)
/// reproduce the scalar functions bit for bit:
///
///  * `fast_exp`: range reduction x = k*ln2 + r (two-part ln2 constant),
///    degree-10 Taylor polynomial of e^r on |r| <= ln2/2, result assembled
///    as poly(r) * 2^k by exponent-bit arithmetic.  Branch-free except for
///    the range clamps.  The batch form runs through the dispatched
///    DenseKernels::exp (AVX2 / NEON / scalar), identical on every table.
///  * `fast_log`: exponent/mantissa split to m in [1/sqrt2, sqrt2), then
///    the atanh series log m = 2 * sum t^(2i+1)/(2i+1), t = (m-1)/(m+1),
///    truncated at t^13.  It has a vector form inside
///    DenseKernels::softmax_xent8 (AVX2 / NEON): the exponent is built as
///    a double from its bits, then the same fold, t, Horner chain and
///    reconstruction, so it equals this function bit for bit.  The
///    scalar function stays the reference.
///
/// Error bounds (verified over dense grids by nn_fastmath_test, asserted
/// with margin):
///
///  * kFastExpMaxRelError:  max |fast_exp(x)/exp(x) - 1| <= 1e-12 for
///    x in [-700, 700].  Below kFastExpUnderflow the result flushes to
///    exactly 0 (libm returns subnormals down to ~-745); softmax feeds
///    only x <= 0 differences where anything below e^-700 is dead weight.
///  * kFastLogMaxRelError:  max |fast_log(x)/log(x) - 1| <= 4e-12 for
///    normal positive x with |log x| >= 1e-8 (near log's zero at x = 1 the
///    *absolute* error stays below 1e-13).
///
/// Anything consuming these is gated by *front quality*, not bit identity:
/// the fine-tuned Pareto fronts must match the golden baseline within the
/// declared tolerance (see nn_fastmath_test.cpp and the trainer's
/// set_softmax_fast_math switch).

#include <cstddef>

namespace pnm {

/// Documented bounds, used by the tests as the contract.
inline constexpr double kFastExpMaxRelError = 1e-12;
inline constexpr double kFastLogMaxRelError = 4e-12;
/// Inputs below this flush fast_exp to exactly 0 (no subnormal tail).
inline constexpr double kFastExpUnderflow = -708.0;

/// The constants of fast_exp, shared by the scalar function and the
/// vector kernels so every implementation reduces and evaluates alike.
namespace fast_exp_constants {
inline constexpr double kLog2E = 1.4426950408889634074;      // 1/ln 2
inline constexpr double kLn2Hi = 6.93145751953125e-1;        // ln 2, high 21 bits (exact)
inline constexpr double kLn2Lo = 1.42860682030941723212e-6;  // ln 2 - kLn2Hi
inline constexpr double kOverflow = 709.782712893384;        // exp() overflows above this
/// Horner coefficients of e^r, highest degree first: 1/10!, 1/9!, ..., 1/1!, 1/0!.
inline constexpr double kTaylor[11] = {
    1.0 / 3628800.0, 1.0 / 362880.0, 1.0 / 40320.0, 1.0 / 5040.0,
    1.0 / 720.0,     1.0 / 120.0,    1.0 / 24.0,    1.0 / 6.0,
    0.5,             1.0,            1.0};
/// kd + kExpBias puts k + 1023 in the low mantissa bits (kd integral,
/// |kd| < 2^11), so shifting the bit pattern left by 52 gives 2^k.
inline constexpr double kExpBias = 4503599627370496.0 + 1023.0;  // 2^52 + 1023
}  // namespace fast_exp_constants

/// The constants of fast_log beyond the ln 2 split above, shared by the
/// scalar function and the vector kernels.
namespace fast_log_constants {
/// The mantissa fold point: m > kSqrt2 becomes m/2 with exponent e + 1.
inline constexpr double kSqrt2 = 1.41421356237309504880;
/// Horner coefficients of the atanh series in t^2, highest degree first:
/// 1/13, 1/11, ..., 1/3, 1.
inline constexpr double kAtanh[7] = {1.0 / 13.0, 1.0 / 11.0, 1.0 / 9.0, 1.0 / 7.0,
                                     1.0 / 5.0,  1.0 / 3.0,  1.0};
/// Bits of 2^52 (the double kExpBias - 1023).  Or-ing a biased exponent
/// field into its low mantissa bits and subtracting kExpBias gives the
/// unbiased exponent as a double, with no integer conversion.
inline constexpr unsigned long long kTwo52Bits = 0x4330000000000000ULL;
}  // namespace fast_log_constants

/// e^x with the bound above; monotone clamp: +inf for x > 709.78.
double fast_exp(double x);

/// Batch form: out[i] = fast_exp(x[i]) through the active
/// DenseKernels::exp table (bit-identical on every ISA).  `out` may alias
/// `x`.
void fast_exp(const double* x, double* out, std::size_t n);

/// Natural log with the bound above.  Domain: x > 0 and finite (callers
/// feed softmax denominators, which are >= 1); no NaN/inf policing.
double fast_log(double x);

}  // namespace pnm

#endif  // PNM_NN_FASTMATH_HPP
