/// AVX2 table for nn/dense_simd.hpp.  This TU alone builds with -mavx2
/// (and -ffp-contract=off); runtime dispatch keeps it unreached on CPUs
/// without AVX2.  Every kernel reproduces the scalar loop lane-for-lane:
/// no FMA (the TU does not enable it, and vmulpd+vaddpd round like the
/// scalar mul+add), and vsqrtpd/vdivpd are IEEE correctly rounded, so
/// results are bit-identical to the scalar table.

#if defined(__x86_64__)

#include <algorithm>
#include <cmath>
#include <immintrin.h>

#include "pnm/nn/dense_simd.hpp"
#include "pnm/nn/fastmath.hpp"

namespace pnm::simd {

namespace {

double dot_avx2(const double* a, const double* b, unsigned long n) {
  __m256d acc = _mm256_setzero_pd();
  unsigned long c = 0;
  for (; c + 4 <= n; c += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + c), _mm256_loadu_pd(b + c)));
  }
  // Lane j held chain j; the tail continues chains 0..2 exactly like the
  // scalar fallback, then the canonical (c0+c1)+(c2+c3) combine.
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  if (c < n) lanes[0] += a[c] * b[c];
  if (c + 1 < n) lanes[1] += a[c + 1] * b[c + 1];
  if (c + 2 < n) lanes[2] += a[c + 2] * b[c + 2];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

void axpy_avx2(double* y, const double* x, double s, unsigned long n) {
  const __m256d sv = _mm256_set1_pd(s);
  unsigned long i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d yi = _mm256_loadu_pd(y + i);
    const __m256d xi = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(y + i, _mm256_add_pd(yi, _mm256_mul_pd(sv, xi)));
  }
  for (; i < n; ++i) y[i] += s * x[i];
}

// ---- sample-blocked (8-lane SoA) trainer kernels --------------------------
// 8 doubles = two __m256d; every lane is an independent mul+add chain, so
// these are bit-identical to the scalar loops.  The tiles only interleave
// independent chains: 4 rows share each input or prev load, 4 columns
// share one reduction; per lane and per element the order is unchanged.

constexpr unsigned long kTile = 4;

void layer_fwd8_avx2(const double* w, const double* bias, const double* in,
                     double* out, unsigned long rows, unsigned long cols) {
  unsigned long r = 0;
  // 4-row tiles: 8 independent accumulator chains hide the add latency.
  for (; r + kTile <= rows; r += kTile) {
    __m256d lo[kTile], hi[kTile];
    for (unsigned long k = 0; k < kTile; ++k) lo[k] = hi[k] = _mm256_set1_pd(bias[r + k]);
    const double* wr = w + r * cols;
    for (unsigned long c = 0; c < cols; ++c) {
      const double* xv = in + c * kDenseBlock;
      const __m256d x_lo = _mm256_loadu_pd(xv);
      const __m256d x_hi = _mm256_loadu_pd(xv + 4);
      for (unsigned long k = 0; k < kTile; ++k) {
        const __m256d wc = _mm256_set1_pd(wr[k * cols + c]);
        lo[k] = _mm256_add_pd(lo[k], _mm256_mul_pd(wc, x_lo));
        hi[k] = _mm256_add_pd(hi[k], _mm256_mul_pd(wc, x_hi));
      }
    }
    for (unsigned long k = 0; k < kTile; ++k) {
      _mm256_storeu_pd(out + (r + k) * kDenseBlock, lo[k]);
      _mm256_storeu_pd(out + (r + k) * kDenseBlock + 4, hi[k]);
    }
  }
  for (; r < rows; ++r) {
    __m256d acc_lo = _mm256_set1_pd(bias[r]);
    __m256d acc_hi = acc_lo;
    const double* wr = w + r * cols;
    for (unsigned long c = 0; c < cols; ++c) {
      const __m256d wc = _mm256_set1_pd(wr[c]);
      const double* xv = in + c * kDenseBlock;
      acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(wc, _mm256_loadu_pd(xv)));
      acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(wc, _mm256_loadu_pd(xv + 4)));
    }
    _mm256_storeu_pd(out + r * kDenseBlock, acc_lo);
    _mm256_storeu_pd(out + r * kDenseBlock + 4, acc_hi);
  }
}

// Canonical 8-lane reduction (see dense_simd.hpp): lanewise lo+hi gives the
// chains q_j = p_j + p_{j+4}; unpack pairs them as (q0,q2)/(q1,q3), one add
// gives (q0+q1, q2+q3), and the final scalar add is the (q0+q1)+(q2+q3)
// combine — the exact scalar tree.
inline double sum8_avx2(__m256d lo, __m256d hi) {
  const __m256d q = _mm256_add_pd(lo, hi);
  const __m128d q01 = _mm256_castpd256_pd128(q);
  const __m128d q23 = _mm256_extractf128_pd(q, 1);
  const __m128d s =
      _mm_add_pd(_mm_unpacklo_pd(q01, q23), _mm_unpackhi_pd(q01, q23));
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

// The chains q = lo + hi of one column, for the 4-column reduction below.
inline __m256d chains8_avx2(__m256d d_lo, __m256d d_hi, const double* xv) {
  return _mm256_add_pd(_mm256_mul_pd(d_lo, _mm256_loadu_pd(xv)),
                       _mm256_mul_pd(d_hi, _mm256_loadu_pd(xv + 4)));
}

void layer_grad8_avx2(const double* delta, const double* in, double* gw,
                      double* gb, unsigned long rows, unsigned long cols) {
  for (unsigned long r = 0; r < rows; ++r) {
    const double* dv = delta + r * kDenseBlock;
    const __m256d d_lo = _mm256_loadu_pd(dv);
    const __m256d d_hi = _mm256_loadu_pd(dv + 4);
    gb[r] += sum8_avx2(d_lo, d_hi);
    double* gwr = gw + r * cols;
    unsigned long c = 0;
    // 4 columns A..D reduced at once: hadd gives (A0+A1, B0+B1, A2+A3,
    // B2+B3) and (C0+C1, D0+D1, C2+C3, D2+D3); the two 128-bit permutes
    // line up each column's (q0+q1) against its (q2+q3), and one add makes
    // (q0+q1)+(q2+q3) for all four — sum8's tree, column by column.
    for (; c + kTile <= cols; c += kTile) {
      const double* xv = in + c * kDenseBlock;
      const __m256d ab = _mm256_hadd_pd(chains8_avx2(d_lo, d_hi, xv),
                                        chains8_avx2(d_lo, d_hi, xv + kDenseBlock));
      const __m256d cd = _mm256_hadd_pd(chains8_avx2(d_lo, d_hi, xv + 2 * kDenseBlock),
                                        chains8_avx2(d_lo, d_hi, xv + 3 * kDenseBlock));
      const __m256d sums = _mm256_add_pd(_mm256_permute2f128_pd(ab, cd, 0x20),
                                         _mm256_permute2f128_pd(ab, cd, 0x31));
      _mm256_storeu_pd(gwr + c, _mm256_add_pd(_mm256_loadu_pd(gwr + c), sums));
    }
    for (; c < cols; ++c) {
      const double* xv = in + c * kDenseBlock;
      gwr[c] += sum8_avx2(_mm256_mul_pd(d_lo, _mm256_loadu_pd(xv)),
                          _mm256_mul_pd(d_hi, _mm256_loadu_pd(xv + 4)));
    }
  }
}

void layer_back8_avx2(const double* w, const double* delta, double* prev,
                      unsigned long rows, unsigned long cols) {
  unsigned long r = 0;
  // 4-row tiles: each prev block is loaded and stored once per 4 rows; the
  // rows' w*delta terms are still added one at a time, r ascending.
  for (; r + kTile <= rows; r += kTile) {
    __m256d d_lo[kTile], d_hi[kTile];
    for (unsigned long k = 0; k < kTile; ++k) {
      d_lo[k] = _mm256_loadu_pd(delta + (r + k) * kDenseBlock);
      d_hi[k] = _mm256_loadu_pd(delta + (r + k) * kDenseBlock + 4);
    }
    const double* wr = w + r * cols;
    for (unsigned long c = 0; c < cols; ++c) {
      double* pv = prev + c * kDenseBlock;
      __m256d p_lo = _mm256_loadu_pd(pv);
      __m256d p_hi = _mm256_loadu_pd(pv + 4);
      for (unsigned long k = 0; k < kTile; ++k) {
        const __m256d wc = _mm256_set1_pd(wr[k * cols + c]);
        p_lo = _mm256_add_pd(p_lo, _mm256_mul_pd(wc, d_lo[k]));
        p_hi = _mm256_add_pd(p_hi, _mm256_mul_pd(wc, d_hi[k]));
      }
      _mm256_storeu_pd(pv, p_lo);
      _mm256_storeu_pd(pv + 4, p_hi);
    }
  }
  for (; r < rows; ++r) {
    const double* dv = delta + r * kDenseBlock;
    const __m256d d_lo = _mm256_loadu_pd(dv);
    const __m256d d_hi = _mm256_loadu_pd(dv + 4);
    const double* wr = w + r * cols;
    for (unsigned long c = 0; c < cols; ++c) {
      const __m256d wc = _mm256_set1_pd(wr[c]);
      double* pv = prev + c * kDenseBlock;
      _mm256_storeu_pd(
          pv, _mm256_add_pd(_mm256_loadu_pd(pv), _mm256_mul_pd(wc, d_lo)));
      _mm256_storeu_pd(pv + 4, _mm256_add_pd(_mm256_loadu_pd(pv + 4),
                                             _mm256_mul_pd(wc, d_hi)));
    }
  }
}

void adam_avx2(double* w, const double* g, double* m, double* v,
               unsigned long n, const AdamStep& step) {
  const __m256d b1 = _mm256_set1_pd(step.beta1);
  const __m256d b2 = _mm256_set1_pd(step.beta2);
  const __m256d one_m_b1 = _mm256_set1_pd(1.0 - step.beta1);
  const __m256d one_m_b2 = _mm256_set1_pd(1.0 - step.beta2);
  const __m256d wd_v = _mm256_set1_pd(step.weight_decay);
  const __m256d bc1 = _mm256_set1_pd(step.bias_corr1);
  const __m256d bc2 = _mm256_set1_pd(step.bias_corr2);
  const __m256d lr = _mm256_set1_pd(step.lr);
  const __m256d eps = _mm256_set1_pd(step.eps);
  unsigned long i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wi = _mm256_loadu_pd(w + i);
    const __m256d gi =
        _mm256_add_pd(_mm256_loadu_pd(g + i), _mm256_mul_pd(wd_v, wi));
    const __m256d mi = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + i)),
                                     _mm256_mul_pd(one_m_b1, gi));
    const __m256d vi = _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + i)),
                                     _mm256_mul_pd(one_m_b2, _mm256_mul_pd(gi, gi)));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    const __m256d mhat = _mm256_div_pd(mi, bc1);
    const __m256d vhat = _mm256_div_pd(vi, bc2);
    const __m256d denom = _mm256_add_pd(_mm256_sqrt_pd(vhat), eps);
    _mm256_storeu_pd(
        w + i, _mm256_sub_pd(wi, _mm256_div_pd(_mm256_mul_pd(lr, mhat), denom)));
  }
  for (; i < n; ++i) {
    const double gi = g[i] + step.weight_decay * w[i];
    m[i] = step.beta1 * m[i] + (1.0 - step.beta1) * gi;
    v[i] = step.beta2 * v[i] + (1.0 - step.beta2) * (gi * gi);
    const double mhat = m[i] / step.bias_corr1;
    const double vhat = v[i] / step.bias_corr2;
    w[i] -= step.lr * mhat / (std::sqrt(vhat) + step.eps);
  }
}

void sgd_avx2(double* w, const double* g, double* vel, unsigned long n,
              double momentum, double lr, double weight_decay) {
  const __m256d mom = _mm256_set1_pd(momentum);
  const __m256d lrv = _mm256_set1_pd(lr);
  const __m256d wd = _mm256_set1_pd(weight_decay);
  unsigned long i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wi = _mm256_loadu_pd(w + i);
    const __m256d gi =
        _mm256_add_pd(_mm256_loadu_pd(g + i), _mm256_mul_pd(wd, wi));
    const __m256d vi = _mm256_sub_pd(_mm256_mul_pd(mom, _mm256_loadu_pd(vel + i)),
                                     _mm256_mul_pd(lrv, gi));
    _mm256_storeu_pd(vel + i, vi);
    _mm256_storeu_pd(w + i, _mm256_add_pd(wi, vi));
  }
  for (; i < n; ++i) {
    const double gi = g[i] + weight_decay * w[i];
    vel[i] = momentum * vel[i] - lr * gi;
    w[i] += vel[i];
  }
}

// ---- fine-tuning math ------------------------------------------------------

// Lane-selects (compare + blend) rather than min/max, so NaN flows through
// exactly like the scalar ternaries.
inline __m256d select_gt(__m256d x, __m256d bound, __m256d if_gt) {
  return _mm256_blendv_pd(x, if_gt, _mm256_cmp_pd(x, bound, _CMP_GT_OQ));
}
inline __m256d select_lt(__m256d x, __m256d bound, __m256d if_lt) {
  return _mm256_blendv_pd(x, if_lt, _mm256_cmp_pd(x, bound, _CMP_LT_OQ));
}

// fast_exp on 4 lanes: the scalar clamps, floor via roundpd, the same
// reduction and Horner chain, and 2^k from the bits of kd + (2^52 + 1023).
inline __m256d fast_exp_avx2(__m256d x) {
  using namespace fast_exp_constants;
  const __m256d under = _mm256_set1_pd(kFastExpUnderflow);
  const __m256d over = _mm256_set1_pd(kOverflow);
  const __m256d lo = select_lt(select_gt(x, over, over), under, under);
  const __m256d kd = _mm256_round_pd(
      _mm256_add_pd(_mm256_mul_pd(lo, _mm256_set1_pd(kLog2E)), _mm256_set1_pd(0.5)),
      _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  const __m256d r =
      _mm256_sub_pd(_mm256_sub_pd(lo, _mm256_mul_pd(kd, _mm256_set1_pd(kLn2Hi))),
                    _mm256_mul_pd(kd, _mm256_set1_pd(kLn2Lo)));
  __m256d p = _mm256_set1_pd(kTaylor[0]);
  for (int i = 1; i < 11; ++i) {
    p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(kTaylor[i]));
  }
  const __m256i k_bits = _mm256_slli_epi64(
      _mm256_castpd_si256(_mm256_add_pd(kd, _mm256_set1_pd(kExpBias))), 52);
  const __m256d e = _mm256_mul_pd(p, _mm256_castsi256_pd(k_bits));
  return _mm256_andnot_pd(_mm256_cmp_pd(x, under, _CMP_LT_OQ), e);
}

// fast_log on 4 lanes (x > 0, finite).  The biased exponent field, or-ed
// into the low mantissa bits of 2^52, minus 2^52 + 1023 is e as an exact
// double; then the scalar fold (m > sqrt2: m*0.5, e+1), t = (m-1)/(m+1),
// the Horner chain on t^2, (2*t)*p and (... + e*Ln2Lo) + e*Ln2Hi.
inline __m256d fast_log_avx2(__m256d x) {
  using namespace fast_exp_constants;
  using namespace fast_log_constants;
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i mant_mask = _mm256_set1_epi64x(0xFFFFFFFFFFFFFLL);
  const __m256i exp_field =
      _mm256_and_si256(_mm256_srli_epi64(bits, 52), _mm256_set1_epi64x(0x7FF));
  __m256d e = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          exp_field, _mm256_set1_epi64x(static_cast<long long>(kTwo52Bits)))),
      _mm256_set1_pd(kExpBias));
  __m256d m = _mm256_castsi256_pd(
      _mm256_or_si256(_mm256_and_si256(bits, mant_mask),
                      _mm256_castpd_si256(_mm256_set1_pd(1.0))));
  const __m256d fold = _mm256_cmp_pd(m, _mm256_set1_pd(kSqrt2), _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), fold);
  e = _mm256_blendv_pd(e, _mm256_add_pd(e, _mm256_set1_pd(1.0)), fold);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d t = _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
  const __m256d t2 = _mm256_mul_pd(t, t);
  __m256d p = _mm256_set1_pd(kAtanh[0]);
  for (int i = 1; i < 7; ++i) {
    p = _mm256_add_pd(_mm256_mul_pd(p, t2), _mm256_set1_pd(kAtanh[i]));
  }
  const __m256d series = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), t), p);
  return _mm256_add_pd(_mm256_add_pd(series, _mm256_mul_pd(e, _mm256_set1_pd(kLn2Lo))),
                       _mm256_mul_pd(e, _mm256_set1_pd(kLn2Hi)));
}

void exp_avx2(const double* x, double* out, unsigned long n) {
  unsigned long i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, fast_exp_avx2(_mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) out[i] = fast_exp(x[i]);
}

// Lanes 0..3 live in the low register, 4..7 in the high one.  The max
// keeps the running value unless the new logit is strictly greater
// (vmaxpd returns its second operand on ties and NaN), the sum runs over
// r ascending per lane, fast_log runs on all 8 lanes, and the per-lane
// tail (label, loss) is scalar in lane order.
double softmax_xent8_avx2(const double* z, const unsigned long* labels,
                          unsigned long lanes, unsigned long n_out,
                          double* delta) {
  __m256d m_lo = _mm256_loadu_pd(z);
  __m256d m_hi = _mm256_loadu_pd(z + 4);
  for (unsigned long r = 1; r < n_out; ++r) {
    m_lo = _mm256_max_pd(_mm256_loadu_pd(z + r * kDenseBlock), m_lo);
    m_hi = _mm256_max_pd(_mm256_loadu_pd(z + r * kDenseBlock + 4), m_hi);
  }
  __m256d s_lo = _mm256_setzero_pd();
  __m256d s_hi = _mm256_setzero_pd();
  for (unsigned long r = 0; r < n_out; ++r) {
    const double* zr = z + r * kDenseBlock;
    const __m256d e_lo = fast_exp_avx2(_mm256_sub_pd(_mm256_loadu_pd(zr), m_lo));
    const __m256d e_hi = fast_exp_avx2(_mm256_sub_pd(_mm256_loadu_pd(zr + 4), m_hi));
    _mm256_storeu_pd(delta + r * kDenseBlock, e_lo);
    _mm256_storeu_pd(delta + r * kDenseBlock + 4, e_hi);
    s_lo = _mm256_add_pd(s_lo, e_lo);
    s_hi = _mm256_add_pd(s_hi, e_hi);
  }
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d inv_lo = _mm256_div_pd(one, s_lo);
  const __m256d inv_hi = _mm256_div_pd(one, s_hi);
  for (unsigned long r = 0; r < n_out; ++r) {
    double* dr = delta + r * kDenseBlock;
    _mm256_storeu_pd(dr, _mm256_mul_pd(_mm256_loadu_pd(dr), inv_lo));
    _mm256_storeu_pd(dr + 4, _mm256_mul_pd(_mm256_loadu_pd(dr + 4), inv_hi));
  }
  double m[kDenseBlock], log_s[kDenseBlock];
  _mm256_storeu_pd(m, m_lo);
  _mm256_storeu_pd(m + 4, m_hi);
  _mm256_storeu_pd(log_s, fast_log_avx2(s_lo));
  _mm256_storeu_pd(log_s + 4, fast_log_avx2(s_hi));
  double loss = 0.0;
  for (unsigned long j = 0; j < lanes; ++j) {
    const unsigned long y = labels[j];
    delta[y * kDenseBlock + j] -= 1.0;
    loss += log_s[j] - (z[y * kDenseBlock + j] - m[j]);
  }
  for (unsigned long j = lanes; j < kDenseBlock; ++j) {
    for (unsigned long r = 0; r < n_out; ++r) delta[r * kDenseBlock + j] = 0.0;
  }
  return loss;
}

// llround without the integer round trip: t - trunc(t) is exact, so
// |t - trunc(t)| >= 0.5 is exactly llround's half-away-from-zero test.
// Adding the +0 or +-1 step also turns a -0 code into +0, as the scalar
// integer 0 converts.
void fake_quant_avx2(const double* w, double* out, unsigned long n,
                     double scale, long qmax) {
  const __m256d sc = _mm256_set1_pd(scale);
  const __m256d hi = _mm256_set1_pd(static_cast<double>(qmax));
  const __m256d lo = _mm256_set1_pd(-static_cast<double>(qmax));
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  unsigned long i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = _mm256_div_pd(_mm256_loadu_pd(w + i), sc);
    const __m256d tr = _mm256_round_pd(t, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d frac = _mm256_andnot_pd(sign, _mm256_sub_pd(t, tr));
    const __m256d step =
        _mm256_and_pd(_mm256_cmp_pd(frac, half, _CMP_GE_OQ),
                      _mm256_or_pd(_mm256_and_pd(t, sign), one));
    const __m256d q = select_lt(select_gt(_mm256_add_pd(tr, step), hi, hi), lo, lo);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(q, sc));
  }
  for (; i < n; ++i) {
    const auto q = static_cast<long>(std::llround(w[i] / scale));
    out[i] = static_cast<double>(std::clamp(q, -qmax, qmax)) * scale;
  }
}

// vmaxpd(|x|, acc) keeps acc unless |x| is strictly greater — the scalar
// std::max(acc, |x|), NaN skipped; max is order-independent otherwise.
double abs_max_avx2(const double* x, unsigned long n) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d acc = _mm256_setzero_pd();
  unsigned long i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_max_pd(_mm256_andnot_pd(sign, _mm256_loadu_pd(x + i)), acc);
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double m = 0.0;
  for (double v : lanes) m = std::max(m, v);
  for (; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

}  // namespace

const DenseKernels& dense_kernels_avx2() {
  static constexpr DenseKernels kTable = {
      dot_avx2,        axpy_avx2,          layer_fwd8_avx2,
      layer_grad8_avx2, layer_back8_avx2,  adam_avx2,
      sgd_avx2,        exp_avx2,           softmax_xent8_avx2,
      fake_quant_avx2, abs_max_avx2};
  return kTable;
}

}  // namespace pnm::simd

#endif  // defined(__x86_64__)
