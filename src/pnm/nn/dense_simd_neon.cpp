/// NEON (aarch64) table for nn/dense_simd.hpp.  float64x2 is baseline on
/// aarch64, so this TU needs no extra flags beyond -ffp-contract=off
/// (aarch64 GCC would otherwise contract mul+add into fmadd, which rounds
/// once and would split results from the scalar table).  Every kernel
/// reproduces the scalar loop lane-for-lane; vsqrtq_f64/vdivq_f64 are
/// IEEE correctly rounded.

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>

#include "pnm/nn/dense_simd.hpp"
#include "pnm/nn/fastmath.hpp"

namespace pnm::simd {

namespace {

double dot_neon(const double* a, const double* b, unsigned long n) {
  // acc01 holds chains 0,1; acc23 holds chains 2,3.
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  unsigned long c = 0;
  for (; c + 4 <= n; c += 4) {
    acc01 = vaddq_f64(acc01, vmulq_f64(vld1q_f64(a + c), vld1q_f64(b + c)));
    acc23 = vaddq_f64(acc23, vmulq_f64(vld1q_f64(a + c + 2), vld1q_f64(b + c + 2)));
  }
  double chains[4] = {vgetq_lane_f64(acc01, 0), vgetq_lane_f64(acc01, 1),
                      vgetq_lane_f64(acc23, 0), vgetq_lane_f64(acc23, 1)};
  if (c < n) chains[0] += a[c] * b[c];
  if (c + 1 < n) chains[1] += a[c + 1] * b[c + 1];
  if (c + 2 < n) chains[2] += a[c + 2] * b[c + 2];
  return (chains[0] + chains[1]) + (chains[2] + chains[3]);
}

void axpy_neon(double* y, const double* x, double s, unsigned long n) {
  const float64x2_t sv = vdupq_n_f64(s);
  unsigned long i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), vmulq_f64(sv, vld1q_f64(x + i))));
  }
  for (; i < n; ++i) y[i] += s * x[i];
}

// ---- sample-blocked (8-lane SoA) trainer kernels --------------------------
// 8 doubles = four float64x2; every lane is an independent mul+add chain,
// so these are bit-identical to the scalar loops.  The tiles only
// interleave independent chains: 4 rows share each input or prev load, 4
// columns share one reduction; per lane and per element the order is
// unchanged.

constexpr unsigned long kTile = 4;
constexpr unsigned long kRegs = kDenseBlock / 2;  // float64x2 per 8 lanes

void layer_fwd8_neon(const double* w, const double* bias, const double* in,
                     double* out, unsigned long rows, unsigned long cols) {
  unsigned long r = 0;
  // 4-row tiles: 16 independent accumulator chains hide the add latency.
  for (; r + kTile <= rows; r += kTile) {
    float64x2_t acc[kTile][kRegs];
    for (unsigned long k = 0; k < kTile; ++k) {
      for (unsigned long q = 0; q < kRegs; ++q) acc[k][q] = vdupq_n_f64(bias[r + k]);
    }
    const double* wr = w + r * cols;
    for (unsigned long c = 0; c < cols; ++c) {
      const double* xv = in + c * kDenseBlock;
      float64x2_t x[kRegs];
      for (unsigned long q = 0; q < kRegs; ++q) x[q] = vld1q_f64(xv + 2 * q);
      for (unsigned long k = 0; k < kTile; ++k) {
        const float64x2_t wc = vdupq_n_f64(wr[k * cols + c]);
        for (unsigned long q = 0; q < kRegs; ++q) {
          acc[k][q] = vaddq_f64(acc[k][q], vmulq_f64(wc, x[q]));
        }
      }
    }
    for (unsigned long k = 0; k < kTile; ++k) {
      for (unsigned long q = 0; q < kRegs; ++q) {
        vst1q_f64(out + (r + k) * kDenseBlock + 2 * q, acc[k][q]);
      }
    }
  }
  for (; r < rows; ++r) {
    float64x2_t a0 = vdupq_n_f64(bias[r]);
    float64x2_t a1 = a0, a2 = a0, a3 = a0;
    const double* wr = w + r * cols;
    for (unsigned long c = 0; c < cols; ++c) {
      const float64x2_t wc = vdupq_n_f64(wr[c]);
      const double* xv = in + c * kDenseBlock;
      a0 = vaddq_f64(a0, vmulq_f64(wc, vld1q_f64(xv)));
      a1 = vaddq_f64(a1, vmulq_f64(wc, vld1q_f64(xv + 2)));
      a2 = vaddq_f64(a2, vmulq_f64(wc, vld1q_f64(xv + 4)));
      a3 = vaddq_f64(a3, vmulq_f64(wc, vld1q_f64(xv + 6)));
    }
    double* ov = out + r * kDenseBlock;
    vst1q_f64(ov, a0);
    vst1q_f64(ov + 2, a1);
    vst1q_f64(ov + 4, a2);
    vst1q_f64(ov + 6, a3);
  }
}

// Canonical 8-lane reduction (see dense_simd.hpp): chains q_j = p_j + p_{j+4}
// combined as (q0+q1)+(q2+q3).  p01/p23 hold lanes 0..3, p45/p67 lanes 4..7.
inline double sum8_neon(float64x2_t p01, float64x2_t p23, float64x2_t p45,
                        float64x2_t p67) {
  const float64x2_t q01 = vaddq_f64(p01, p45);
  const float64x2_t q23 = vaddq_f64(p23, p67);
  return (vgetq_lane_f64(q01, 0) + vgetq_lane_f64(q01, 1)) +
         (vgetq_lane_f64(q23, 0) + vgetq_lane_f64(q23, 1));
}

// One column's chains (q0,q1) and (q2,q3), for the 4-column reduction below.
struct Chains8 {
  float64x2_t q01, q23;
};
inline Chains8 chains8_neon(const float64x2_t d[kRegs], const double* xv) {
  return {vaddq_f64(vmulq_f64(d[0], vld1q_f64(xv)), vmulq_f64(d[2], vld1q_f64(xv + 4))),
          vaddq_f64(vmulq_f64(d[1], vld1q_f64(xv + 2)), vmulq_f64(d[3], vld1q_f64(xv + 6)))};
}

void layer_grad8_neon(const double* delta, const double* in, double* gw,
                      double* gb, unsigned long rows, unsigned long cols) {
  for (unsigned long r = 0; r < rows; ++r) {
    const double* dv = delta + r * kDenseBlock;
    float64x2_t d[kRegs];
    for (unsigned long q = 0; q < kRegs; ++q) d[q] = vld1q_f64(dv + 2 * q);
    gb[r] += sum8_neon(d[0], d[1], d[2], d[3]);
    double* gwr = gw + r * cols;
    unsigned long c = 0;
    // 4 columns A..D reduced pairwise: vpaddq(A.q01, B.q01) is
    // (A0+A1, B0+B1), vpaddq(A.q23, B.q23) is (A2+A3, B2+B3), and one add
    // makes (q0+q1)+(q2+q3) for both — sum8's tree, column by column.
    for (; c + kTile <= cols; c += kTile) {
      const double* xv = in + c * kDenseBlock;
      for (unsigned long h = 0; h < kTile; h += 2) {
        const Chains8 a = chains8_neon(d, xv + h * kDenseBlock);
        const Chains8 b = chains8_neon(d, xv + (h + 1) * kDenseBlock);
        const float64x2_t sums =
            vaddq_f64(vpaddq_f64(a.q01, b.q01), vpaddq_f64(a.q23, b.q23));
        vst1q_f64(gwr + c + h, vaddq_f64(vld1q_f64(gwr + c + h), sums));
      }
    }
    for (; c < cols; ++c) {
      const double* xv = in + c * kDenseBlock;
      gwr[c] += sum8_neon(vmulq_f64(d[0], vld1q_f64(xv)),
                          vmulq_f64(d[1], vld1q_f64(xv + 2)),
                          vmulq_f64(d[2], vld1q_f64(xv + 4)),
                          vmulq_f64(d[3], vld1q_f64(xv + 6)));
    }
  }
}

void layer_back8_neon(const double* w, const double* delta, double* prev,
                      unsigned long rows, unsigned long cols) {
  unsigned long r = 0;
  // 4-row tiles: each prev block is loaded and stored once per 4 rows; the
  // rows' w*delta terms are still added one at a time, r ascending.
  for (; r + kTile <= rows; r += kTile) {
    float64x2_t d[kTile][kRegs];
    for (unsigned long k = 0; k < kTile; ++k) {
      for (unsigned long q = 0; q < kRegs; ++q) {
        d[k][q] = vld1q_f64(delta + (r + k) * kDenseBlock + 2 * q);
      }
    }
    const double* wr = w + r * cols;
    for (unsigned long c = 0; c < cols; ++c) {
      double* pv = prev + c * kDenseBlock;
      float64x2_t p[kRegs];
      for (unsigned long q = 0; q < kRegs; ++q) p[q] = vld1q_f64(pv + 2 * q);
      for (unsigned long k = 0; k < kTile; ++k) {
        const float64x2_t wc = vdupq_n_f64(wr[k * cols + c]);
        for (unsigned long q = 0; q < kRegs; ++q) {
          p[q] = vaddq_f64(p[q], vmulq_f64(wc, d[k][q]));
        }
      }
      for (unsigned long q = 0; q < kRegs; ++q) vst1q_f64(pv + 2 * q, p[q]);
    }
  }
  for (; r < rows; ++r) {
    const double* dv = delta + r * kDenseBlock;
    const float64x2_t d01 = vld1q_f64(dv);
    const float64x2_t d23 = vld1q_f64(dv + 2);
    const float64x2_t d45 = vld1q_f64(dv + 4);
    const float64x2_t d67 = vld1q_f64(dv + 6);
    const double* wr = w + r * cols;
    for (unsigned long c = 0; c < cols; ++c) {
      const float64x2_t wc = vdupq_n_f64(wr[c]);
      double* pv = prev + c * kDenseBlock;
      vst1q_f64(pv, vaddq_f64(vld1q_f64(pv), vmulq_f64(wc, d01)));
      vst1q_f64(pv + 2, vaddq_f64(vld1q_f64(pv + 2), vmulq_f64(wc, d23)));
      vst1q_f64(pv + 4, vaddq_f64(vld1q_f64(pv + 4), vmulq_f64(wc, d45)));
      vst1q_f64(pv + 6, vaddq_f64(vld1q_f64(pv + 6), vmulq_f64(wc, d67)));
    }
  }
}

void adam_neon(double* w, const double* g, double* m, double* v,
               unsigned long n, const AdamStep& step) {
  const float64x2_t b1 = vdupq_n_f64(step.beta1);
  const float64x2_t b2 = vdupq_n_f64(step.beta2);
  const float64x2_t one_m_b1 = vdupq_n_f64(1.0 - step.beta1);
  const float64x2_t one_m_b2 = vdupq_n_f64(1.0 - step.beta2);
  const float64x2_t wd = vdupq_n_f64(step.weight_decay);
  const float64x2_t bc1 = vdupq_n_f64(step.bias_corr1);
  const float64x2_t bc2 = vdupq_n_f64(step.bias_corr2);
  const float64x2_t lr = vdupq_n_f64(step.lr);
  const float64x2_t eps = vdupq_n_f64(step.eps);
  unsigned long i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t wi = vld1q_f64(w + i);
    const float64x2_t gi = vaddq_f64(vld1q_f64(g + i), vmulq_f64(wd, wi));
    const float64x2_t mi =
        vaddq_f64(vmulq_f64(b1, vld1q_f64(m + i)), vmulq_f64(one_m_b1, gi));
    const float64x2_t vi = vaddq_f64(vmulq_f64(b2, vld1q_f64(v + i)),
                                     vmulq_f64(one_m_b2, vmulq_f64(gi, gi)));
    vst1q_f64(m + i, mi);
    vst1q_f64(v + i, vi);
    const float64x2_t mhat = vdivq_f64(mi, bc1);
    const float64x2_t vhat = vdivq_f64(vi, bc2);
    const float64x2_t denom = vaddq_f64(vsqrtq_f64(vhat), eps);
    vst1q_f64(w + i, vsubq_f64(wi, vdivq_f64(vmulq_f64(lr, mhat), denom)));
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

void sgd_neon(double* w, const double* g, double* vel, unsigned long n,
              double momentum, double lr, double weight_decay) {
  const float64x2_t mom = vdupq_n_f64(momentum);
  const float64x2_t lrv = vdupq_n_f64(lr);
  const float64x2_t wd = vdupq_n_f64(weight_decay);
  unsigned long i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t wi = vld1q_f64(w + i);
    const float64x2_t gi = vaddq_f64(vld1q_f64(g + i), vmulq_f64(wd, wi));
    const float64x2_t vi =
        vsubq_f64(vmulq_f64(mom, vld1q_f64(vel + i)), vmulq_f64(lrv, gi));
    vst1q_f64(vel + i, vi);
    vst1q_f64(w + i, vaddq_f64(wi, vi));
  }
  for (; i < n; ++i) {
    const double gi = g[i] + weight_decay * w[i];
    vel[i] = momentum * vel[i] - lr * gi;
    w[i] += vel[i];
  }
}

// ---- fine-tuning math ------------------------------------------------------

// Lane-selects (compare + bit-select) rather than vmax/vmin, whose NaN
// rules differ from the scalar ternaries.
inline float64x2_t select_gt(float64x2_t x, float64x2_t bound, float64x2_t if_gt) {
  return vbslq_f64(vcgtq_f64(x, bound), if_gt, x);
}
inline float64x2_t select_lt(float64x2_t x, float64x2_t bound, float64x2_t if_lt) {
  return vbslq_f64(vcltq_f64(x, bound), if_lt, x);
}

// fast_exp on 2 lanes: the scalar clamps, floor via frintm, the same
// reduction and Horner chain, and 2^k from the bits of kd + (2^52 + 1023).
inline float64x2_t fast_exp_neon(float64x2_t x) {
  using namespace fast_exp_constants;
  const float64x2_t under = vdupq_n_f64(kFastExpUnderflow);
  const float64x2_t over = vdupq_n_f64(kOverflow);
  const float64x2_t lo = select_lt(select_gt(x, over, over), under, under);
  const float64x2_t kd = vrndmq_f64(
      vaddq_f64(vmulq_f64(lo, vdupq_n_f64(kLog2E)), vdupq_n_f64(0.5)));
  const float64x2_t r = vsubq_f64(vsubq_f64(lo, vmulq_f64(kd, vdupq_n_f64(kLn2Hi))),
                                  vmulq_f64(kd, vdupq_n_f64(kLn2Lo)));
  float64x2_t p = vdupq_n_f64(kTaylor[0]);
  for (int i = 1; i < 11; ++i) {
    p = vaddq_f64(vmulq_f64(p, r), vdupq_n_f64(kTaylor[i]));
  }
  const uint64x2_t k_bits = vshlq_n_u64(
      vreinterpretq_u64_f64(vaddq_f64(kd, vdupq_n_f64(kExpBias))), 52);
  const float64x2_t e = vmulq_f64(p, vreinterpretq_f64_u64(k_bits));
  return vreinterpretq_f64_u64(
      vbicq_u64(vreinterpretq_u64_f64(e), vcltq_f64(x, under)));
}

// fast_log on 2 lanes (x > 0, finite).  The biased exponent field, or-ed
// into the low mantissa bits of 2^52, minus 2^52 + 1023 is e as an exact
// double; then the scalar fold (m > sqrt2: m*0.5, e+1), t = (m-1)/(m+1),
// the Horner chain on t^2, (2*t)*p and (... + e*Ln2Lo) + e*Ln2Hi.
inline float64x2_t fast_log_neon(float64x2_t x) {
  using namespace fast_exp_constants;
  using namespace fast_log_constants;
  const uint64x2_t bits = vreinterpretq_u64_f64(x);
  const uint64x2_t exp_field = vandq_u64(vshrq_n_u64(bits, 52), vdupq_n_u64(0x7FF));
  float64x2_t e = vsubq_f64(
      vreinterpretq_f64_u64(vorrq_u64(exp_field, vdupq_n_u64(kTwo52Bits))),
      vdupq_n_f64(kExpBias));
  float64x2_t m = vreinterpretq_f64_u64(
      vorrq_u64(vandq_u64(bits, vdupq_n_u64(0xFFFFFFFFFFFFFULL)),
                vreinterpretq_u64_f64(vdupq_n_f64(1.0))));
  const uint64x2_t fold = vcgtq_f64(m, vdupq_n_f64(kSqrt2));
  m = vbslq_f64(fold, vmulq_f64(m, vdupq_n_f64(0.5)), m);
  e = vbslq_f64(fold, vaddq_f64(e, vdupq_n_f64(1.0)), e);
  const float64x2_t one = vdupq_n_f64(1.0);
  const float64x2_t t = vdivq_f64(vsubq_f64(m, one), vaddq_f64(m, one));
  const float64x2_t t2 = vmulq_f64(t, t);
  float64x2_t p = vdupq_n_f64(kAtanh[0]);
  for (int i = 1; i < 7; ++i) p = vaddq_f64(vmulq_f64(p, t2), vdupq_n_f64(kAtanh[i]));
  const float64x2_t series = vmulq_f64(vmulq_f64(vdupq_n_f64(2.0), t), p);
  return vaddq_f64(vaddq_f64(series, vmulq_f64(e, vdupq_n_f64(kLn2Lo))),
                   vmulq_f64(e, vdupq_n_f64(kLn2Hi)));
}

void exp_neon(const double* x, double* out, unsigned long n) {
  unsigned long i = 0;
  for (; i + 2 <= n; i += 2) vst1q_f64(out + i, fast_exp_neon(vld1q_f64(x + i)));
  for (; i < n; ++i) out[i] = fast_exp(x[i]);
}

// Four float64x2 hold lanes {0,1}, {2,3}, {4,5}, {6,7}.  The max keeps the
// running value unless the new logit is strictly greater, the sum runs
// over r ascending per lane, fast_log runs on all 8 lanes, and the
// per-lane tail (label, loss) is scalar in lane order.
double softmax_xent8_neon(const double* z, const unsigned long* labels,
                          unsigned long lanes, unsigned long n_out,
                          double* delta) {
  float64x2_t m[kRegs], s[kRegs], inv[kRegs];
  for (unsigned long q = 0; q < kRegs; ++q) {
    m[q] = vld1q_f64(z + 2 * q);
    s[q] = vdupq_n_f64(0.0);
  }
  for (unsigned long r = 1; r < n_out; ++r) {
    for (unsigned long q = 0; q < kRegs; ++q) {
      const float64x2_t zr = vld1q_f64(z + r * kDenseBlock + 2 * q);
      m[q] = vbslq_f64(vcltq_f64(m[q], zr), zr, m[q]);
    }
  }
  for (unsigned long r = 0; r < n_out; ++r) {
    for (unsigned long q = 0; q < kRegs; ++q) {
      const unsigned long at = r * kDenseBlock + 2 * q;
      const float64x2_t e = fast_exp_neon(vsubq_f64(vld1q_f64(z + at), m[q]));
      vst1q_f64(delta + at, e);
      s[q] = vaddq_f64(s[q], e);
    }
  }
  for (unsigned long q = 0; q < kRegs; ++q) inv[q] = vdivq_f64(vdupq_n_f64(1.0), s[q]);
  for (unsigned long r = 0; r < n_out; ++r) {
    for (unsigned long q = 0; q < kRegs; ++q) {
      const unsigned long at = r * kDenseBlock + 2 * q;
      vst1q_f64(delta + at, vmulq_f64(vld1q_f64(delta + at), inv[q]));
    }
  }
  double mj[kDenseBlock], log_s[kDenseBlock];
  for (unsigned long q = 0; q < kRegs; ++q) {
    vst1q_f64(mj + 2 * q, m[q]);
    vst1q_f64(log_s + 2 * q, fast_log_neon(s[q]));
  }
  double loss = 0.0;
  for (unsigned long j = 0; j < lanes; ++j) {
    const unsigned long y = labels[j];
    delta[y * kDenseBlock + j] -= 1.0;
    loss += log_s[j] - (z[y * kDenseBlock + j] - mj[j]);
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
void fake_quant_neon(const double* w, double* out, unsigned long n,
                     double scale, long qmax) {
  const float64x2_t sc = vdupq_n_f64(scale);
  const float64x2_t hi = vdupq_n_f64(static_cast<double>(qmax));
  const float64x2_t lo = vdupq_n_f64(-static_cast<double>(qmax));
  const uint64x2_t sign = vdupq_n_u64(0x8000000000000000ULL);
  const uint64x2_t one = vreinterpretq_u64_f64(vdupq_n_f64(1.0));
  unsigned long i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t t = vdivq_f64(vld1q_f64(w + i), sc);
    const float64x2_t tr = vrndq_f64(t);
    const uint64x2_t round_away = vcgeq_f64(vabsq_f64(vsubq_f64(t, tr)), vdupq_n_f64(0.5));
    const uint64x2_t step =
        vandq_u64(round_away, vorrq_u64(vandq_u64(vreinterpretq_u64_f64(t), sign), one));
    const float64x2_t q =
        select_lt(select_gt(vaddq_f64(tr, vreinterpretq_f64_u64(step)), hi, hi), lo, lo);
    vst1q_f64(out + i, vmulq_f64(q, sc));
  }
  for (; i < n; ++i) {
    const auto q = static_cast<long>(std::llround(w[i] / scale));
    out[i] = static_cast<double>(std::clamp(q, -qmax, qmax)) * scale;
  }
}

// acc keeps its value unless |x| is strictly greater — the scalar
// std::max(acc, |x|), NaN skipped; max is order-independent otherwise.
double abs_max_neon(const double* x, unsigned long n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  unsigned long i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t a = vabsq_f64(vld1q_f64(x + i));
    acc = vbslq_f64(vcltq_f64(acc, a), a, acc);
  }
  double m = std::max(vgetq_lane_f64(acc, 0), vgetq_lane_f64(acc, 1));
  for (; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

}  // namespace

const DenseKernels& dense_kernels_neon() {
  static constexpr DenseKernels kTable = {
      dot_neon,        axpy_neon,          layer_fwd8_neon,
      layer_grad8_neon, layer_back8_neon,  adam_neon,
      sgd_neon,        exp_neon,           softmax_xent8_neon,
      fake_quant_neon, abs_max_neon};
  return kTable;
}

}  // namespace pnm::simd

#endif  // defined(__aarch64__)
