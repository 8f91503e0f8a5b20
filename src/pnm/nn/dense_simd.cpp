#include "pnm/nn/dense_simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "pnm/nn/fastmath.hpp"

namespace pnm::simd {

// Native tables, provided by the arch-specific TUs when compiled in.
#if defined(__x86_64__)
const DenseKernels& dense_kernels_avx2();
#endif
#if defined(__aarch64__)
const DenseKernels& dense_kernels_neon();
#endif

namespace {

// ---- scalar fallback ------------------------------------------------------
// These loops ARE the semantics: the vector kernels reproduce them
// lane-for-lane (see the header's determinism contract).

double dot_scalar(const double* a, const double* b, unsigned long n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  unsigned long c = 0;
  for (; c + 4 <= n; c += 4) {
    acc0 += a[c] * b[c];
    acc1 += a[c + 1] * b[c + 1];
    acc2 += a[c + 2] * b[c + 2];
    acc3 += a[c + 3] * b[c + 3];
  }
  // Tail columns continue chains 0..2 in order.
  if (c < n) acc0 += a[c] * b[c];
  if (c + 1 < n) acc1 += a[c + 1] * b[c + 1];
  if (c + 2 < n) acc2 += a[c + 2] * b[c + 2];
  return (acc0 + acc1) + (acc2 + acc3);
}

void axpy_scalar(double* y, const double* x, double s, unsigned long n) {
  for (unsigned long i = 0; i < n; ++i) y[i] += s * x[i];
}

// ---- sample-blocked (8-lane SoA) trainer kernels --------------------------
// Each lane j is one sample; buffers are laid out element*8 + lane, the
// same blocking as the integer inference engine.

void layer_fwd8_scalar(const double* w, const double* bias, const double* in,
                       double* out, unsigned long rows, unsigned long cols) {
  for (unsigned long r = 0; r < rows; ++r) {
    double acc[kDenseBlock];
    for (unsigned long j = 0; j < kDenseBlock; ++j) acc[j] = bias[r];
    const double* wr = w + r * cols;
    for (unsigned long c = 0; c < cols; ++c) {
      const double wc = wr[c];
      const double* xv = in + c * kDenseBlock;
      for (unsigned long j = 0; j < kDenseBlock; ++j) acc[j] += wc * xv[j];
    }
    double* ov = out + r * kDenseBlock;
    for (unsigned long j = 0; j < kDenseBlock; ++j) ov[j] = acc[j];
  }
}

// Canonical 8-lane reduction: chains q_j = p_j + p_{j+4}, combined as
// (q0+q1)+(q2+q3) — the order the vector kernels reproduce exactly.
inline double sum8(const double* p) {
  const double q0 = p[0] + p[4];
  const double q1 = p[1] + p[5];
  const double q2 = p[2] + p[6];
  const double q3 = p[3] + p[7];
  return (q0 + q1) + (q2 + q3);
}

void layer_grad8_scalar(const double* delta, const double* in, double* gw,
                        double* gb, unsigned long rows, unsigned long cols) {
  for (unsigned long r = 0; r < rows; ++r) {
    const double* dv = delta + r * kDenseBlock;
    gb[r] += sum8(dv);
    double* gwr = gw + r * cols;
    for (unsigned long c = 0; c < cols; ++c) {
      const double* xv = in + c * kDenseBlock;
      double p[kDenseBlock];
      for (unsigned long j = 0; j < kDenseBlock; ++j) p[j] = dv[j] * xv[j];
      gwr[c] += sum8(p);
    }
  }
}

void layer_back8_scalar(const double* w, const double* delta, double* prev,
                        unsigned long rows, unsigned long cols) {
  for (unsigned long r = 0; r < rows; ++r) {
    const double* dv = delta + r * kDenseBlock;
    const double* wr = w + r * cols;
    for (unsigned long c = 0; c < cols; ++c) {
      const double wc = wr[c];
      double* pv = prev + c * kDenseBlock;
      for (unsigned long j = 0; j < kDenseBlock; ++j) pv[j] += wc * dv[j];
    }
  }
}

void adam_scalar(double* w, const double* g, double* m, double* v,
                 unsigned long n, const AdamStep& step) {
  for (unsigned long i = 0; i < n; ++i) {
    const double gi = g[i] + step.weight_decay * w[i];
    m[i] = step.beta1 * m[i] + (1.0 - step.beta1) * gi;
    v[i] = step.beta2 * v[i] + (1.0 - step.beta2) * (gi * gi);
    const double mhat = m[i] / step.bias_corr1;
    const double vhat = v[i] / step.bias_corr2;
    w[i] -= step.lr * mhat / (std::sqrt(vhat) + step.eps);
  }
}

void sgd_scalar(double* w, const double* g, double* vel, unsigned long n,
                double momentum, double lr, double weight_decay) {
  for (unsigned long i = 0; i < n; ++i) {
    const double gi = g[i] + weight_decay * w[i];
    vel[i] = momentum * vel[i] - lr * gi;
    w[i] += vel[i];
  }
}

// ---- fine-tuning math ------------------------------------------------------

void exp_scalar(const double* x, double* out, unsigned long n) {
  for (unsigned long i = 0; i < n; ++i) out[i] = fast_exp(x[i]);
}

double softmax_xent8_scalar(const double* z, const unsigned long* labels,
                            unsigned long lanes, unsigned long n_out,
                            double* delta) {
  double loss = 0.0;
  for (unsigned long j = 0; j < lanes; ++j) {
    double m = z[j];
    for (unsigned long r = 1; r < n_out; ++r) {
      if (m < z[r * kDenseBlock + j]) m = z[r * kDenseBlock + j];
    }
    double s = 0.0;
    for (unsigned long r = 0; r < n_out; ++r) {
      const double e = fast_exp(z[r * kDenseBlock + j] - m);
      delta[r * kDenseBlock + j] = e;
      s += e;
    }
    const double inv = 1.0 / s;
    for (unsigned long r = 0; r < n_out; ++r) delta[r * kDenseBlock + j] *= inv;
    const unsigned long y = labels[j];
    delta[y * kDenseBlock + j] -= 1.0;
    loss += fast_log(s) - (z[y * kDenseBlock + j] - m);
  }
  for (unsigned long j = lanes; j < kDenseBlock; ++j) {
    for (unsigned long r = 0; r < n_out; ++r) delta[r * kDenseBlock + j] = 0.0;
  }
  return loss;
}

void fake_quant_scalar(const double* w, double* out, unsigned long n,
                       double scale, long qmax) {
  for (unsigned long i = 0; i < n; ++i) {
    const auto q = static_cast<long>(std::llround(w[i] / scale));
    out[i] = static_cast<double>(std::clamp(q, -qmax, qmax)) * scale;
  }
}

double abs_max_scalar(const double* x, unsigned long n) {
  double m = 0.0;
  for (unsigned long i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

constexpr DenseKernels kScalarKernels = {
    dot_scalar,        axpy_scalar,          layer_fwd8_scalar,
    layer_grad8_scalar, layer_back8_scalar,  adam_scalar,
    sgd_scalar,        exp_scalar,           softmax_xent8_scalar,
    fake_quant_scalar, abs_max_scalar};

}  // namespace

const DenseKernels* dense_kernels_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &kScalarKernels;
    case Isa::kAvx2:
#if defined(__x86_64__)
      return isa_available(Isa::kAvx2) ? &dense_kernels_avx2() : nullptr;
#else
      return nullptr;
#endif
    case Isa::kNeon:
#if defined(__aarch64__)
      return &dense_kernels_neon();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

namespace {
std::atomic<const DenseKernels*> g_forced_table{nullptr};
}  // namespace

const DenseKernels& dense_kernels() {
  const DenseKernels* forced = g_forced_table.load(std::memory_order_relaxed);
  if (forced != nullptr) return *forced;
  static const DenseKernels* table = [] {
    const DenseKernels* t = dense_kernels_for(active_isa());
    return t != nullptr ? t : &kScalarKernels;
  }();
  return *table;
}

void force_dense_kernels(Isa isa) {
  const DenseKernels* t = dense_kernels_for(isa);
  g_forced_table.store(t != nullptr ? t : &kScalarKernels,
                       std::memory_order_relaxed);
}

void reset_dense_kernels() {
  g_forced_table.store(nullptr, std::memory_order_relaxed);
}

}  // namespace pnm::simd
