#ifndef PNM_NN_DENSE_SIMD_HPP
#define PNM_NN_DENSE_SIMD_HPP

/// \file dense_simd.hpp
/// \brief Runtime-dispatched double-precision kernels for the trainer's
/// dense hot path (matvec / outer-product gradients / optimizer updates /
/// softmax cross-entropy / QAT fake quantization).
///
/// These kernels are the "vectorized fine-tuning math" companion to the
/// integer multi-sample engine in core/infer_simd.hpp, and they share its
/// dispatch: simd::active_isa() picks AVX2 / NEON / scalar once per
/// process, and PNM_FORCE_SCALAR pins everything to the portable path.
///
/// Determinism contract — results are identical on every ISA:
///  * axpy / adam / sgd are elementwise over independent outputs; each
///    lane performs the same individually-rounded mul/add/sqrt/div
///    sequence as the scalar loop, so vectorizing them cannot change a
///    single bit.
///  * dot is a reduction, so its summation order IS its semantics.  The
///    canonical order is four independent accumulator chains over
///    columns c ≡ 0..3 (mod 4), tail columns appended to chains 0..2 in
///    order, combined as (c0+c1)+(c2+c3).  The scalar fallback implements
///    exactly this order, and the vector kernels map chain j to lane j —
///    so scalar, AVX2, and NEON agree bit-for-bit.
///  * The block kernels (layer_fwd8 / layer_grad8 / layer_back8) may tile
///    rows or columns, but a tile only interleaves independent chains:
///    each lane of each output still sums in the scalar order (bias, then
///    c ascending; sum8's tree per weight; prev += w*delta with r
///    ascending, each add rounded on its own), and rows or columns left
///    over after the last full tile run the one-row loop.  Tiling changes
///    which loads are shared, never an operand or an order.
///  * exp / softmax_xent8 / fake_quant are elementwise or per-lane too:
///    the vector kernels rebuild floor, llround's half-away-from-zero
///    rounding, fast_exp's 2^k exponent assembly and fast_log's exponent
///    extraction from exact operations, so they match the scalar
///    definitions bit for bit.
///    abs_max reduces with max, which is order-independent.
///  * No FMA anywhere (the build pins -ffp-contract=off on these TUs and
///    on nn/fastmath.cpp): a fused multiply-add rounds once where mul+add
///    rounds twice, which would split results between FMA and non-FMA
///    hardware.

#include "pnm/core/infer_simd.hpp"

namespace pnm::simd {

/// One Adam element step, shared by weight and bias updates (biases pass
/// weight_decay = 0).  bc1/bc2 are the bias-correction denominators
/// 1 - beta^t, precomputed once per optimizer step.
struct AdamStep {
  double beta1 = 0.9;
  double beta2 = 0.999;
  double bias_corr1 = 1.0;
  double bias_corr2 = 1.0;
  double lr = 1e-3;
  double eps = 1e-8;
  double weight_decay = 0.0;
};

/// Lane count of the sample-blocked trainer kernels below — the same
/// 8-sample SoA blocking as the integer inference engine, and likewise
/// ISA-independent (buffers are laid out element*8 + lane).
inline constexpr unsigned long kDenseBlock = 8;
static_assert(kDenseBlock == kSampleBlock,
              "trainer and inference engines share one blocked layout");

/// The dispatched kernel table.  All pointers are non-null.
struct DenseKernels {
  /// Canonical 4-chain dot product of a[0..n) and b[0..n) (see file
  /// comment for the exact summation order).
  double (*dot)(const double* a, const double* b, unsigned long n);
  /// y[i] += s * x[i] for i in [0, n).  x and y must not overlap.
  void (*axpy)(double* y, const double* x, double s, unsigned long n);
  /// Blocked dense layer forward over 8 SoA lanes:
  ///   out[r*8+j] = bias[r] + sum_c w[r*cols+c] * in[c*8+j]
  /// with c ascending — each lane is one independent single-chain sum, so
  /// every ISA (and every lane) computes the classic per-sample order.
  void (*layer_fwd8)(const double* w, const double* bias, const double* in,
                     double* out, unsigned long rows, unsigned long cols);
  /// Blocked gradient accumulation over 8 SoA lanes:
  ///   gw[r*cols+c] += sum8_j delta[r*8+j] * in[c*8+j]
  ///   gb[r]        += sum8_j delta[r*8+j]
  /// where sum8 is the canonical lane reduction: chains q_j = p_j + p_{j+4}
  /// combined as (q0+q1)+(q2+q3) — identical on every ISA.
  void (*layer_grad8)(const double* delta, const double* in, double* gw,
                      double* gb, unsigned long rows, unsigned long cols);
  /// Blocked backward (transposed) pass over 8 SoA lanes:
  ///   prev[c*8+j] += sum_r w[r*cols+c] * delta[r*8+j]
  /// with r ascending per lane; prev must be zeroed by the caller.
  void (*layer_back8)(const double* w, const double* delta, double* prev,
                      unsigned long rows, unsigned long cols);
  /// Adam update of w[0..n) with gradient g, first/second moment m/v:
  ///   g'   = g[i] + weight_decay * w[i]
  ///   m[i] = b1*m[i] + (1-b1)*g';  v[i] = b2*v[i] + (1-b2)*g'*g'
  ///   w[i] -= lr * (m[i]/bc1) / (sqrt(v[i]/bc2) + eps)
  void (*adam)(double* w, const double* g, double* m, double* v,
               unsigned long n, const AdamStep& step);
  /// SGD-with-momentum update of w[0..n) with gradient g, velocity vel:
  ///   g'     = g[i] + weight_decay * w[i]
  ///   vel[i] = momentum*vel[i] - lr*g';  w[i] += vel[i]
  void (*sgd)(double* w, const double* g, double* vel, unsigned long n,
              double momentum, double lr, double weight_decay);
  /// out[i] = fast_exp(x[i]) for i in [0, n) (nn/fastmath.hpp): the same
  /// clamps, floor(x*log2e + 0.5) reduction, Horner chain and 2^k
  /// exponent assembly.  out may alias x.
  void (*exp)(const double* x, double* out, unsigned long n);
  /// Fast-math softmax cross-entropy over 8 SoA lanes of n_out logits
  /// z[r*8+j].  For each lane j < lanes, with label y = labels[j], it does
  /// softmax_cross_entropy_fast's steps in its order:
  ///   m = max_r z (max_element's `<`: the first maximum wins)
  ///   e_r = fast_exp(z_r - m);  s = sum_r e_r with r ascending
  ///   delta[r*8+j] = e_r * (1/s);  delta[y*8+j] -= 1
  ///   loss_j = fast_log(s) - (z_y - m)
  /// (the vector tables take fast_log on all lanes at once, by its vector
  /// form).  Padding lanes (j >= lanes) get delta exactly 0.  Returns the
  /// loss summed over lanes with j ascending.  Labels must be < n_out.
  double (*softmax_xent8)(const double* z, const unsigned long* labels,
                          unsigned long lanes, unsigned long n_out,
                          double* delta);
  /// Fake quantization of w[0..n) at a positive scale:
  ///   out[i] = clamp(llround(w[i] / scale), -qmax, qmax) * scale
  /// (true division; llround rounds half away from zero; a zero code
  /// gives +0).  Defined for finite w.  out may alias w.
  void (*fake_quant)(const double* w, double* out, unsigned long n,
                     double scale, long qmax);
  /// max(0, max_i |x[i]|); NaN elements are skipped, like the scalar
  /// std::max loop skips them.
  double (*abs_max)(const double* x, unsigned long n);
};

/// Kernel table for the process-wide active ISA (resolved on first call,
/// like active_isa()).  Always usable: the scalar table is the fallback.
const DenseKernels& dense_kernels();

/// Pins dense_kernels() to a specific ISA's table (scalar fallback when
/// that ISA is unavailable).  A bench/test hook — results are identical
/// on every table by the determinism contract, so this only changes
/// speed.  Not thread-safe against concurrent training.
void force_dense_kernels(Isa isa);

/// Undoes force_dense_kernels: back to the active-ISA table.
void reset_dense_kernels();

/// Kernel table for a specific ISA, or nullptr when that ISA is not
/// compiled in / not supported by this CPU.  Lets tests pin scalar vs
/// native tables side by side and assert bit-identical results.
const DenseKernels* dense_kernels_for(Isa isa);

}  // namespace pnm::simd

#endif  // PNM_NN_DENSE_SIMD_HPP
