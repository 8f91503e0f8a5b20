/// Tests for nn/dense_simd.hpp: the determinism contract (every compiled
/// vector table agrees bit-for-bit with the scalar semantics on every
/// kernel), the sample-blocked backprop path's bit identity with the
/// per-lane fast softmax it replaced, and its equivalence to the
/// per-sample reference within float tolerance (different reduction
/// orders, so near-equality — the accuracy-neutral contract).

#include "pnm/nn/dense_simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "pnm/data/dataset.hpp"
#include "pnm/nn/fastmath.hpp"
#include "pnm/nn/mlp.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/util/rng.hpp"

namespace pnm {
namespace {

constexpr std::size_t kB = simd::kDenseBlock;

std::vector<double> random_vec(Rng& rng, std::size_t n, double scale = 1.0) {
  std::vector<double> v(n);
  for (auto& e : v) e = rng.normal() * scale;
  return v;
}

/// Bit-level equality: NaN-free inputs here, so == is exact and a mismatch
/// message shows the values.
void expect_bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "lane " << i;
  }
}

/// Equality of bit patterns: tells +0 from -0 (the fake-quant kernels must
/// produce llround's +0 code), which == does not.
void expect_same_bits(const std::vector<double>& a, const std::vector<double>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i]))
        << what << " [" << i << "]: " << a[i] << " vs " << b[i];
  }
}

/// Every vector table compiled into this binary and runnable on this CPU.
std::vector<const simd::DenseKernels*> native_tables() {
  std::vector<const simd::DenseKernels*> tables;
  for (simd::Isa isa : {simd::Isa::kAvx2, simd::Isa::kNeon}) {
    const simd::DenseKernels* t = simd::dense_kernels_for(isa);
    if (t != nullptr && simd::isa_available(isa)) tables.push_back(t);
  }
  return tables;
}

TEST(DenseSimd, ScalarTableAlwaysPresent) {
  ASSERT_NE(simd::dense_kernels_for(simd::Isa::kScalar), nullptr);
  // dense_kernels() must resolve to something callable in any build.
  const auto& k = simd::dense_kernels();
  ASSERT_NE(k.dot, nullptr);
  ASSERT_NE(k.layer_fwd8, nullptr);
}

TEST(DenseSimd, DotAxpyBitIdenticalAcrossTables) {
  const auto* scalar = simd::dense_kernels_for(simd::Isa::kScalar);
  Rng rng(7);
  for (const auto* table : native_tables()) {
    for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 16u, 31u, 64u, 67u}) {
      const std::vector<double> a = random_vec(rng, n);
      const std::vector<double> b = random_vec(rng, n);
      EXPECT_EQ(scalar->dot(a.data(), b.data(), n), table->dot(a.data(), b.data(), n))
          << "dot n=" << n;

      std::vector<double> y0 = random_vec(rng, n);
      std::vector<double> y1 = y0;
      scalar->axpy(y0.data(), a.data(), 0.37, n);
      table->axpy(y1.data(), a.data(), 0.37, n);
      expect_bits_equal(y0, y1);
    }
  }
}

TEST(DenseSimd, OptimizerKernelsBitIdenticalAcrossTables) {
  const auto* scalar = simd::dense_kernels_for(simd::Isa::kScalar);
  Rng rng(11);
  simd::AdamStep step;
  step.bias_corr1 = 1.0 - std::pow(step.beta1, 7.0);
  step.bias_corr2 = 1.0 - std::pow(step.beta2, 7.0);
  step.lr = 3e-3;
  step.weight_decay = 1e-4;
  for (const auto* table : native_tables()) {
    for (std::size_t n : {1u, 3u, 4u, 6u, 8u, 29u, 64u}) {
      const std::vector<double> g = random_vec(rng, n);
      std::vector<double> w0 = random_vec(rng, n), w1 = w0;
      std::vector<double> m0 = random_vec(rng, n, 0.1), m1 = m0;
      std::vector<double> v0 = random_vec(rng, n, 0.01), v1 = v0;
      for (auto& e : v0) e = std::abs(e);
      v1 = v0;
      scalar->adam(w0.data(), g.data(), m0.data(), v0.data(), n, step);
      table->adam(w1.data(), g.data(), m1.data(), v1.data(), n, step);
      expect_bits_equal(w0, w1);
      expect_bits_equal(m0, m1);
      expect_bits_equal(v0, v1);

      std::vector<double> sw0 = random_vec(rng, n), sw1 = sw0;
      std::vector<double> vel0 = random_vec(rng, n, 0.1), vel1 = vel0;
      scalar->sgd(sw0.data(), g.data(), vel0.data(), n, 0.9, 1e-2, 1e-4);
      table->sgd(sw1.data(), g.data(), vel1.data(), n, 0.9, 1e-2, 1e-4);
      expect_bits_equal(sw0, sw1);
      expect_bits_equal(vel0, vel1);
    }
  }
}

TEST(DenseSimd, BlockKernelsBitIdenticalAcrossTables) {
  const auto* scalar = simd::dense_kernels_for(simd::Isa::kScalar);
  Rng rng(13);
  // The vector kernels tile 4 rows (forward, backward) or 4 columns
  // (gradient) and finish with a one-row/one-column loop: 1..11 and 16
  // reach every remainder with no full tile, after one and after two, and
  // cover the paper topologies' layer shapes (10x16, 10x10, 8x11, 7x8,
  // 6x11, 6x6, 4x7, 3x4).
  std::vector<std::size_t> shapes;
  for (std::size_t n = 1; n <= 11; ++n) shapes.push_back(n);
  shapes.push_back(16);
  for (const auto* table : native_tables()) {
    for (std::size_t rows : shapes) {
      for (std::size_t cols : shapes) {
        const std::vector<double> w = random_vec(rng, rows * cols);
        const std::vector<double> bias = random_vec(rng, rows);
        const std::vector<double> in = random_vec(rng, cols * kB);
        const std::vector<double> delta = random_vec(rng, rows * kB);

        std::vector<double> out0(rows * kB), out1(rows * kB);
        scalar->layer_fwd8(w.data(), bias.data(), in.data(), out0.data(), rows, cols);
        table->layer_fwd8(w.data(), bias.data(), in.data(), out1.data(), rows, cols);
        expect_bits_equal(out0, out1);

        std::vector<double> gw0 = random_vec(rng, rows * cols), gw1 = gw0;
        std::vector<double> gb0 = random_vec(rng, rows), gb1 = gb0;
        scalar->layer_grad8(delta.data(), in.data(), gw0.data(), gb0.data(), rows, cols);
        table->layer_grad8(delta.data(), in.data(), gw1.data(), gb1.data(), rows, cols);
        expect_bits_equal(gw0, gw1);
        expect_bits_equal(gb0, gb1);

        std::vector<double> prev0(cols * kB, 0.0), prev1(cols * kB, 0.0);
        scalar->layer_back8(w.data(), delta.data(), prev0.data(), rows, cols);
        table->layer_back8(w.data(), delta.data(), prev1.data(), rows, cols);
        expect_bits_equal(prev0, prev1);
      }
    }

    // softmax_xent8 over partial and full blocks, with tied maxima and
    // logit gaps past fast_exp's flush-to-zero threshold.
    for (std::size_t lanes : {1u, 3u, 7u, 8u}) {
      for (std::size_t n_out : {1u, 2u, 3u, 10u}) {
        std::vector<double> z = random_vec(rng, n_out * kB, 3.0);
        std::vector<unsigned long> labels(kB, 0);
        for (std::size_t j = 0; j < kB; ++j) {
          labels[j] = rng.uniform_int(n_out);
          if (n_out < 2) continue;
          if (j % 3 == 0) z[(n_out - 1) * kB + j] = z[j] = 40.0;  // tied maximum
          if (j % 3 == 1) z[j] = z[kB + j] - 708.5;             // flushes to 0
          if (j % 3 == 2) z[kB + j] = z[j] - 1000.0;
        }
        std::vector<double> d0(n_out * kB, 9.0), d1(n_out * kB, -9.0);
        const double loss0 =
            scalar->softmax_xent8(z.data(), labels.data(), lanes, n_out, d0.data());
        const double loss1 =
            table->softmax_xent8(z.data(), labels.data(), lanes, n_out, d1.data());
        EXPECT_EQ(std::bit_cast<std::uint64_t>(loss0), std::bit_cast<std::uint64_t>(loss1))
            << "softmax loss lanes=" << lanes << " n_out=" << n_out;
        expect_same_bits(d0, d1, "softmax delta");
        for (std::size_t r = 0; r < n_out; ++r) {
          for (std::size_t j = lanes; j < kB; ++j) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(d1[r * kB + j]), 0U)
                << "padding lane " << j << " row " << r;
          }
        }
      }
    }

    // softmax denominators at the edges of the vector fast_log: tied
    // logits make s exactly n_out (a power of two for 2/4/8, and 1 for a
    // single output or when every other logit flushes to 0), and one free
    // logit walks s onto the doubles just below, at and just above the
    // sqrt2 mantissa fold (s near sqrt2 and near 2*sqrt2).
    const auto check_softmax = [&](const std::vector<double>& z, std::size_t n_out,
                                   const char* what) {
      std::vector<unsigned long> labels(kB);
      for (std::size_t j = 0; j < kB; ++j) labels[j] = j % n_out;
      std::vector<double> d0(n_out * kB), d1(n_out * kB);
      const double loss0 = scalar->softmax_xent8(z.data(), labels.data(), kB, n_out, d0.data());
      const double loss1 = table->softmax_xent8(z.data(), labels.data(), kB, n_out, d1.data());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(loss0), std::bit_cast<std::uint64_t>(loss1))
          << what << " n_out=" << n_out << ": " << loss0 << " vs " << loss1;
      expect_same_bits(d0, d1, what);
    };
    for (std::size_t n_out : {1u, 2u, 4u, 8u}) {
      std::vector<double> z(n_out * kB);
      for (std::size_t j = 0; j < kB; ++j) {
        const double tie = static_cast<double>(j) - 3.5;
        for (std::size_t r = 0; r < n_out; ++r) z[r * kB + j] = tie;
      }
      check_softmax(z, n_out, "tied logits");
      for (std::size_t j = 0; j < kB; ++j) {
        for (std::size_t r = 1; r < n_out; ++r) z[r * kB + j] = z[j] - 800.0;
      }
      check_softmax(z, n_out, "s = 1");
    }
    using fast_log_constants::kSqrt2;
    for (const double target :
         {std::nextafter(kSqrt2, 0.0), kSqrt2, std::nextafter(kSqrt2, 2.0),
          std::nextafter(2.0 * kSqrt2, 0.0), 2.0 * kSqrt2,
          std::nextafter(2.0 * kSqrt2, 4.0)}) {
      // `ties` logits at 0 and one at d < 0: the kernel's running sum is
      // exactly `ties` before it adds fast_exp(d).  Step d one ulp at a
      // time until s lands on target.
      const double ties = target < 2.0 ? 1.0 : 2.0;
      const auto denom = [ties](double d) { return ties + fast_exp(d); };
      double d = std::log(target - ties);
      for (int step = 0; step < 4096 && denom(d) != target; ++step) {
        d = std::nextafter(d, denom(d) < target ? 0.0 : -1.0);
      }
      ASSERT_EQ(denom(d), target) << "no logit gives s = " << target;
      const std::size_t n_out = ties < 2.0 ? 2 : 3;
      std::vector<double> z(n_out * kB, 0.0);
      for (std::size_t j = 0; j < kB; ++j) z[(n_out - 1) * kB + j] = d;
      check_softmax(z, n_out, "s at the sqrt2 fold");
    }

    // exp across the clamps and the flush-to-zero edge; odd lengths
    // exercise the scalar tails.
    std::vector<double> x = {-std::numeric_limits<double>::infinity(),
                             -800.0, -708.0000001, -708.0, -707.99, -0.0, 0.0,
                             1e-300, 0.5, 709.78, 709.7827128933841, 709.79,
                             800.0, std::numeric_limits<double>::infinity()};
    for (int i = 0; i < 61; ++i) x.push_back(rng.uniform(-750.0, 750.0));
    for (std::size_t n : {x.size(), x.size() - 1, std::size_t{3}}) {
      std::vector<double> e0(n), e1(n);
      scalar->exp(x.data(), e0.data(), n);
      table->exp(x.data(), e1.data(), n);
      expect_same_bits(e0, e1, "exp");
    }

    // fake_quant: exact +-k.5 ties (power-of-two scale keeps w/scale
    // exact), codes at and past +-qmax, small negatives that round to a
    // +0 code, and tail lengths not divisible by 4.
    for (int bits : {2, 3, 4, 8, 16}) {
      const long qmax = (1L << (bits - 1)) - 1;
      for (double scale : {0.25, 0.0123}) {
        std::vector<double> w;
        for (long k = -qmax - 2; k <= qmax + 2; k += (qmax > 16 ? qmax / 4 : 1)) {
          w.push_back(static_cast<double>(k) * scale);
          w.push_back((static_cast<double>(k) + 0.5) * scale);
          w.push_back((static_cast<double>(k) - 0.5) * scale);
        }
        w.push_back(static_cast<double>(qmax) * scale);
        w.push_back(-static_cast<double>(qmax) * scale);
        w.push_back(-0.3 * scale);
        w.push_back(-0.0);
        for (int i = 0; i < 13; ++i) w.push_back(rng.normal() * scale * qmax);
        for (std::size_t n : {w.size(), w.size() - 1, w.size() - 2, w.size() - 3}) {
          std::vector<double> q0(n), q1(n);
          scalar->fake_quant(w.data(), q0.data(), n, scale, qmax);
          table->fake_quant(w.data(), q1.data(), n, scale, qmax);
          expect_same_bits(q0, q1, "fake_quant");
        }
      }
    }

    for (std::size_t n : {1u, 3u, 4u, 6u, 9u, 33u}) {
      std::vector<double> v = random_vec(rng, n);
      v[n / 2] = -0.0;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(scalar->abs_max(v.data(), n)),
                std::bit_cast<std::uint64_t>(table->abs_max(v.data(), n)))
          << "abs_max n=" << n;
    }
  }
}

/// The parent formulation of backprop_block's loss: gather each lane's
/// logits and call the per-sample softmax_cross_entropy_fast, scattering
/// its gradient back.  Forward and backward go through the same block
/// kernels, so the lane-parallel softmax must reproduce this bit for bit.
double reference_backprop_block(const Mlp& model, const Dataset& train,
                                const std::size_t* idx, std::size_t lanes,
                                Gradients& grads) {
  const auto& kernels = simd::dense_kernels();
  const std::size_t n_layers = model.layer_count();
  std::vector<std::vector<double>> acts(n_layers + 1);
  acts[0].assign(model.input_size() * kB, 0.0);
  for (std::size_t j = 0; j < lanes; ++j) {
    const auto& x = train.x[idx[j]];
    for (std::size_t f = 0; f < x.size(); ++f) acts[0][f * kB + j] = x[f];
  }
  for (std::size_t li = 0; li < n_layers; ++li) {
    const auto& layer = model.layer(li);
    acts[li + 1].resize(layer.out_features() * kB);
    kernels.layer_fwd8(layer.weights.raw().data(), layer.bias.data(),
                       acts[li].data(), acts[li + 1].data(),
                       layer.out_features(), layer.in_features());
    apply_activation(layer.act, acts[li + 1]);
  }
  const std::size_t n_out = model.output_size();
  std::vector<double> delta(n_out * kB, 0.0);
  std::vector<double> logits(n_out), grad;
  double loss = 0.0;
  for (std::size_t j = 0; j < lanes; ++j) {
    for (std::size_t r = 0; r < n_out; ++r) logits[r] = acts[n_layers][r * kB + j];
    loss += softmax_cross_entropy_fast(logits, train.y[idx[j]], &grad);
    for (std::size_t r = 0; r < n_out; ++r) delta[r * kB + j] = grad[r];
  }
  apply_activation_grad(model.layers().back().act, acts[n_layers], delta);
  for (std::size_t li = n_layers; li-- > 0;) {
    const auto& layer = model.layer(li);
    kernels.layer_grad8(delta.data(), acts[li].data(), grads.w[li].raw().data(),
                        grads.b[li].data(), layer.out_features(), layer.in_features());
    if (li == 0) break;
    std::vector<double> prev(layer.in_features() * kB, 0.0);
    kernels.layer_back8(layer.weights.raw().data(), delta.data(), prev.data(),
                        layer.out_features(), layer.in_features());
    apply_activation_grad(model.layer(li - 1).act, acts[li], prev);
    delta.swap(prev);
  }
  return loss;
}

TEST(DenseSimd, BlockedBackpropBitIdenticalToPerLaneFastSoftmax) {
  Rng rng(31);
  Mlp model({6, 7, 10}, rng);
  Dataset data;
  data.name = "lane-softmax-reference";
  data.n_classes = 10;
  for (std::size_t i = 0; i < 23; ++i) {
    data.x.push_back(random_vec(rng, 6, 2.0));
    data.y.push_back(i % 10);
  }
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  for (simd::Isa isa : {simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (simd::dense_kernels_for(isa) != nullptr) isas.push_back(isa);
  }
  for (simd::Isa isa : isas) {
    simd::force_dense_kernels(isa);
    for (std::size_t lanes : {1u, 3u, 7u, 8u}) {
      std::vector<std::size_t> idx(lanes);
      for (std::size_t j = 0; j < lanes; ++j) idx[j] = (j * 7 + 2) % data.x.size();

      Gradients ref = Gradients::zeros_like(model);
      const double ref_loss =
          reference_backprop_block(model, data, idx.data(), lanes, ref);
      Gradients got = Gradients::zeros_like(model);
      BlockBackpropScratch scratch;
      const double loss = backprop_block(model, data, idx.data(), lanes, got, scratch);

      EXPECT_EQ(std::bit_cast<std::uint64_t>(loss), std::bit_cast<std::uint64_t>(ref_loss))
          << simd::isa_name(isa) << " lanes " << lanes;
      for (std::size_t li = 0; li < model.layer_count(); ++li) {
        expect_same_bits(got.w[li].raw(), ref.w[li].raw(), "weight gradient");
        expect_same_bits(got.b[li], ref.b[li], "bias gradient");
      }
    }
  }
  simd::reset_dense_kernels();
}

TEST(DenseSimd, ForceAndResetSwitchTables) {
  simd::force_dense_kernels(simd::Isa::kScalar);
  EXPECT_EQ(&simd::dense_kernels(), simd::dense_kernels_for(simd::Isa::kScalar));
  simd::reset_dense_kernels();
  const simd::DenseKernels* active = simd::dense_kernels_for(simd::active_isa());
  if (active == nullptr) active = simd::dense_kernels_for(simd::Isa::kScalar);
  EXPECT_EQ(&simd::dense_kernels(), active);
}

/// The blocked path and the per-sample path reduce in different orders, so
/// they agree to float tolerance, not bit-for-bit (the accuracy-neutral
/// contract) — including for partial blocks, whose padding lanes must
/// contribute exactly nothing.
TEST(DenseSimd, BlockedBackpropMatchesPerSampleWithinTolerance) {
  Rng rng(29);
  Mlp model({5, 6, 4, 3}, rng);
  Dataset data;
  data.name = "blocked-vs-sample";
  data.n_classes = 3;
  for (std::size_t i = 0; i < 11; ++i) {
    data.x.push_back(random_vec(rng, 5));
    data.y.push_back(i % 3);
  }

  for (std::size_t lanes : {std::size_t{8}, std::size_t{3}, std::size_t{1}}) {
    std::vector<std::size_t> idx(lanes);
    for (std::size_t j = 0; j < lanes; ++j) idx[j] = (j * 5 + 1) % data.x.size();

    Gradients ref = Gradients::zeros_like(model);
    BackpropScratch ref_scratch;
    double ref_loss = 0.0;
    for (std::size_t j = 0; j < lanes; ++j) {
      ref_loss += backprop_sample(model, data.x[idx[j]], data.y[idx[j]], ref,
                                  ref_scratch);
    }

    Gradients blocked = Gradients::zeros_like(model);
    BlockBackpropScratch scratch;
    const double loss = backprop_block(model, data, idx.data(), lanes, blocked, scratch);

    EXPECT_NEAR(loss, ref_loss, 1e-9 * (1.0 + std::abs(ref_loss))) << "lanes " << lanes;
    for (std::size_t li = 0; li < model.layer_count(); ++li) {
      const auto& rw = ref.w[li].raw();
      const auto& bw = blocked.w[li].raw();
      ASSERT_EQ(rw.size(), bw.size());
      for (std::size_t i = 0; i < rw.size(); ++i) {
        EXPECT_NEAR(bw[i], rw[i], 1e-9 * (1.0 + std::abs(rw[i])))
            << "layer " << li << " w[" << i << "] lanes " << lanes;
      }
      for (std::size_t r = 0; r < ref.b[li].size(); ++r) {
        EXPECT_NEAR(blocked.b[li][r], ref.b[li][r],
                    1e-9 * (1.0 + std::abs(ref.b[li][r])))
            << "layer " << li << " b[" << r << "] lanes " << lanes;
      }
    }
  }
}

}  // namespace
}  // namespace pnm
