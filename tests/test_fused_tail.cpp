// Bit-exactness of the fused parameter tail (sharded_adam_step with a
// StepFold) at every instantiation of the optimiser kernel (kern::adam).
//
// The reference is the unfused sequence written as naive scalar loops, one
// walk per step: reduce each tensor's blocks as ((0.0 + g_0) + g_1) + ...,
// take the global norm as one serial chain (ascending layer, weights then
// bias), derive the clip scale, run Adam, multiply the head layer by the
// decay factor, then soft-update the target. The fused tail must give the
// same bits for the parameters, the reduced gradients, both moments, the
// step counter and the target, on tensor sizes 1, 7, 9, 17 and 513 (every
// vector remainder at 2, 4 and 8 lanes), with and without clipping, on
// blocks holding -0.0, and for block counts on both sides of the reduce's
// 8-block group. Bits are compared as integers: EXPECT_EQ on doubles
// would let -0.0 pass for +0.0.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/kernels.h"
#include "nn/optimizer.h"
#include "nn/train_shards.h"
#include "persist/binary_io.h"

namespace miras::nn {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

constexpr double kLr = 0.01, kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;
constexpr double kTau = 0.125;

// One layer per tensor size: weights and bias are 1 x size each.
const std::size_t kSizes[] = {1, 7, 9, 17, 513};

// Flat tensor order: layer 0 weights, layer 0 bias, layer 1 weights, ...
using Tensors = std::vector<std::vector<double>>;

Tensors random_tensors(Rng& rng, double zero_share) {
  Tensors t;
  for (const std::size_t n : kSizes)
    for (int k = 0; k < 2; ++k) {
      std::vector<double> x(n);
      for (double& e : x) {
        const double u = rng.uniform();
        e = u < zero_share ? -0.0 : rng.normal() * 0.3;
      }
      t.push_back(std::move(x));
    }
  return t;
}

std::vector<DenseLayer> make_layers(const Tensors& params) {
  std::vector<DenseLayer> layers;
  for (std::size_t l = 0; l < params.size() / 2; ++l) {
    Tensor w(1, params[2 * l].size()), b(1, params[2 * l + 1].size());
    for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = params[2 * l][i];
    for (std::size_t i = 0; i < b.size(); ++i)
      b.data()[i] = params[2 * l + 1][i];
    layers.emplace_back(std::move(w), std::move(b), Activation::kIdentity);
  }
  return layers;
}

Tensors flatten(const std::vector<DenseLayer>& layers, bool grads = false) {
  Tensors t;
  for (const DenseLayer& layer : layers) {
    const Tensor& w = grads ? layer.weight_grad() : layer.weights();
    const Tensor& b = grads ? layer.bias_grad() : layer.bias();
    t.emplace_back(w.data(), w.data() + w.size());
    t.emplace_back(b.data(), b.data() + b.size());
  }
  return t;
}

// The optimiser's step counter and moments, in the flat tensor order, read
// back from its saved state.
struct Moments {
  std::uint64_t t = 0;
  Tensors m, v;
};

Moments moments(const AdamOptimizer& opt) {
  persist::BinaryWriter out;
  opt.save_state(out);
  persist::BinaryReader in(out.bytes().data(), out.bytes().size(), "test");
  const auto read_list = [&in] {
    Tensors list(in.u64());
    for (auto& t : list) {
      t.resize(in.u64() * in.u64());
      for (double& e : t) e = in.f64();
    }
    return list;
  };
  Moments s;
  s.t = in.u64();
  const Tensors wm = read_list(), wv = read_list(), bm = read_list(),
                bv = read_list();
  for (std::size_t l = 0; l < wm.size(); ++l) {
    s.m.push_back(wm[l]);
    s.m.push_back(bm[l]);
    s.v.push_back(wv[l]);
    s.v.push_back(bv[l]);
  }
  return s;
}

// The unfused tail as naive loops.
struct Reference {
  Tensors params, target, m, v, reduced;
  std::uint64_t t = 0;

  double step(const std::vector<Tensors>& blocks, double max_norm,
              double keep, bool soft_update) {
    reduced.assign(params.size(), {});
    for (std::size_t j = 0; j < params.size(); ++j) {
      reduced[j].assign(params[j].size(), 0.0);
      for (const Tensors& block : blocks)
        for (std::size_t i = 0; i < params[j].size(); ++i)
          reduced[j][i] += block[j][i];
    }
    double sq_norm = 0.0;
    for (const auto& g : reduced)
      for (const double e : g) sq_norm += e * e;
    const double norm = std::sqrt(sq_norm);
    if (!std::isfinite(norm)) return norm;
    const bool clip = norm > max_norm && norm > 0.0;
    const double scale = clip ? max_norm / norm : 1.0;
    if (m.empty()) {
      for (const auto& p : params) {
        m.emplace_back(p.size(), 0.0);
        v.emplace_back(p.size(), 0.0);
      }
    }
    ++t;
    const double bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(t));
    const double bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(t));
    for (std::size_t j = 0; j < params.size(); ++j)
      for (std::size_t i = 0; i < params[j].size(); ++i) {
        const double g = clip ? reduced[j][i] * scale : reduced[j][i];
        m[j][i] = kBeta1 * m[j][i] + (1.0 - kBeta1) * g;
        v[j][i] = kBeta2 * v[j][i] + (1.0 - kBeta2) * g * g;
        const double m_hat = m[j][i] / bias1;
        const double v_hat = v[j][i] / bias2;
        params[j][i] -= kLr * m_hat / (std::sqrt(v_hat) + kEps);
      }
    if (keep != 1.0)  // the head layer's weights and bias
      for (std::size_t j = params.size() - 2; j < params.size(); ++j)
        for (double& p : params[j]) p *= keep;
    if (soft_update)
      for (std::size_t j = 0; j < params.size(); ++j)
        for (std::size_t i = 0; i < params[j].size(); ++i)
          target[j][i] = kTau * params[j][i] + (1.0 - kTau) * target[j][i];
    return norm;
  }
};

std::vector<TrainPass> to_passes(const std::vector<Tensors>& blocks) {
  std::vector<TrainPass> passes(blocks.size());
  for (std::size_t m = 0; m < blocks.size(); ++m) {
    const std::vector<DenseLayer> grads = make_layers(blocks[m]);
    passes[m].grads.resize(grads.size());
    for (std::size_t l = 0; l < grads.size(); ++l) {
      passes[m].grads[l].weight = grads[l].weights();
      passes[m].grads[l].bias = grads[l].bias();
    }
  }
  return passes;
}

class FusedTail : public ::testing::TestWithParam<kern::Isa> {
 protected:
  void SetUp() override {
    if (!kern::isa_supported(GetParam()))
      GTEST_SKIP() << "this CPU lacks the instruction set";
  }

  static void expect_bits(const Tensors& got, const Tensors& want,
                          const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(got[j].size(), want[j].size()) << what << " tensor " << j;
      for (std::size_t i = 0; i < got[j].size(); ++i)
        ASSERT_EQ(bits(got[j][i]), bits(want[j][i]))
            << what << " tensor " << j << " element " << i;
    }
  }

  // Four steps against the reference; the gradient scale alternates so
  // that clipping is on for some steps and off for others.
  void run(std::size_t blocks, double keep, bool soft_update) {
    Rng rng(31 + blocks);
    Reference ref;
    ref.params = random_tensors(rng, 0.1);
    ref.target = random_tensors(rng, 0.1);
    std::vector<DenseLayer> layers = make_layers(ref.params);
    std::vector<DenseLayer> target = make_layers(ref.target);
    AdamOptimizer opt(kLr, kBeta1, kBeta2, kEps);
    StepFold fold;
    fold.head_keep = keep;
    if (soft_update) {
      fold.target = &target;
      fold.tau = kTau;
    }
    for (int step = 0; step < 4; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      std::vector<Tensors> grads;
      // Half the block elements are -0.0, so some reduced elements sum
      // -0.0 blocks only and must come out +0.0.
      for (std::size_t m = 0; m < blocks; ++m)
        grads.push_back(random_tensors(rng, 0.5));
      // Norms are ~0.3 * sqrt(1100 * blocks / 2): above 1 always, below
      // 100 always.
      const double max_norm = step % 2 == 0 ? 1.0 : 100.0;
      const double want_norm = ref.step(grads, max_norm, keep, soft_update);
      const double norm = sharded_adam_step(to_passes(grads), blocks, layers,
                                            max_norm, opt, fold, GetParam());
      ASSERT_EQ(bits(norm), bits(want_norm));
      expect_bits(flatten(layers, true), ref.reduced, "reduced gradient");
      expect_bits(flatten(layers), ref.params, "parameter");
      expect_bits(flatten(target), ref.target, "target");
      const Moments got = moments(opt);
      EXPECT_EQ(got.t, ref.t);
      expect_bits(got.m, ref.m, "first moment");
      expect_bits(got.v, ref.v, "second moment");
      if (HasFailure()) return;
    }
  }
};

TEST_P(FusedTail, AdamAloneMatchesReferenceBitwise) {
  for (const std::size_t blocks : {1, 3, 8, 9, 17}) {
    SCOPED_TRACE("blocks " + std::to_string(blocks));
    run(blocks, 1.0, false);
  }
}

TEST_P(FusedTail, DecayAndSoftUpdateMatchReferenceBitwise) {
  for (const std::size_t blocks : {1, 3, 8, 9, 17}) {
    SCOPED_TRACE("blocks " + std::to_string(blocks));
    run(blocks, 1.0 - 5e-4, true);
  }
}

TEST_P(FusedTail, SoftUpdateWithoutDecayMatchesReferenceBitwise) {
  run(4, 1.0, true);
}

TEST_P(FusedTail, NonFiniteNormThrowsAndChangesNothing) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    Rng rng(41);
    std::vector<DenseLayer> layers = make_layers(random_tensors(rng, 0.1));
    std::vector<DenseLayer> target = make_layers(random_tensors(rng, 0.1));
    AdamOptimizer opt(kLr, kBeta1, kBeta2, kEps);
    const StepFold fold{1.0 - 5e-4, &target, kTau};
    // One good step first, so the moments and the counter are non-trivial.
    sharded_adam_step(to_passes({random_tensors(rng, 0.1)}), 1, layers, 1.0,
                      opt, fold, GetParam());
    const Tensors params_before = flatten(layers);
    const Tensors target_before = flatten(target);
    const Moments moments_before = moments(opt);
    // The bad value sits in the last element of the last block of the last
    // tensor: every other element is reduced before the norm is known.
    std::vector<Tensors> grads{random_tensors(rng, 0.1),
                               random_tensors(rng, 0.1)};
    grads.back().back().back() = bad;
    EXPECT_THROW(sharded_adam_step(to_passes(grads), 2, layers, 1.0, opt,
                                   fold, GetParam()),
                 NonFiniteGradient);
    expect_bits(flatten(layers), params_before, "parameter");
    expect_bits(flatten(target), target_before, "target");
    const Moments moments_after = moments(opt);
    EXPECT_EQ(moments_after.t, moments_before.t);
    expect_bits(moments_after.m, moments_before.m, "first moment");
    expect_bits(moments_after.v, moments_before.v, "second moment");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Isa, FusedTail,
    ::testing::Values(kern::Isa::kBaseline, kern::Isa::kAvx2,
                      kern::Isa::kAvx512),
    [](const ::testing::TestParamInfo<kern::Isa>& info) {
      switch (info.param) {
        case kern::Isa::kAvx512: return std::string("avx512");
        case kern::Isa::kAvx2: return std::string("avx2");
        default: return std::string("baseline");
      }
    });

}  // namespace
}  // namespace miras::nn
