// Parity and determinism tests for the matmul seam and the single-row GEMV
// (nn/kernels.h).
//
// The load-bearing properties:
//  - Every product of the seam — C = A·B with its fused bias/ReLU
//    epilogue, C = Aᵀ·B, C = A·Bᵀ with its fused ReLU mask — equals a
//    naive ascending-k loop BIT FOR BIT at every instantiation (2, 4 and 8
//    doubles per vector), on ragged shapes and on inputs holding exact
//    zeros and -0.0. Bits are compared as integers: EXPECT_EQ on doubles
//    would let -0.0 pass for +0.0.
//  - The forward dispatch is bit-identical to the GEMV row by row, so
//    batched inference equals row-at-a-time inference bitwise (the
//    tensor.h invariant batched serving relies on).
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/kernels.h"
#include "nn/tensor.h"

namespace miras::nn {
namespace {

using kern::gemm;
using kern::gemv;

struct Shape {
  std::size_t m, k, n;
};

// Bitwise equality as integers: EXPECT_EQ on doubles equates -0.0 and +0.0.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Ragged shapes exercising every tail path: column-strip remainders, row
// tile tails, degenerate singletons.
const Shape kShapes[] = {
    {1, 1, 1},   {1, 3, 5},   {1, 4, 8},    {1, 5, 7},   {1, 129, 40},
    {2, 8, 16},  {3, 5, 7},   {4, 17, 9},   {5, 31, 33}, {7, 64, 12},
    {8, 129, 40}, {9, 24, 12}, {16, 33, 31}, {13, 7, 3},
};

std::vector<double> random_matrix(std::size_t rows, std::size_t cols,
                                  Rng& rng) {
  std::vector<double> m(rows * cols);
  for (double& v : m) v = rng.normal() * 2.0;
  // Sprinkle exact zeros: the historical kernels have zero-skip fast paths
  // and parity must hold through them.
  for (std::size_t i = 0; i < m.size(); i += 7) m[i] = 0.0;
  return m;
}

TEST(Kernels, DispatchMatchesScalarBitwiseInDefaultBuild) {
  Rng rng(11);
  for (const Shape& s : kShapes) {
    const auto a = random_matrix(s.m, s.k, rng);
    const auto w = random_matrix(s.k, s.n, rng);
    std::vector<double> via_dispatch(s.m * s.n), via_gemv(s.m * s.n);
    gemm(a.data(), w.data(), via_dispatch.data(), s.m, s.k, s.n);
    for (std::size_t r = 0; r < s.m; ++r)
      gemv(a.data() + r * s.k, w.data(), via_gemv.data() + r * s.n, s.k,
           s.n);
    for (std::size_t i = 0; i < via_dispatch.size(); ++i)
      EXPECT_EQ(bits(via_dispatch[i]), bits(via_gemv[i])) << "shape m=" << s.m;
  }
}

TEST(Kernels, SeamGemmMatchesRowwiseGemvBitwise) {
  Rng rng(12);
  for (const kern::Isa isa :
       {kern::Isa::kBaseline, kern::Isa::kAvx2, kern::Isa::kAvx512}) {
    if (!kern::isa_supported(isa)) continue;
    for (const Shape& s : kShapes) {
      const auto a = random_matrix(s.m, s.k, rng);
      const auto w = random_matrix(s.k, s.n, rng);
      std::vector<double> blocked(s.m * s.n), rowwise(s.n);
      kern::gemm_nn(isa, a.data(), w.data(), blocked.data(), s.m, s.k, s.n);
      for (std::size_t r = 0; r < s.m; ++r) {
        gemv(a.data() + r * s.k, w.data(), rowwise.data(), s.k, s.n);
        for (std::size_t j = 0; j < s.n; ++j)
          EXPECT_EQ(bits(blocked[r * s.n + j]), bits(rowwise[j]));
      }
    }
  }
}

TEST(Kernels, MatmulIntoDispatchesGemvForSingleRow) {
  // Tensor::matmul_into with m == 1 must agree bitwise with the GEMV —
  // the serving fast path relies on it.
  Rng rng(17);
  const std::size_t k = 33, n = 12;
  const auto a = random_matrix(1, k, rng);
  const auto w = random_matrix(k, n, rng);
  Tensor ta(1, k), tw(k, n), out;
  for (std::size_t p = 0; p < k; ++p) ta(0, p) = a[p];
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t j = 0; j < n; ++j) tw(p, j) = w[p * n + j];
  ta.matmul_into(tw, out);
  std::vector<double> direct(n);
  gemv(a.data(), w.data(), direct.data(), k, n);
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_EQ(bits(out(0, j)), bits(direct[j]));
}

// ---- The seam against naive ascending-k references, bit for bit --------

// Normal values sprinkled with exact +0.0 and -0.0 (ReLU outputs and
// masks, plus the sign of zero the integer comparison can see).
std::vector<double> signed_zero_matrix(std::size_t rows, std::size_t cols,
                                       Rng& rng) {
  std::vector<double> m(rows * cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double u = rng.uniform();
    m[i] = u < 0.15 ? 0.0 : u < 0.3 ? -0.0 : rng.normal();
  }
  return m;
}

// C = A·B (a m x k, b k x n), optionally from a stored C.
std::vector<double> naive_nn(const std::vector<double>& a,
                             const std::vector<double>& b, std::size_t m,
                             std::size_t k, std::size_t n) {
  std::vector<double> c(m * n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) acc = acc + a[i * k + p] * b[p * n + j];
      c[i * n + j] = acc;
    }
  return c;
}

// C = Aᵀ·B (a k x m), each chain starting from init[i * n + j].
std::vector<double> naive_tn(const std::vector<double>& a,
                             const std::vector<double>& b,
                             std::vector<double> c, std::size_t m,
                             std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = c[i * n + j];
      for (std::size_t p = 0; p < k; ++p) acc = acc + a[p * m + i] * b[p * n + j];
      c[i * n + j] = acc;
    }
  return c;
}

// C = A·Bᵀ (b n x k).
std::vector<double> naive_nt(const std::vector<double>& a,
                             const std::vector<double>& b, std::size_t m,
                             std::size_t k, std::size_t n) {
  std::vector<double> c(m * n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) acc = acc + a[i * k + p] * b[j * k + p];
      c[i * n + j] = acc;
    }
  return c;
}

class KernelSeam : public ::testing::TestWithParam<kern::Isa> {
 protected:
  void SetUp() override {
    if (!kern::isa_supported(GetParam()))
      GTEST_SKIP() << "this CPU lacks the instruction set";
  }

  // Runs check(m, k, n) over the ragged shape grid: every column-strip
  // remainder at 2, 4 and 8 lanes (n = 24 is one full 8-lane strip, 25 one
  // past it), and k on both sides of the dX chunk of 128 steps.
  template <typename Check>
  void for_each_shape(Check&& check) {
    for (const std::size_t m : {1, 2, 3, 5, 16, 17})
      for (const std::size_t n : {1, 4, 7, 8, 9, 16, 24, 25, 48, 64, 68})
        for (const std::size_t k : {1, 4, 16, 64, 68, 127, 128, 129, 257}) {
          SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                       " n=" + std::to_string(n));
          check(m, k, n);
          if (HasFailure()) return;
        }
  }

  static void expect_bits(const std::vector<double>& got,
                          const std::vector<double>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(bits(got[i]), bits(want[i])) << "element " << i;
  }
};

TEST_P(KernelSeam, GemmNnMatchesNaiveBitwise) {
  Rng rng(21);
  for_each_shape([&](std::size_t m, std::size_t k, std::size_t n) {
    const auto a = signed_zero_matrix(m, k, rng);
    const auto b = signed_zero_matrix(k, n, rng);
    std::vector<double> c(m * n, 7.0);
    kern::gemm_nn(GetParam(), a.data(), b.data(), c.data(), m, k, n);
    expect_bits(c, naive_nn(a, b, m, k, n));
  });
}

TEST_P(KernelSeam, GemmNnFusedBiasReluEpilogueMatchesSeparatePasses) {
  Rng rng(22);
  for_each_shape([&](std::size_t m, std::size_t k, std::size_t n) {
    const auto a = signed_zero_matrix(m, k, rng);
    const auto b = signed_zero_matrix(k, n, rng);
    const auto bias = signed_zero_matrix(1, n, rng);
    std::vector<double> pre(m * n), post(m * n);
    kern::gemm_nn(GetParam(), a.data(), b.data(), post.data(), m, k, n,
                  {bias.data(), pre.data(), true});
    // The separate passes the epilogue replaces: GEMM, += bias, relu.
    auto want_pre = naive_nn(a, b, m, k, n);
    for (std::size_t i = 0; i < m * n; ++i) want_pre[i] += bias[i % n];
    std::vector<double> want_post(m * n);
    for (std::size_t i = 0; i < m * n; ++i)
      want_post[i] = want_pre[i] > 0.0 ? want_pre[i] : 0.0;
    expect_bits(pre, want_pre);
    expect_bits(post, want_post);
  });
}

TEST_P(KernelSeam, GemmTnMatchesNaiveBitwise) {
  Rng rng(23);
  for_each_shape([&](std::size_t m, std::size_t k, std::size_t n) {
    const auto a = signed_zero_matrix(k, m, rng);
    const auto b = signed_zero_matrix(k, n, rng);
    std::vector<double> c(m * n, 7.0);
    kern::gemm_tn(GetParam(), a.data(), b.data(), c.data(), m, k, n);
    expect_bits(c, naive_tn(a, b, std::vector<double>(m * n, 0.0), m, k, n));
  });
}

TEST_P(KernelSeam, GemmNtMatchesNaiveBitwise) {
  Rng rng(25);
  for_each_shape([&](std::size_t m, std::size_t k, std::size_t n) {
    const auto a = signed_zero_matrix(m, k, rng);
    const auto b = signed_zero_matrix(n, k, rng);
    std::vector<double> c(m * n, 7.0);
    kern::gemm_nt(GetParam(), a.data(), b.data(), c.data(), m, k, n);
    expect_bits(c, naive_nt(a, b, m, k, n));
  });
}

TEST_P(KernelSeam, GemmNtFusedReluMaskMatchesActivationBackward) {
  Rng rng(26);
  for_each_shape([&](std::size_t m, std::size_t k, std::size_t n) {
    const auto a = signed_zero_matrix(m, k, rng);
    const auto b = signed_zero_matrix(n, k, rng);
    const auto mask = signed_zero_matrix(m, n, rng);
    std::vector<double> c(m * n);
    kern::gemm_nt(GetParam(), a.data(), b.data(), c.data(), m, k, n,
                  mask.data());
    auto want = naive_nt(a, b, m, k, n);
    for (std::size_t i = 0; i < m * n; ++i)
      want[i] = mask[i] > 0.0 ? want[i] : 0.0;
    expect_bits(c, want);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Isa, KernelSeam,
    ::testing::Values(kern::Isa::kBaseline, kern::Isa::kAvx2,
                      kern::Isa::kAvx512),
    [](const ::testing::TestParamInfo<kern::Isa>& info) {
      switch (info.param) {
        case kern::Isa::kAvx512: return std::string("avx512");
        case kern::Isa::kAvx2: return std::string("avx2");
        default: return std::string("baseline");
      }
    });

TEST(Kernels, SelectedIsaIsTheWidestSupported) {
  EXPECT_TRUE(kern::isa_supported(kern::Isa::kBaseline));
  // AVX-512F implies AVX2.
  if (kern::isa_supported(kern::Isa::kAvx512)) {
    EXPECT_TRUE(kern::isa_supported(kern::Isa::kAvx2));
  }
  const kern::Isa widest = kern::isa_supported(kern::Isa::kAvx512)
                               ? kern::Isa::kAvx512
                           : kern::isa_supported(kern::Isa::kAvx2)
                               ? kern::Isa::kAvx2
                               : kern::Isa::kBaseline;
  EXPECT_EQ(kern::selected_isa(), widest);
}

}  // namespace
}  // namespace miras::nn
