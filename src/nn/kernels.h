// The matmul seam: every product the network stack computes goes through
// this header.
//
// One register-tiled kernel template covers the three training shapes:
//
//   gemm_nn  C = A · B      forward  (A m x k, B k x n)
//   gemm_tn  C = Aᵀ · B     dW       (A k x m, B k x n)
//   gemm_nt  C = A · Bᵀ     dX       (A m x k, B n x k)
//
// Contract (what keeps every golden and bit-identity suite unmodified):
//  - Each output element is one chain of separate multiplies and adds over
//    the reduction index p in ascending order, starting from +0.0. The
//    kernels vectorise across OUTPUT COLUMNS only, never across p, so a
//    lane computes exactly what the scalar loop computes, in the same
//    order.
//  - No FMA: the build has no -march, and kernels.cpp is compiled with
//    -ffp-contract=off (src/CMakeLists.txt). AVX-512F carries FMA, so
//    without that flag GCC would fuse acc + s * b inside the
//    target("avx512f") instantiation.
//  - The template is instantiated three times: at 2 doubles per vector
//    (the baseline every x86-64 CPU runs), at 4 under target("avx2") and
//    at 8 under target("avx512f"). Columns left after whole vectors step
//    down through one 4-double vector to one-lane columns, so no shape
//    falls into a strided loop. The widest instantiation the CPU runs is
//    picked once, from CPUID, the first time a kernel runs. There is no
//    environment variable, option or flag: the instantiations produce the
//    same bits, so the choice is invisible in results (test_kernels.cpp
//    compares each with naive loops bitwise).
//  - gemm_nn and gemm_tn read B in place, a strip of columns at a time.
//    gemm_nt (dX) runs the same row tiles over A on strips of Bᵀ, which it
//    packs from B on the stack (through register transposes) in
//    chunks of 128 reduction steps; between chunks the partial sums park
//    in C and reload exactly. B is the live weight matrix, read afresh on
//    every call, so no weight-side copy can go stale when the weights
//    change. All three store whole vectors of C's rows.
//  - Epilogues are fused into the tile store: the forward writes
//    pre = acc + bias (never accumulating from the bias) and post =
//    relu(pre); dX applies the ReLU mask of the layer below as a vector
//    select (mask > 0 ? acc : +0.0). Both are the operations of the
//    separate bias, activation and activation-backward passes, element for
//    element.
//  - Nothing allocates.
//
// The single-row forward (m == 1, the serving and rollout shape) stays on
// the GEMV, whose ascending chain matches the seam's element for element.
// All kernels assume finite inputs (gemv's zero-skip drops 0 * x terms,
// which only differ from the seam for non-finite x). `c` must not alias
// the operands.
//
// The optimiser's per-element tail (adam) shares the seam's three
// instantiations, its CPUID choice and its no-contraction build: one
// vectorised walk per parameter tensor, separate multiplies and adds in
// the scalar loop's order.
#pragma once

#include <cstddef>

namespace miras::nn::kern {

/// The three instantiations of the seam.
enum class Isa {
  kBaseline,  // 2 doubles per vector (SSE2 on x86-64)
  kAvx2,      // 4 doubles per vector, target("avx2"), no FMA
  kAvx512,    // 8 doubles per vector, target("avx512f"), never contracted
};

/// Whether this CPU can run `isa` (kBaseline always can).
bool isa_supported(Isa isa);

/// The instantiation the un-suffixed entry points run: the widest the CPU
/// has, decided once.
Isa selected_isa();

/// Fused forward epilogue: c = relu ? relu(acc + bias) : acc + bias, and
/// pre = acc + bias when `pre` is set. Null bias means +0.0 is not added:
/// c = acc exactly. `pre` has c's shape and must not alias it.
struct Epilogue {
  const double* bias = nullptr;  // 1 x n
  double* pre = nullptr;         // m x n
  bool relu = false;
};

/// out[j] = sum_p a[p] * w[p * n + j], p ascending. a is 1 x k, w is k x n.
void gemv(const double* a, const double* w, double* out, std::size_t k,
          std::size_t n);

/// The seam proper: C = A · B at `isa`, epilogue fused into the tile
/// store.
void gemm_nn(Isa isa, const double* a, const double* b, double* c,
             std::size_t m, std::size_t k, std::size_t n,
             const Epilogue& epilogue = {});

/// C = Aᵀ · B with A stored k x m (dW = Xᵀ · dY).
void gemm_tn(Isa isa, const double* a, const double* b, double* c,
             std::size_t m, std::size_t k, std::size_t n);

/// C = A · Bᵀ with B stored n x k, packed into strips of Bᵀ on every call.
/// With `relu_mask` (m x n, C's layout) the epilogue writes
/// relu_mask > 0 ? acc : +0.0 — dX through the layer below's ReLU.
void gemm_nt(Isa isa, const double* a, const double* b, double* c,
             std::size_t m, std::size_t k, std::size_t n,
             const double* relu_mask = nullptr);

/// The forward dispatch: C = A · B, then the epilogue. m == 1 runs gemv()
/// followed by the epilogue as a separate pass (the same per-element
/// arithmetic); every other shape runs gemm_nn at selected_isa(). Row for
/// row bit-identical to gemv().
void gemm(const double* a, const double* b, double* c, std::size_t m,
          std::size_t k, std::size_t n, const Epilogue& epilogue = {});

/// The per-element tail of one optimiser step over n parameters, in this
/// order (every operation separate, never contracted):
///   g = grad * scale
///   m = beta1 * m + (1 - beta1) * g
///   v = beta2 * v + (1 - beta2) * g * g
///   p = p - learning_rate * (m / bias1) / (sqrt(v / bias2) + epsilon)
///   p = p * keep                         (decoupled decay)
///   t = tau * p + (1 - tau) * t          (Polyak update, when t is set)
/// scale == 1 and keep == 1 leave g and p exactly as they are, so one loop
/// serves the clipped and unclipped steps with or without decay. Square
/// root and division are correctly rounded at every width, so the three
/// instantiations agree bit for bit. The five arrays must not overlap.
struct AdamArgs {
  double* param;
  const double* grad;
  double* m;
  double* v;
  double* target;  // null: no Polyak update
  std::size_t n;
  double scale, keep, tau;
  double beta1, beta2, learning_rate, epsilon, bias1, bias2;
};

void adam(Isa isa, const AdamArgs& args);

inline void gemm_tn(const double* a, const double* b, double* c,
                    std::size_t m, std::size_t k, std::size_t n) {
  gemm_tn(selected_isa(), a, b, c, m, k, n);
}

inline void gemm_nt(const double* a, const double* b, double* c,
                    std::size_t m, std::size_t k, std::size_t n,
                    const double* relu_mask = nullptr) {
  gemm_nt(selected_isa(), a, b, c, m, k, n, relu_mask);
}

}  // namespace miras::nn::kern
