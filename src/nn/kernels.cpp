#include "nn/kernels.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/contracts.h"

namespace miras::nn::kern {

void gemv_scalar(const double* a, const double* w, double* out, std::size_t k,
                 std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] = 0.0;
  for (std::size_t p = 0; p < k; ++p) {
    const double v = a[p];
    // ReLU activations zero whole input columns often enough to pay for
    // this (mirrors the historical m == 1 tail of matmul_into).
    if (v == 0.0) continue;
    const double* w_row = w + p * n;
    for (std::size_t j = 0; j < n; ++j) out[j] += v * w_row[j];
  }
}

void gemv_lanes(const double* a, const double* w, double* out, std::size_t k,
                std::size_t n) {
  // Four reduction lanes (p % 4) broken over eight-column register tiles.
  // Each lane accumulates its p-subsequence in ascending order; lanes are
  // combined in the fixed order ((s0 + s1) + (s2 + s3)) and the p-remainder
  // is added last, ascending. The per-column reduction order is therefore
  // independent of the tile a column lands in, so widening or narrowing the
  // matrix never changes the surviving columns' bits.
  constexpr std::size_t kTile = 8;
  const std::size_t k4 = k - k % 4;
  std::size_t j = 0;
  for (; j + kTile <= n; j += kTile) {
    double s0[kTile] = {0.0}, s1[kTile] = {0.0};
    double s2[kTile] = {0.0}, s3[kTile] = {0.0};
    for (std::size_t p = 0; p < k4; p += 4) {
      const double a0 = a[p], a1 = a[p + 1], a2 = a[p + 2], a3 = a[p + 3];
      const double* w0 = w + p * n + j;
      const double* w1 = w0 + n;
      const double* w2 = w1 + n;
      const double* w3 = w2 + n;
      for (std::size_t t = 0; t < kTile; ++t) {
        s0[t] += a0 * w0[t];
        s1[t] += a1 * w1[t];
        s2[t] += a2 * w2[t];
        s3[t] += a3 * w3[t];
      }
    }
    for (std::size_t t = 0; t < kTile; ++t) {
      double acc = (s0[t] + s1[t]) + (s2[t] + s3[t]);
      for (std::size_t p = k4; p < k; ++p) acc += a[p] * w[p * n + j + t];
      out[j + t] = acc;
    }
  }
  for (; j < n; ++j) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t p = 0; p < k4; p += 4) {
      s0 += a[p] * w[p * n + j];
      s1 += a[p + 1] * w[(p + 1) * n + j];
      s2 += a[p + 2] * w[(p + 2) * n + j];
      s3 += a[p + 3] * w[(p + 3) * n + j];
    }
    double acc = (s0 + s1) + (s2 + s3);
    for (std::size_t p = k4; p < k; ++p) acc += a[p] * w[p * n + j];
    out[j] = acc;
  }
}

void gemm_lanes2(const double* a, const double* b, double* out, std::size_t m,
                 std::size_t k, std::size_t n) {
  // Two rows of A share each streamed block of B rows, with the same
  // four-lane split accumulation as gemv_lanes: lane l sums p ≡ l (mod 4)
  // ascending, lanes combine as ((s0 + s1) + (s2 + s3)), remainder added
  // last ascending. Because the per-element order matches gemv_lanes
  // exactly, any row of this GEMM is bit-identical to running that row
  // through the GEMV alone — which is what lets the serving path coalesce
  // requests into one batched pass without changing any client's answer.
  constexpr std::size_t kTile = 4;  // output columns per register tile
  const std::size_t k4 = k - k % 4;
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* a0 = a + i * k;
    const double* a1 = a0 + k;
    double* o0 = out + i * n;
    double* o1 = o0 + n;
    std::size_t j = 0;
    for (; j + kTile <= n; j += kTile) {
      double r0l0[kTile] = {0.0}, r0l1[kTile] = {0.0};
      double r0l2[kTile] = {0.0}, r0l3[kTile] = {0.0};
      double r1l0[kTile] = {0.0}, r1l1[kTile] = {0.0};
      double r1l2[kTile] = {0.0}, r1l3[kTile] = {0.0};
      for (std::size_t p = 0; p < k4; p += 4) {
        const double a00 = a0[p], a01 = a0[p + 1];
        const double a02 = a0[p + 2], a03 = a0[p + 3];
        const double a10 = a1[p], a11 = a1[p + 1];
        const double a12 = a1[p + 2], a13 = a1[p + 3];
        const double* w0 = b + p * n + j;
        const double* w1 = w0 + n;
        const double* w2 = w1 + n;
        const double* w3 = w2 + n;
        for (std::size_t t = 0; t < kTile; ++t) {
          const double b0 = w0[t], b1 = w1[t], b2 = w2[t], b3 = w3[t];
          r0l0[t] += a00 * b0;
          r0l1[t] += a01 * b1;
          r0l2[t] += a02 * b2;
          r0l3[t] += a03 * b3;
          r1l0[t] += a10 * b0;
          r1l1[t] += a11 * b1;
          r1l2[t] += a12 * b2;
          r1l3[t] += a13 * b3;
        }
      }
      for (std::size_t t = 0; t < kTile; ++t) {
        double acc0 = (r0l0[t] + r0l1[t]) + (r0l2[t] + r0l3[t]);
        double acc1 = (r1l0[t] + r1l1[t]) + (r1l2[t] + r1l3[t]);
        for (std::size_t p = k4; p < k; ++p) {
          const double bv = b[p * n + j + t];
          acc0 += a0[p] * bv;
          acc1 += a1[p] * bv;
        }
        o0[j + t] = acc0;
        o1[j + t] = acc1;
      }
    }
    for (; j < n; ++j) {
      double s00 = 0.0, s01 = 0.0, s02 = 0.0, s03 = 0.0;
      double s10 = 0.0, s11 = 0.0, s12 = 0.0, s13 = 0.0;
      for (std::size_t p = 0; p < k4; p += 4) {
        const double b0 = b[p * n + j], b1 = b[(p + 1) * n + j];
        const double b2 = b[(p + 2) * n + j], b3 = b[(p + 3) * n + j];
        s00 += a0[p] * b0;
        s01 += a0[p + 1] * b1;
        s02 += a0[p + 2] * b2;
        s03 += a0[p + 3] * b3;
        s10 += a1[p] * b0;
        s11 += a1[p + 1] * b1;
        s12 += a1[p + 2] * b2;
        s13 += a1[p + 3] * b3;
      }
      double acc0 = (s00 + s01) + (s02 + s03);
      double acc1 = (s10 + s11) + (s12 + s13);
      for (std::size_t p = k4; p < k; ++p) {
        const double bv = b[p * n + j];
        acc0 += a0[p] * bv;
        acc1 += a1[p] * bv;
      }
      o0[j] = acc0;
      o1[j] = acc1;
    }
  }
  if (i < m) gemv_lanes(a + i * k, b, out + i * n, k, n);
}

// ---- The seam ----------------------------------------------------------
//
// One register tile: acc[r][v] holds R rows by NV vectors of output
// columns. Every step p loads the NV vectors of row p of the right operand
// once and multiplies each by R broadcast scalars of the left operand; the
// add into acc is a separate instruction (no FMA), so every lane is the
// scalar chain acc = acc + a * b in ascending p. The same template runs at
// V = v2d, at V = v4d inside the target("avx2") entry points, and at
// V = double (one-lane "vectors") for the columns left after whole
// vectors, so ragged shapes never fall back to a strided scalar loop.

namespace {

// Every helper is forced inline so that it is compiled inside its entry
// point, under that entry point's target ISA.
#define MIRAS_KERNEL inline __attribute__((always_inline))

using v2d = double __attribute__((vector_size(16)));
using v4d = double __attribute__((vector_size(32)));

template <class V>
inline constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

// Helpers take vectors by reference: a 32-byte vector passed by value
// through a function compiled without AVX would change the calling
// convention (they are always inlined, but -Wpsabi cannot know that).
template <class V>
MIRAS_KERNEL void load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}

template <class V>
MIRAS_KERNEL void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// The activation kernel's relu, lane for lane: x > 0 ? x : +0.0.
template <class V>
MIRAS_KERNEL void relu_inplace(V& x) {
  if constexpr (std::is_same_v<V, double>) {
    x = x > 0.0 ? x : 0.0;
  } else {
    x = x > 0.0 ? x : V{};
  }
}

// acc[r][v] += a(r, p) * b_p[v] for p = 0 .. k-1 ascending, where
// a(r, p) = a[r * a_rs + p * a_ps] and row p of b starts at b + p * ldb.
template <class V, int R, int NV>
MIRAS_KERNEL void accumulate(V (&acc)[R][NV], const double* a,
                             std::size_t a_rs, std::size_t a_ps,
                             const double* b, std::size_t ldb, std::size_t k) {
  for (std::size_t p = 0; p < k; ++p) {
    V bv[NV];
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) load(bv[v], b + p * ldb + v * kLanes<V>);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const double s = a[r * a_rs + p * a_ps];
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) acc[r][v] += s * bv[v];
    }
  }
}

// How a row tile's chains end: stored as they are (kPlain) or through the
// forward epilogue (kEpilogue). Both start from +0.0. A template parameter,
// so the short-k dW tiles carry no epilogue branches.
enum class TileMode { kPlain, kEpilogue };

// C = A · B (a_rs = k, a_ps = 1) and C = Aᵀ · B (a_rs = 1, a_ps = m).
struct RowArgs {
  const double* a;
  std::size_t a_rs, a_ps;
  const double* b;
  double* c;
  std::size_t k, n;
  Epilogue epilogue;
  TileMode mode;
};

// Register tile of the row products: kTileRows rows by kTileVectors
// vectors of columns (twelve accumulators; fewer for the edge tiles).
constexpr int kTileRows = 4;
constexpr int kTileVectors = 3;

template <TileMode kMode, class V, int R, int NV>
MIRAS_KERNEL void row_tile(const RowArgs& g, std::size_t i, std::size_t j) {
  constexpr std::size_t L = kLanes<V>;
  double* c = g.c + i * g.n + j;
  V acc[R][NV];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) acc[r][v] = V{};
  }
  accumulate<V, R, NV>(acc, g.a + i * g.a_rs, g.a_rs, g.a_ps, g.b + j, g.n,
                       g.k);
  const Epilogue& e = g.epilogue;
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      const std::size_t off = r * g.n + v * L;
      V& out = acc[r][v];
      if constexpr (kMode == TileMode::kEpilogue) {
        if (e.bias != nullptr) {
          V bias;
          load(bias, e.bias + j + v * L);
          out = out + bias;
        }
        if (e.pre != nullptr) store(e.pre + i * g.n + j + off, out);
        if (e.relu) relu_inplace(out);
      }
      store(c + off, out);
    }
  }
}

// One strip of NV vectors of output columns, all rows: the strip of B
// (k rows by NV vectors) stays hot in L1 while every row tile reuses it.
template <TileMode kMode, class V, int NV>
MIRAS_KERNEL void column_strip(const RowArgs& g, std::size_t m,
                               std::size_t j) {
  constexpr int R = kTileRows;
  std::size_t i = 0;
  for (; i + R <= m; i += R) row_tile<kMode, V, R, NV>(g, i, j);
  switch (m - i) {  // row tails stay vectorised across columns
    case 1: row_tile<kMode, V, 1, NV>(g, i, j); break;
    case 2: row_tile<kMode, V, 2, NV>(g, i, j); break;
    case 3: row_tile<kMode, V, 3, NV>(g, i, j); break;
    default: break;
  }
}

template <TileMode kMode, class V>
MIRAS_KERNEL void column_strips(const RowArgs& g, std::size_t m) {
  constexpr std::size_t L = kLanes<V>;
  constexpr int NV = kTileVectors;
  std::size_t j = 0;
  for (; j + NV * L <= g.n; j += NV * L)
    column_strip<kMode, V, NV>(g, m, j);
  switch ((g.n - j) / L) {  // whole vectors left
    case 1: column_strip<kMode, V, 1>(g, m, j); break;
    case 2: column_strip<kMode, V, 2>(g, m, j); break;
    case 3: column_strip<kMode, V, 3>(g, m, j); break;
    default: break;
  }
  j += (g.n - j) / L * L;
  switch (g.n - j) {  // under one vector left: one-lane columns
    case 1: column_strip<kMode, double, 1>(g, m, j); break;
    case 2: column_strip<kMode, double, 2>(g, m, j); break;
    case 3: column_strip<kMode, double, 3>(g, m, j); break;
    default: break;
  }
}

template <class V>
MIRAS_KERNEL void rows(const RowArgs& g, std::size_t m) {
  if (g.mode == TileMode::kPlain) {
    column_strips<TileMode::kPlain, V>(g, m);
  } else {
    column_strips<TileMode::kEpilogue, V>(g, m);
  }
}

// C = A · Bᵀ, computed as the tiles of Cᵀ = B · Aᵀ: B (n x k) is the
// broadcast operand read in place, and a panel of up to 8 rows of A is
// packed transposed on the stack so its columns load as vectors. The
// reduction runs in chunks of kPackSteps; between chunks the partial sums
// park in C and reload exactly, so a chunk boundary does not touch the
// chain.
constexpr std::size_t kPackSteps = 256;
constexpr std::size_t kPanelRows = 8;

struct PanelArgs {
  const double* a;
  const double* b;
  double* c;
  std::size_t m, k, n;
  const double* mask;
  double* pack;
};

template <class V, int R, int NV>
MIRAS_KERNEL void panel_tile(const PanelArgs& g, std::size_t i, std::size_t j,
                             std::size_t p0, std::size_t kc) {
  constexpr std::size_t L = kLanes<V>;
  // acc[r][v] lane l is C[i + v * L + l][j + r].
  V acc[R][NV];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      double lanes[L];
      for (std::size_t l = 0; l < L; ++l)
        lanes[l] = p0 == 0 ? 0.0 : g.c[(i + v * L + l) * g.n + j + r];
      load(acc[r][v], lanes);
    }
  }
  accumulate<V, R, NV>(acc, g.b + j * g.k + p0, g.k, 1, g.pack, NV * L, kc);
  const bool last = p0 + kc == g.k;
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      double lanes[L];
      store(lanes, acc[r][v]);
      for (std::size_t l = 0; l < L; ++l) {
        const std::size_t at = (i + v * L + l) * g.n + j + r;
        g.c[at] = last && g.mask != nullptr && !(g.mask[at] > 0.0)
                      ? 0.0
                      : lanes[l];
      }
    }
  }
}

template <class V, int NV>
MIRAS_KERNEL void panel(const PanelArgs& g, std::size_t i) {
  constexpr std::size_t P = NV * kLanes<V>;
  static_assert(P <= kPanelRows);
  std::size_t p0 = 0;
  do {
    const std::size_t kc = std::min(kPackSteps, g.k - p0);
    for (std::size_t t = 0; t < P; ++t) {
      const double* row = g.a + (i + t) * g.k + p0;
      for (std::size_t p = 0; p < kc; ++p) g.pack[p * P + t] = row[p];
    }
    std::size_t j = 0;
    for (; j + 4 <= g.n; j += 4) panel_tile<V, 4, NV>(g, i, j, p0, kc);
    switch (g.n - j) {
      case 1: panel_tile<V, 1, NV>(g, i, j, p0, kc); break;
      case 2: panel_tile<V, 2, NV>(g, i, j, p0, kc); break;
      case 3: panel_tile<V, 3, NV>(g, i, j, p0, kc); break;
      default: break;
    }
    p0 += kc;
  } while (p0 < g.k);
}

template <class V>
MIRAS_KERNEL void panels(PanelArgs g) {
  constexpr std::size_t L = kLanes<V>;
  alignas(64) double pack[kPackSteps * kPanelRows];
  g.pack = pack;
  std::size_t i = 0;
  for (; i + 2 * L <= g.m; i += 2 * L) panel<V, 2>(g, i);
  if (i + L <= g.m) {
    panel<V, 1>(g, i);
    i += L;
  }
  switch (g.m - i) {
    case 1: panel<double, 1>(g, i); break;
    case 2: panel<double, 2>(g, i); break;
    case 3: panel<double, 3>(g, i); break;
    default: break;
  }
}

void rows_baseline(const RowArgs& g, std::size_t m) { rows<v2d>(g, m); }
void panels_baseline(const PanelArgs& g) { panels<v2d>(g); }

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void rows_avx2(const RowArgs& g,
                                               std::size_t m) {
  rows<v4d>(g, m);
}
__attribute__((target("avx2"))) void panels_avx2(const PanelArgs& g) {
  panels<v4d>(g);
}

bool cpu_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
#else
void rows_avx2(const RowArgs& g, std::size_t m) { rows_baseline(g, m); }
void panels_avx2(const PanelArgs& g) { panels_baseline(g); }
bool cpu_has_avx2() { return false; }
#endif

void run_rows(Isa isa, const RowArgs& g, std::size_t m) {
  MIRAS_EXPECTS(isa_supported(isa));
  if (isa == Isa::kAvx2) {
    rows_avx2(g, m);
  } else {
    rows_baseline(g, m);
  }
}

#undef MIRAS_KERNEL

}  // namespace

bool isa_supported(Isa isa) {
  static const bool avx2 = cpu_has_avx2();
  return isa == Isa::kBaseline || avx2;
}

Isa selected_isa() {
  static const Isa isa =
      isa_supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kBaseline;
  return isa;
}

void gemm_nn(Isa isa, const double* a, const double* b, double* c,
             std::size_t m, std::size_t k, std::size_t n,
             const Epilogue& epilogue) {
  const bool plain = epilogue.bias == nullptr && epilogue.pre == nullptr &&
                     !epilogue.relu;
  run_rows(isa,
           RowArgs{a, k, 1, b, c, k, n, epilogue,
                   plain ? TileMode::kPlain : TileMode::kEpilogue},
           m);
}

void gemm_tn(Isa isa, const double* a, const double* b, double* c,
             std::size_t m, std::size_t k, std::size_t n) {
  run_rows(isa, RowArgs{a, 1, m, b, c, k, n, Epilogue{}, TileMode::kPlain},
           m);
}

void gemm_nt(Isa isa, const double* a, const double* b, double* c,
             std::size_t m, std::size_t k, std::size_t n,
             const double* relu_mask) {
  MIRAS_EXPECTS(isa_supported(isa));
  const PanelArgs g{a, b, c, m, k, n, relu_mask, nullptr};
  if (isa == Isa::kAvx2) {
    panels_avx2(g);
  } else {
    panels_baseline(g);
  }
}

void gemm(const double* a, const double* b, double* c, std::size_t m,
          std::size_t k, std::size_t n, const Epilogue& epilogue) {
  if (m != 1 && !kNativeKernels) {
    gemm_nn(selected_isa(), a, b, c, m, k, n, epilogue);
    return;
  }
  if (m == 1) {
    gemv(a, b, c, k, n);
  } else {
    gemm_lanes2(a, b, c, m, k, n);
  }
  // The epilogue as its own pass: the fused store's arithmetic, element by
  // element.
  if (epilogue.bias == nullptr && epilogue.pre == nullptr && !epilogue.relu)
    return;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double out = c[i * n + j];
      if (epilogue.bias != nullptr) out = out + epilogue.bias[j];
      if (epilogue.pre != nullptr) epilogue.pre[i * n + j] = out;
      if (epilogue.relu) relu_inplace(out);
      c[i * n + j] = out;
    }
  }
}

}  // namespace miras::nn::kern
