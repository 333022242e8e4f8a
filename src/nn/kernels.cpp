#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/contracts.h"

namespace miras::nn::kern {

void gemv(const double* a, const double* w, double* out, std::size_t k,
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

// ---- The seam ----------------------------------------------------------
//
// One register tile: acc[r][v] holds R rows by NV vectors of output
// columns. Every step p loads the NV vectors of row p of the right operand
// once and multiplies each by R broadcast scalars of the left operand; the
// add into acc is a separate instruction (no FMA: this file is built with
// -ffp-contract=off, because AVX-512F carries FMA and GCC would otherwise
// fuse the pair inside the target("avx512f") entry points), so every lane
// is the scalar chain acc = acc + a * b in ascending p. The same template
// runs at V = v2d, at V = v4d inside the target("avx2") entry points, at
// V = v8d inside the target("avx512f") ones, and at narrower vectors down
// to V = double (one-lane "vectors") for the columns left after whole
// vectors, so ragged shapes never fall back to a strided scalar loop.

namespace {

// Every helper is forced inline so that it is compiled inside its entry
// point, under that entry point's target ISA.
#define MIRAS_KERNEL inline __attribute__((always_inline))

using v2d = double __attribute__((vector_size(16)));
using v4d = double __attribute__((vector_size(32)));
using v8d = double __attribute__((vector_size(64)));

template <class V>
inline constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

// Helpers take vectors by reference: a 32- or 64-byte vector passed by
// value through a function compiled without AVX would change the calling
// convention (they are always inlined, but -Wpsabi cannot know that).
template <class V>
MIRAS_KERNEL void load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}

template <class V>
MIRAS_KERNEL void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// x = keep > 0 ? x : +0.0, lane for lane: the activation kernel's relu
// (keep = x) and the ReLU backward mask (keep = the layer's pre-activation).
template <class V>
MIRAS_KERNEL void zero_unless_positive(V& x, const V& keep) {
  x = keep > 0.0 ? x : V{};
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

// How a row tile's chains end: stored as they are (kPlain), through the
// forward epilogue (kEpilogue) or through the dX ReLU mask (kMask). A
// template parameter, so the short-k dW tiles carry no epilogue branches.
enum class TileMode { kPlain, kEpilogue, kMask };

// One strip of output columns and the operands its row tiles read. Every
// pointer is already offset to the strip's first column.
struct Strip {
  const double* a;
  std::size_t a_rs, a_ps;  // a(r, p) = a[r * a_rs + p * a_ps]
  const double* b;
  std::size_t ldb;  // row p of the strip of B at b + p * ldb
  double* c;
  std::size_t ldc;  // C(r, col) at c + r * ldc + col
  std::size_t k;
  bool reload;         // the chains continue from partial sums parked in C
  Epilogue epilogue;   // kEpilogue: bias and pre offset to the strip
  const double* mask;  // kMask: the ReLU mask, C's layout
};

// Register tiles are kTileRows rows by Kind::kVectors<V> vectors of
// columns (see column_strips): 4 x 3 at 2 and 4 lanes; 4 x 4 at 8 lanes
// where B is read in place (AVX-512 has 32 vector registers), while the
// packed dX strips stay at 3 vectors, whose 8-lane pack fits L1 with room
// to spare. Edge tiles are smaller.
constexpr int kTileRows = 4;

template <TileMode kMode, class V, int R, int NV>
MIRAS_KERNEL void row_tile(const Strip& s, std::size_t i) {
  constexpr std::size_t L = kLanes<V>;
  double* c = s.c + i * s.ldc;
  V acc[R][NV];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      if (s.reload) {
        load(acc[r][v], c + r * s.ldc + v * L);
      } else {
        acc[r][v] = V{};
      }
    }
  }
  accumulate<V, R, NV>(acc, s.a + i * s.a_rs, s.a_rs, s.a_ps, s.b, s.ldb,
                       s.k);
  const Epilogue& e = s.epilogue;
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      const std::size_t off = (i + r) * s.ldc + v * L;
      V& out = acc[r][v];
      if constexpr (kMode == TileMode::kEpilogue) {
        if (e.bias != nullptr) {
          V bias;
          load(bias, e.bias + v * L);
          out = out + bias;
        }
        if (e.pre != nullptr) store(e.pre + off, out);
        if (e.relu) zero_unless_positive(out, out);
      } else if constexpr (kMode == TileMode::kMask) {
        V keep;
        load(keep, s.mask + off);
        zero_unless_positive(out, keep);
      }
      store(s.c + off, out);
    }
  }
}

// All m rows of one strip: the strip of B (k rows by NV vectors) stays hot
// in L1 while every row tile reuses it.
template <TileMode kMode, class V, int NV>
MIRAS_KERNEL void strip_rows(const Strip& s, std::size_t m) {
  constexpr int R = kTileRows;
  std::size_t i = 0;
  for (; i + R <= m; i += R) row_tile<kMode, V, R, NV>(s, i);
  switch (m - i) {  // row tails stay vectorised across columns
    case 1: row_tile<kMode, V, 1, NV>(s, i); break;
    case 2: row_tile<kMode, V, 2, NV>(s, i); break;
    case 3: row_tile<kMode, V, 3, NV>(s, i); break;
    default: break;
  }
}

// Walks C's columns in strips of Kind::kVectors<V> vectors of V; the
// columns left after whole vectors step down to one v4d (from v8d) and
// then to one-lane columns. Kind::strip<kMode, V, NV>(g, j) runs the strip
// whose first column is j.
template <class Kind, TileMode kMode, class V, class Args>
MIRAS_KERNEL void column_strips(const Args& g) {
  constexpr std::size_t L = kLanes<V>;
  constexpr int NV = Kind::template kVectors<V>;
  std::size_t j = 0;
  for (; j + NV * L <= g.n; j += NV * L)
    Kind::template strip<kMode, V, NV>(g, j);
  switch ((g.n - j) / L) {  // whole vectors left
    case 1: Kind::template strip<kMode, V, 1>(g, j); break;
    case 2: Kind::template strip<kMode, V, 2>(g, j); break;
    case 3: Kind::template strip<kMode, V, 3>(g, j); break;
    default: break;
  }
  j += (g.n - j) / L * L;
  if constexpr (L > kLanes<v4d>) {
    if (g.n - j >= kLanes<v4d>) {
      Kind::template strip<kMode, v4d, 1>(g, j);
      j += kLanes<v4d>;
    }
  }
  switch (g.n - j) {  // under one v4d left: one-lane columns
    case 1: Kind::template strip<kMode, double, 1>(g, j); break;
    case 2: Kind::template strip<kMode, double, 2>(g, j); break;
    case 3: Kind::template strip<kMode, double, 3>(g, j); break;
    default: break;
  }
}

// C = A · B (a_rs = k, a_ps = 1) and C = Aᵀ · B (a_rs = 1, a_ps = m): the
// strips of B are read in place.
struct RowArgs {
  const double* a;
  std::size_t a_rs, a_ps;
  const double* b;
  double* c;
  std::size_t m, k, n;
  Epilogue epilogue;
};

struct InPlaceB {
  template <class V>
  static constexpr int kVectors = kLanes<V> == 8 ? 4 : 3;
  template <TileMode kMode, class V, int NV>
  static MIRAS_KERNEL void strip(const RowArgs& g, std::size_t j) {
    const Epilogue& e = g.epilogue;
    const Epilogue strip_epilogue{e.bias != nullptr ? e.bias + j : nullptr,
                                  e.pre != nullptr ? e.pre + j : nullptr,
                                  e.relu};
    const Strip s{g.a,   g.a_rs, g.a_ps, g.b + j,        g.n,    g.c + j,
                  g.n,   g.k,    false,  strip_epilogue, nullptr};
    strip_rows<kMode, V, NV>(s, g.m);
  }
};

template <class V>
MIRAS_KERNEL void rows(const RowArgs& g) {
  const Epilogue& e = g.epilogue;
  if (e.bias == nullptr && e.pre == nullptr && !e.relu) {
    column_strips<InPlaceB, TileMode::kPlain, V>(g);
  } else {
    column_strips<InPlaceB, TileMode::kEpilogue, V>(g);
  }
}

// C = A · Bᵀ with B stored n x k: the same row tiles over A, on strips of
// Bᵀ packed from B (the weights, read afresh on every call, so nothing can
// go stale when they change) in chunks of kPackSteps reduction steps.
// Between chunks the partial sums park in C and reload exactly, so a chunk
// boundary does not touch the chain; the ReLU mask applies after the last.
constexpr std::size_t kPackSteps = 128;

struct NtArgs {
  const double* a;
  const double* b;
  double* c;
  std::size_t m, k, n;
  const double* mask;
  double* pack;  // kPackSteps x (one strip's columns)
};

using v2i = std::int64_t __attribute__((vector_size(16)));
using v4i = std::int64_t __attribute__((vector_size(32)));

// In-register transposes of a square block of rows (pure moves).
MIRAS_KERNEL void transpose(v2d (&r)[2]) {
  const v2d lo = __builtin_shuffle(r[0], r[1], v2i{0, 2});
  r[1] = __builtin_shuffle(r[0], r[1], v2i{1, 3});
  r[0] = lo;
}

MIRAS_KERNEL void transpose(v4d (&r)[4]) {
  const v4d t0 = __builtin_shuffle(r[0], r[1], v4i{0, 4, 2, 6});
  const v4d t1 = __builtin_shuffle(r[0], r[1], v4i{1, 5, 3, 7});
  const v4d t2 = __builtin_shuffle(r[2], r[3], v4i{0, 4, 2, 6});
  const v4d t3 = __builtin_shuffle(r[2], r[3], v4i{1, 5, 3, 7});
  r[0] = __builtin_shuffle(t0, t2, v4i{0, 1, 4, 5});
  r[1] = __builtin_shuffle(t1, t3, v4i{0, 1, 4, 5});
  r[2] = __builtin_shuffle(t0, t2, v4i{2, 3, 6, 7});
  r[3] = __builtin_shuffle(t1, t3, v4i{2, 3, 6, 7});
}

// The transpose block for strips of V: 2 x 2 at 2 lanes, 4 x 4 above.
template <class V>
using PackBlock = std::conditional_t<std::is_same_v<V, v2d>, v2d, v4d>;

// pack[p * S + t] = b[t * ldb + p] for t < S, p < kc: a strip of Bᵀ. Whole
// blocks go through the register transpose; one-lane strips and the
// reduction steps left after whole blocks are copied element by element.
template <class V, std::size_t S>
MIRAS_KERNEL void pack_transposed(const double* b, std::size_t ldb,
                                  std::size_t kc, double* pack) {
  std::size_t p = 0;
  if constexpr (!std::is_same_v<V, double>) {
    using W = PackBlock<V>;
    constexpr std::size_t w = kLanes<W>;
    static_assert(S % w == 0);
    for (; p + w <= kc; p += w) {
      for (std::size_t t = 0; t < S; t += w) {
        W r[w];
#pragma GCC unroll 4
        for (std::size_t q = 0; q < w; ++q) load(r[q], b + (t + q) * ldb + p);
        transpose(r);
#pragma GCC unroll 4
        for (std::size_t u = 0; u < w; ++u) store(pack + (p + u) * S + t, r[u]);
      }
    }
  }
  for (; p < kc; ++p)
    for (std::size_t t = 0; t < S; ++t) pack[p * S + t] = b[t * ldb + p];
}

struct PackedBt {
  template <class V>
  static constexpr int kVectors = 3;
  template <TileMode kMode, class V, int NV>
  static MIRAS_KERNEL void strip(const NtArgs& g, std::size_t j) {
    constexpr std::size_t S = NV * kLanes<V>;
    std::size_t p0 = 0;
    do {
      const std::size_t kc = std::min(kPackSteps, g.k - p0);
      pack_transposed<V, S>(g.b + j * g.k + p0, g.k, kc, g.pack);
      const Strip s{g.a + p0, g.k, 1,   g.pack, S, g.c + j, g.n, kc,
                    p0 != 0,  {},  g.mask != nullptr ? g.mask + j : nullptr};
      if (p0 + kc == g.k) {
        strip_rows<kMode, V, NV>(s, g.m);
      } else {
        strip_rows<TileMode::kPlain, V, NV>(s, g.m);
      }
      p0 += kc;
    } while (p0 < g.k);
  }
};

template <class V>
MIRAS_KERNEL void nt(NtArgs g) {
  alignas(64) double pack[kPackSteps * PackedBt::kVectors<V> * kLanes<V>];
  g.pack = pack;
  if (g.mask == nullptr) {
    column_strips<PackedBt, TileMode::kPlain, V>(g);
  } else {
    column_strips<PackedBt, TileMode::kMask, V>(g);
  }
}

// The optimiser tail (kernels.h AdamArgs): a plain element loop that the
// compiler vectorises at the entry point's width. This file's
// -fno-math-errno drops std::sqrt's errno call path, which would otherwise
// keep the loop scalar.
// Scalars are copied to locals and the arrays are restrict-qualified, so
// no store can be taken to alias an operand and the loop vectorises with
// or without the target.
template <bool kTarget>
MIRAS_KERNEL void adam_loop(double* __restrict param,
                            const double* __restrict grad,
                            double* __restrict m, double* __restrict v,
                            double* __restrict target, const AdamArgs& a) {
  const std::size_t n = a.n;
  const double scale = a.scale, keep = a.keep, tau = a.tau;
  const double beta1 = a.beta1, beta2 = a.beta2;
  const double learning_rate = a.learning_rate, epsilon = a.epsilon;
  const double bias1 = a.bias1, bias2 = a.bias2;
  for (std::size_t i = 0; i < n; ++i) {
    const double g = grad[i] * scale;
    m[i] = beta1 * m[i] + (1.0 - beta1) * g;
    v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
    const double m_hat = m[i] / bias1;
    const double v_hat = v[i] / bias2;
    const double p =
        (param[i] - learning_rate * m_hat / (std::sqrt(v_hat) + epsilon)) *
        keep;
    param[i] = p;
    if constexpr (kTarget) target[i] = tau * p + (1.0 - tau) * target[i];
  }
}

MIRAS_KERNEL void adam_any(const AdamArgs& a) {
  if (a.target != nullptr) {
    adam_loop<true>(a.param, a.grad, a.m, a.v, a.target, a);
  } else {
    adam_loop<false>(a.param, a.grad, a.m, a.v, nullptr, a);
  }
}

void rows_baseline(const RowArgs& g) { rows<v2d>(g); }
void nt_baseline(const NtArgs& g) { nt<v2d>(g); }
void adam_baseline(const AdamArgs& a) { adam_any(a); }

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void rows_avx2(const RowArgs& g) {
  rows<v4d>(g);
}
__attribute__((target("avx2"))) void nt_avx2(const NtArgs& g) { nt<v4d>(g); }
__attribute__((target("avx512f"))) void rows_avx512(const RowArgs& g) {
  rows<v8d>(g);
}
__attribute__((target("avx512f"))) void nt_avx512(const NtArgs& g) {
  nt<v8d>(g);
}
__attribute__((target("avx2"))) void adam_avx2(const AdamArgs& a) {
  adam_any(a);
}
__attribute__((target("avx512f"))) void adam_avx512(const AdamArgs& a) {
  adam_any(a);
}

bool cpu_supports(Isa isa) {
  __builtin_cpu_init();
  switch (isa) {
    case Isa::kAvx2: return __builtin_cpu_supports("avx2");
    case Isa::kAvx512: return __builtin_cpu_supports("avx512f");
    default: return true;
  }
}
#else
void rows_avx2(const RowArgs& g) { rows_baseline(g); }
void nt_avx2(const NtArgs& g) { nt_baseline(g); }
void rows_avx512(const RowArgs& g) { rows_baseline(g); }
void nt_avx512(const NtArgs& g) { nt_baseline(g); }
void adam_avx2(const AdamArgs& a) { adam_baseline(a); }
void adam_avx512(const AdamArgs& a) { adam_baseline(a); }
bool cpu_supports(Isa isa) { return isa == Isa::kBaseline; }
#endif

void run_rows(Isa isa, const RowArgs& g) {
  MIRAS_EXPECTS(isa_supported(isa));
  switch (isa) {
    case Isa::kAvx512: rows_avx512(g); break;
    case Isa::kAvx2: rows_avx2(g); break;
    default: rows_baseline(g); break;
  }
}

#undef MIRAS_KERNEL

}  // namespace

bool isa_supported(Isa isa) {
  static const bool avx2 = cpu_supports(Isa::kAvx2);
  static const bool avx512 = cpu_supports(Isa::kAvx512);
  switch (isa) {
    case Isa::kAvx512: return avx512;
    case Isa::kAvx2: return avx2;
    default: return true;
  }
}

Isa selected_isa() {
  static const Isa isa = isa_supported(Isa::kAvx512) ? Isa::kAvx512
                         : isa_supported(Isa::kAvx2) ? Isa::kAvx2
                                                     : Isa::kBaseline;
  return isa;
}

void gemm_nn(Isa isa, const double* a, const double* b, double* c,
             std::size_t m, std::size_t k, std::size_t n,
             const Epilogue& epilogue) {
  run_rows(isa, RowArgs{a, k, 1, b, c, m, k, n, epilogue});
}

void gemm_tn(Isa isa, const double* a, const double* b, double* c,
             std::size_t m, std::size_t k, std::size_t n) {
  run_rows(isa, RowArgs{a, 1, m, b, c, m, k, n, Epilogue{}});
}

void gemm_nt(Isa isa, const double* a, const double* b, double* c,
             std::size_t m, std::size_t k, std::size_t n,
             const double* relu_mask) {
  MIRAS_EXPECTS(isa_supported(isa));
  const NtArgs g{a, b, c, m, k, n, relu_mask, nullptr};
  switch (isa) {
    case Isa::kAvx512: nt_avx512(g); break;
    case Isa::kAvx2: nt_avx2(g); break;
    default: nt_baseline(g); break;
  }
}

void adam(Isa isa, const AdamArgs& args) {
  MIRAS_EXPECTS(isa_supported(isa));
  switch (isa) {
    case Isa::kAvx512: adam_avx512(args); break;
    case Isa::kAvx2: adam_avx2(args); break;
    default: adam_baseline(args); break;
  }
}

void gemm(const double* a, const double* b, double* c, std::size_t m,
          std::size_t k, std::size_t n, const Epilogue& epilogue) {
  if (m != 1) {
    gemm_nn(selected_isa(), a, b, c, m, k, n, epilogue);
    return;
  }
  gemv(a, b, c, k, n);
  // The epilogue as its own pass: the fused store's arithmetic, element by
  // element.
  if (epilogue.bias == nullptr && epilogue.pre == nullptr && !epilogue.relu)
    return;
  for (std::size_t j = 0; j < n; ++j) {
    double out = c[j];
    if (epilogue.bias != nullptr) out = out + epilogue.bias[j];
    if (epilogue.pre != nullptr) epilogue.pre[j] = out;
    if (epilogue.relu) zero_unless_positive(out, out);
    c[j] = out;
  }
}

}  // namespace miras::nn::kern
