// Deterministic data-parallel gradient accumulation (DESIGN.md §5d).
//
// The training minibatch is split into fixed-size row blocks of
// kRowsPerBlock rows. Each block runs forward + backward re-entrantly
// (forward_shard/backward_shard) into its own TrainPass — per-layer caches
// plus per-layer LayerGrad block gradients — and the block partials are then
// reduced serially, in ascending block index order, into the network's own
// gradient buffers before one Adam step (sharded_adam_step). This is the
// only training path: the dynamics model, the actor and the critics all
// train through it.
//
// Two invariants make the result independent of both the worker count and
// the shard schedule:
//  - block boundaries depend only on the batch size (never on threads or
//    shard count), and each block accumulates its rows in ascending row
//    order (the kernel invariant, tensor.h);
//  - the reduction is a fixed left-to-right chain over block indices,
//    performed by one thread after every block has finished.
// Pool shards only *group* contiguous blocks into dispatch units, so
// 1 thread ≡ 8 threads ≡ any shard count K, bit for bit — including the
// no-pool inline path, which is why the "serial engine" and the parallel
// engine are the same engine.
//
// Memory model: every buffer in a TrainPass grows to the largest shapes it
// has seen and is reused, so a steady-state sharded update allocates
// nothing. A TrainPass is NOT thread-safe; the training loops own one pass
// per block index.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "nn/kernels.h"
#include "nn/layer.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"
#include "nn/workspace.h"

namespace miras::nn {

/// Fixed gradient-block granularity (rows). The canonical accumulation
/// grouping is defined at this granularity, NOT at the shard count, so the
/// numbers cannot depend on how blocks are packed onto pool tasks.
inline constexpr std::size_t kRowsPerBlock = 16;

/// Contiguous row range [begin, end) of one gradient block.
struct RowRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

/// Number of gradient blocks a batch of `rows` rows decomposes into.
inline std::size_t num_row_blocks(std::size_t rows) {
  return (rows + kRowsPerBlock - 1) / kRowsPerBlock;
}

/// The m-th block's row range; every block except possibly the last spans
/// exactly kRowsPerBlock rows.
inline RowRange row_block(std::size_t rows, std::size_t m) {
  const std::size_t begin = m * kRowsPerBlock;
  const std::size_t end = begin + kRowsPerBlock < rows
                              ? begin + kRowsPerBlock
                              : rows;
  return RowRange{begin, end};
}

/// Caller-owned state for one gradient block of one network: per-layer
/// forward caches, per-layer gradient accumulators, backward scratch, and
/// block staging tensors for the enclosing training loop. Buffers are
/// reused across minibatches (zero steady-state allocations). Cache-line
/// aligned: the training loops keep passes in one contiguous vector indexed
/// by block, and concurrent blocks must not share a line through the
/// neighbouring pass's `loss` / tensor headers.
struct alignas(64) TrainPass {
  // Per-layer forward caches (index = layer).
  std::vector<Tensor> pre;
  std::vector<Tensor> post;
  // Per-layer block gradients, reduced by sharded_adam_step().
  std::vector<LayerGrad> grads;
  // Backward scratch: the product staged ahead of a non-ReLU activation
  // backward, and the layer-to-layer dL/d(pre-activation) ping-pong pair.
  Tensor grad_pre;
  Tensor bwd_a;
  Tensor bwd_b;
  // Block staging owned by the enclosing loop (input rows, target rows,
  // auxiliary outputs, loss gradient, the critic's [h1 || a] input and its
  // dL/dh1 half, action rows and dL/da).
  Tensor in;
  Tensor target;
  Tensor out;
  Tensor loss_grad;
  Tensor concat;
  Tensor grad_h1;
  Tensor actions;
  Tensor grad_actions;
  /// Block-local loss partial (already carrying the whole-batch scale);
  /// sum the blocks in ascending order for the batch loss.
  double loss = 0.0;
  /// Inference scratch for mixed pipelines (e.g. the DDPG target stage
  /// runs predict_batch per block).
  Workspace ws;
};

/// Sizes pass.pre/post/grads for `layers` and resets pass.loss (call once
/// per block per minibatch, from the block body). The gradients need no
/// zeroing: backward_shard writes every block gradient it produces.
void prepare_pass(const std::vector<DenseLayer>& layers, TrainPass& pass);

/// The serial tail of one sharded update, in two walks over the parameters:
///  1. overwrite each layer's gradient buffers with the sum of
///     passes[0..count) — per element the chain 0 + block_0 + block_1 + ...
///     in ascending block order — and, chunk by chunk as it is stored,
///     accumulate the global gradient L2 norm (one serial chain: ascending
///     layer, weights then bias, ascending element);
///  2. one Adam step (AdamOptimizer::step_scaled at `isa`) with every
///     gradient scaled by max_norm / norm when the norm exceeds max_norm
///     (the clip, folded into the step), and `fold`'s decay and target
///     update applied to each parameter right after its step.
/// Returns the pre-clip norm. Throws NonFiniteGradient, before any weight,
/// Adam moment, step count or target parameter changes, when that norm is
/// not finite (a NaN or infinite loss upstream), so one bad update cannot
/// poison the networks.
double sharded_adam_step(const std::vector<TrainPass>& passes,
                         std::size_t count, std::vector<DenseLayer>& layers,
                         double max_norm, AdamOptimizer& optimizer,
                         const StepFold& fold = {},
                         kern::Isa isa = kern::selected_isa());

/// Runs step() — one sharded update — and, when it throws
/// NonFiniteGradient, rethrows it with `network`, `phase` and `index`
/// ("critic, DDPG update 12: ...") in front of the message. The context
/// costs nothing unless the update fails.
template <typename Step>
double name_non_finite(const char* network, const char* phase,
                       std::size_t index, Step&& step) {
  try {
    return step();
  } catch (const NonFiniteGradient& e) {
    throw NonFiniteGradient(std::string(network) + ", " + phase + " " +
                            std::to_string(index) + ": " + e.what());
  }
}

/// Runs body(m) for every block index in [0, blocks): inline in ascending
/// order without a pool, otherwise distributed over the pool. `shards == 0`
/// is the auto schedule: blocks are claimed in chunks sized to the pool's
/// thread count (ThreadPool::parallel_for's default chunking), so many
/// blocks ride on one dispatch without fixing the grouping in advance.
/// `shards > 0` pins the grouping to exactly `shards` contiguous ranges.
/// Either way every block writes only its own TrainPass / row slots, so the
/// schedule and the thread count are invisible in the results, and no path
/// allocates — parallel_for passes the body by reference.
template <typename Body>
void for_each_block(common::ThreadPool* pool, std::size_t blocks,
                    std::size_t shards, Body&& body) {
  if (pool == nullptr || blocks <= 1) {
    for (std::size_t m = 0; m < blocks; ++m) body(m);
    return;
  }
  if (shards == 0) {
    pool->parallel_for(blocks, body);
    return;
  }
  // Group contiguous blocks into `shards` pool tasks. Each task walks its
  // blocks in ascending order; which task owns which block depends only on
  // (blocks, shards), never on thread count.
  const std::size_t tasks = shards < blocks ? shards : blocks;
  pool->parallel_for(tasks, [&](std::size_t t) {
    const std::size_t begin = t * blocks / tasks;
    const std::size_t end = (t + 1) * blocks / tasks;
    for (std::size_t m = begin; m < end; ++m) body(m);
  });
}

/// Cooperative epoch loop: ONE pool publication for a whole sequence of
/// minibatches, instead of one parallel_for per batch. The pool's workers
/// (plus the caller) enter a single parallel_for and then coordinate
/// through two atomics:
///
///  - `ticket` packs (phase << 32) | next_block. Lanes claim blocks of the
///    open phase by CAS-incrementing the low word; the CAS (never a blind
///    fetch_add) means a lane that stalls between reading the ticket and
///    bidding cannot corrupt the next phase's block counter.
///  - `done` counts executed blocks cumulatively across the epoch. The lane
///    whose increment completes the current phase's quota is the unique
///    tail-runner: it alone runs `tail(p)` (the serial reduce + Adam step)
///    and then opens phase p+1 by storing the new ticket.
///
/// Ordering guarantees, identical to the per-batch dispatch it replaces:
/// every block of phase p finishes before tail(p) runs (the acq_rel chain
/// on `done`), and tail(p) finishes before any phase p+1 block runs (the
/// release store / acquire load on `ticket`). Numbers therefore cannot
/// depend on lane scheduling, and the protocol tolerates ANY schedule —
/// even all lanes running sequentially on one thread — because a single
/// lane can drive every phase to completion alone and late lanes skim
/// through already-closed phases without waiting.
///
/// blocks_of(p) -> block count of phase p (must be >= 1 and < 2^32);
/// block_body(p, m) runs re-entrantly for each block; tail(p) runs exactly
/// once per phase, serially, between the last block of p and the first of
/// p+1. An exception from either callback aborts the epoch (remaining
/// phases are abandoned) and is rethrown to the caller after all lanes
/// drain. Without a pool the loop degenerates to the obvious serial
/// phase-by-phase iteration — same numbers, zero atomics.
template <typename BlocksOf, typename BlockBody, typename Tail>
void run_epoch(common::ThreadPool* pool, std::size_t phases,
               BlocksOf&& blocks_of, BlockBody&& block_body, Tail&& tail) {
  if (phases == 0) return;
  if (pool == nullptr || pool->thread_count() == 0) {
    for (std::size_t p = 0; p < phases; ++p) {
      const std::size_t blocks = blocks_of(p);
      for (std::size_t m = 0; m < blocks; ++m) block_body(p, m);
      tail(p);
    }
    return;
  }

  struct Control {
    alignas(64) std::atomic<std::uint64_t> ticket{0};
    alignas(64) std::atomic<std::uint64_t> done{0};
    alignas(64) std::atomic<bool> failed{false};
    std::exception_ptr error;
  } control;
  const auto fail = [&control]() noexcept {
    bool expected = false;
    if (control.failed.compare_exchange_strong(expected, true))
      control.error = std::current_exception();
  };

  constexpr std::uint64_t kIdxMask = 0xffffffffull;
  const std::size_t lanes = pool->thread_count() + 1;
  pool->parallel_for(
      lanes,
      [&](std::size_t) {
        std::uint64_t cum = 0;  // total blocks in phases [0, p)
        for (std::uint64_t p = 0; p < phases; ++p) {
          const std::uint64_t blocks = blocks_of(p);
          // Wait for phase p to open (the previous tail-runner stores it).
          std::uint64_t t = control.ticket.load(std::memory_order_acquire);
          while ((t >> 32) < p) {
            if (control.failed.load(std::memory_order_acquire)) return;
            std::this_thread::yield();
            t = control.ticket.load(std::memory_order_acquire);
          }
          // Claim blocks while the phase is open and stock remains.
          for (;;) {
            if (control.failed.load(std::memory_order_relaxed)) return;
            t = control.ticket.load(std::memory_order_relaxed);
            if ((t >> 32) != p || (t & kIdxMask) >= blocks) break;
            if (!control.ticket.compare_exchange_weak(
                    t, t + 1, std::memory_order_acq_rel,
                    std::memory_order_relaxed))
              continue;
            try {
              block_body(p, t & kIdxMask);
            } catch (...) {
              fail();
              return;
            }
            if (control.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                cum + blocks) {
              try {
                tail(p);
              } catch (...) {
                fail();
                return;
              }
              control.ticket.store((p + 1) << 32, std::memory_order_release);
            }
          }
          cum += blocks;
        }
      },
      /*chunk=*/1);
  if (control.failed.load(std::memory_order_acquire))
    std::rethrow_exception(control.error);
}

/// dst <- rows [range.begin, range.end) of src, as one contiguous memcpy
/// (row-major layout). dst is resized to (range.size() x src.cols()).
void copy_rows(const Tensor& src, RowRange range, Tensor& dst);

/// Rows [range.begin, range.end) of dst <- src (src must be range.size()
/// rows of dst.cols()); the block counterpart of copy_rows. Concurrent
/// paste_rows calls with disjoint ranges are race-free.
void paste_rows(const Tensor& src, RowRange range, Tensor& dst);

}  // namespace miras::nn
