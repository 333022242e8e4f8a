#include "serve/admission.h"

#include <chrono>
#include <stdexcept>

#include "common/contracts.h"

namespace miras::serve {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Cheap 64->64 mixer (splitmix64 finaliser) for the second candidate of
/// the power-of-two-choices pick; the router needs decorrelation from the
/// round-robin ticket, not cryptographic quality.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

BatchServer::BatchServer(const ActorServable& servable, AdmissionConfig config)
    : servable_(servable), config_(config) {
  MIRAS_EXPECTS(config_.max_batch >= 1);
  MIRAS_EXPECTS(config_.queue_capacity >= 1);
  MIRAS_EXPECTS(config_.lanes >= 1);
  lanes_.reserve(config_.lanes);
  const std::shared_ptr<const ActorSnapshot> snap = servable_.acquire();
  const std::vector<double> zero_state(servable_.state_dim(), 0.0);
  std::vector<double> warm_out;
  for (std::size_t l = 0; l < config_.lanes; ++l) {
    lanes_.push_back(std::make_unique<Lane>(config_.telemetry_capacity));
    Lane& lane = *lanes_.back();
    lane.slots.resize(config_.queue_capacity);
    lane.free_stack.reserve(config_.queue_capacity);
    for (std::size_t i = config_.queue_capacity; i-- > 0;)
      lane.free_stack.push_back(i);
    lane.pending.resize(config_.queue_capacity);
    lane.batch_idx.reserve(config_.max_batch);
    // Warm each lane's pass scratch to its maximum shape once so run_pass
    // never grows a buffer at steady state: dry-run both pass shapes so
    // the workspace and scratch buffers reach their steady-state sizes
    // before the first real request.
    lane.batch_in.resize(config_.max_batch, servable_.state_dim());
    lane.batch_out.resize(config_.max_batch, servable_.action_dim());
    lane.batch_in.fill(0.0);
    snap->policy.predict_batch(lane.batch_in, lane.ws, lane.batch_out);
    snap->decide(zero_state, lane.scratch, warm_out);
  }
  // Workers start only after every lane is fully built: a lane worker
  // never touches another lane, but stop() walks the whole vector.
  for (auto& lane : lanes_) {
    Lane* owned = lane.get();
    lane->worker = std::thread([this, owned] { worker_loop(*owned); });
  }
}

BatchServer::~BatchServer() { stop(); }

std::size_t BatchServer::pick_lane() {
  const std::size_t n = lanes_.size();
  if (n == 1) return 0;
  // Power of two choices: first candidate round-robins (relaxed ticket),
  // the second is a decorrelated hash of the same ticket; take whichever
  // lane is currently shallower. Two relaxed atomics, no locks, no
  // allocation — and pure load balancing: every lane computes identical
  // answers, so the pick never changes results.
  const std::uint64_t ticket =
      route_ticket_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(ticket % n);
  std::size_t b = static_cast<std::size_t>(mix64(ticket) % n);
  if (b == a) b = (b + 1) % n;
  const std::uint32_t depth_a =
      lanes_[a]->depth.load(std::memory_order_relaxed);
  const std::uint32_t depth_b =
      lanes_[b]->depth.load(std::memory_order_relaxed);
  return depth_b < depth_a ? b : a;
}

std::uint64_t BatchServer::decide(const std::vector<double>& state,
                                  std::vector<double>& weights_out) {
  MIRAS_EXPECTS(state.size() == servable_.state_dim());
  require_finite_state(state);
  Lane& lane = *lanes_[pick_lane()];
  lane.depth.fetch_add(1, std::memory_order_relaxed);
  std::size_t idx;
  {
    std::unique_lock<std::mutex> lock(lane.mutex);
    lane.slot_free.wait(lock, [&lane] {
      return !lane.free_stack.empty() || lane.stop_requested;
    });
    if (lane.stop_requested) {
      ++lane.dropped;
      lane.depth.fetch_sub(1, std::memory_order_relaxed);
      throw std::runtime_error("serve: BatchServer stopped");
    }
    idx = lane.free_stack.back();
    lane.free_stack.pop_back();
    RequestSlot& slot = lane.slots[idx];
    slot.state = &state;
    slot.out = &weights_out;
    slot.enqueue_ns = steady_now_ns();
    slot.version = 0;
    slot.done = false;
    lane.pending[(lane.pending_head + lane.pending_count) %
                 lane.pending.size()] = idx;
    ++lane.pending_count;
    lane.work_ready.notify_one();
    lane.result_ready.wait(lock, [&] { return lane.slots[idx].done; });
    const std::uint64_t version = lane.slots[idx].version;
    lane.slots[idx].state = nullptr;
    lane.slots[idx].out = nullptr;
    lane.free_stack.push_back(idx);
    ++lane.served;
    lane.depth.fetch_sub(1, std::memory_order_relaxed);
    lane.slot_free.notify_one();
    return version;
  }
}

void BatchServer::worker_loop(Lane& lane) {
  for (;;) {
    std::size_t take;
    std::uint32_t depth;
    {
      std::unique_lock<std::mutex> lock(lane.mutex);
      while (lane.pending_count == 0 && !lane.stop_requested) {
        if (lane.pin) {
          // Going idle: drop the cached snapshot pin (outside the lock —
          // it may be the last reference and free a superseded snapshot)
          // so a parked lane never holds old weights alive.
          lock.unlock();
          lane.pin.reset();
          lock.lock();
          continue;  // re-check the predicate after relocking
        }
        lane.work_ready.wait(lock);
      }
      if (lane.pending_count == 0) return;  // stop requested, fully drained
      if (lane.last_pass_full && config_.batch_window_us > 0 &&
          lane.pending_count < config_.max_batch && !lane.stop_requested) {
        // Under sustained load, give the clients just released by the last
        // pass a bounded moment to re-enqueue so the batch forms fully.
        // Per-lane state: a saturated lane waits here while a light lane
        // stays on the immediate GEMV path.
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(config_.batch_window_us);
        lane.work_ready.wait_until(lock, deadline, [this, &lane] {
          return lane.pending_count >= config_.max_batch ||
                 lane.stop_requested;
        });
      }
      depth = static_cast<std::uint32_t>(lane.pending_count);
      take = lane.pending_count < config_.max_batch ? lane.pending_count
                                                    : config_.max_batch;
      lane.batch_idx.clear();
      for (std::size_t i = 0; i < take; ++i) {
        lane.batch_idx.push_back(lane.pending[lane.pending_head]);
        lane.pending_head = (lane.pending_head + 1) % lane.pending.size();
        --lane.pending_count;
      }
      lane.last_pass_full = take >= config_.max_batch;
    }
    // The admitted slots belong to this pass alone until done is set, so
    // the forward pass runs outside the lock.
    run_pass(lane, take, depth);
    {
      std::lock_guard<std::mutex> lock(lane.mutex);
      for (std::size_t i = 0; i < take; ++i)
        lane.slots[lane.batch_idx[i]].done = true;
    }
    lane.result_ready.notify_all();
  }
}

void BatchServer::run_pass(Lane& lane, std::size_t take, std::uint32_t depth) {
  // ONE snapshot pin per pass: a hot-swap can land between passes, never
  // inside one, so every row of the batch is served by the same version.
  // refresh() re-pins only when the published version moved, so at steady
  // state N lanes cost zero shared-mutex acquires per pass — and because
  // publication is single-writer-monotonic, the versions in one lane's
  // record stream never decrease.
  servable_.refresh(lane.pin);
  const ActorSnapshot& snap = *lane.pin;
  const std::uint64_t oldest_ns = lane.slots[lane.batch_idx[0]].enqueue_ns;

  if (take == 1) {
    // Single-request fast path: GEMV through the lane's scratch.
    RequestSlot& slot = lane.slots[lane.batch_idx[0]];
    snap.decide(*slot.state, lane.scratch, *slot.out);
    slot.version = snap.version;
  } else {
    const std::size_t state_dim = snap.state_dim();
    const std::size_t action_dim = snap.action_dim;
    lane.batch_in.resize(take, state_dim);
    for (std::size_t i = 0; i < take; ++i)
      snap.normalize_into(lane.slots[lane.batch_idx[i]].state->data(),
                          &lane.batch_in(i, 0));
    snap.policy.predict_batch(lane.batch_in, lane.ws, lane.batch_out);
    for (std::size_t i = 0; i < take; ++i) {
      RequestSlot& slot = lane.slots[lane.batch_idx[i]];
      const double* row = &lane.batch_out(i, 0);
      slot.out->assign(row, row + action_dim);
      slot.version = snap.version;
    }
  }

  const std::uint64_t now = steady_now_ns();
  TelemetryRecord rec;
  rec.timestamp_ns = now;
  rec.latency_ns = now > oldest_ns ? now - oldest_ns : 0;
  rec.snapshot_version = snap.version;
  rec.queue_depth = depth;
  rec.batch_size = static_cast<std::uint32_t>(take);
  lane.telemetry.record(rec);
}

void BatchServer::stop() {
  bool expected = false;
  if (!stop_claimed_.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
    // Another caller is running (or already ran) the shutdown; wait until
    // it completes so every stop() returns with the workers joined.
    stop_done_.wait(false, std::memory_order_acquire);
    return;
  }
  for (auto& lane : lanes_) {
    {
      const std::lock_guard<std::mutex> lock(lane->mutex);
      lane->stop_requested = true;
    }
    lane->work_ready.notify_all();
  }
  for (auto& lane : lanes_) {
    if (lane->worker.joinable()) lane->worker.join();  // drains admitted work
    // Reject clients still waiting for a free slot (they re-check the flag).
    lane->slot_free.notify_all();
  }
  stop_done_.store(true, std::memory_order_release);
  stop_done_.notify_all();
}

std::uint64_t BatchServer::served() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->mutex);
    total += lane->served;
  }
  return total;
}

std::uint64_t BatchServer::dropped() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->mutex);
    total += lane->dropped;
  }
  return total;
}

const TelemetryRing& BatchServer::telemetry(std::size_t lane) const {
  MIRAS_EXPECTS(lane < lanes_.size());
  return lanes_[lane]->telemetry;
}

std::size_t BatchServer::telemetry_snapshot(
    std::vector<TelemetryRecord>& out) const {
  out.clear();
  for (const auto& lane : lanes_) lane->telemetry.snapshot_append(out);
  sort_merged_telemetry(out);
  return out.size();
}

}  // namespace miras::serve
