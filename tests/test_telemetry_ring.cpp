// TelemetryRing: overwrite order, concurrent snapshot consistency, and the
// zero-allocation steady state.
//
// This TU replaces the global allocator with a counting one so the
// steady-state test can assert record()/snapshot() allocate nothing.
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/telemetry_ring.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1)))
    return p;
  throw std::bad_alloc();
}

// The nothrow forms too: std::stable_sort's temporary buffer allocates
// through them and frees through the plain delete below, so they must come
// from the same malloc.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::aligned_alloc(static_cast<std::size_t>(align),
                            (size + static_cast<std::size_t>(align) - 1) &
                                ~(static_cast<std::size_t>(align) - 1));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace miras::serve {
namespace {

// Records whose fields are all derived from one counter, so a torn read
// (mixing two records) is detectable from the record alone.
TelemetryRecord derived_record(std::uint64_t i) {
  TelemetryRecord rec;
  rec.timestamp_ns = i;
  rec.latency_ns = i * 3 + 1;
  rec.snapshot_version = i * 7 + 2;
  rec.queue_depth = static_cast<std::uint32_t>(i % 1000);
  rec.batch_size = static_cast<std::uint32_t>(i % 64 + 1);
  return rec;
}

bool is_derived(const TelemetryRecord& rec) {
  const std::uint64_t i = rec.timestamp_ns;
  return rec.latency_ns == i * 3 + 1 && rec.snapshot_version == i * 7 + 2 &&
         rec.queue_depth == i % 1000 && rec.batch_size == i % 64 + 1;
}

TEST(TelemetryRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TelemetryRing(1).capacity(), 2u);
  EXPECT_EQ(TelemetryRing(2).capacity(), 2u);
  EXPECT_EQ(TelemetryRing(3).capacity(), 4u);
  EXPECT_EQ(TelemetryRing(8).capacity(), 8u);
  EXPECT_EQ(TelemetryRing(1000).capacity(), 1024u);
}

TEST(TelemetryRing, DeliversRecordsInOrderBelowCapacity) {
  TelemetryRing ring(16);
  for (std::uint64_t i = 0; i < 10; ++i) ring.record(derived_record(i));
  EXPECT_EQ(ring.total_recorded(), 10u);
  std::vector<TelemetryRecord> out;
  ASSERT_EQ(ring.snapshot(out), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(out[i].timestamp_ns, i);
}

TEST(TelemetryRing, WraparoundKeepsNewestWindowInOrder) {
  TelemetryRing ring(8);
  const std::uint64_t total = 8 * 5 + 3;  // several laps plus a partial one
  for (std::uint64_t i = 0; i < total; ++i) ring.record(derived_record(i));
  EXPECT_EQ(ring.total_recorded(), total);
  std::vector<TelemetryRecord> out;
  ASSERT_EQ(ring.snapshot(out), 8u);
  // Exactly the newest capacity() records, oldest first, fields intact.
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].timestamp_ns, total - 8 + i);
    EXPECT_TRUE(is_derived(out[i]));
  }
}

TEST(TelemetryRing, EmptyRingSnapshotsEmpty) {
  TelemetryRing ring(8);
  std::vector<TelemetryRecord> out;
  EXPECT_EQ(ring.snapshot(out), 0u);
  EXPECT_EQ(ring.total_recorded(), 0u);
}

TEST(TelemetryRing, SnapshotWhileWritingNeverReturnsTornRecords) {
  TelemetryRing ring(16);  // small: the reader is lapped constantly
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> drained{0};
  std::thread writer([&] {
    for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i)
      ring.record(derived_record(i));
  });
  std::vector<TelemetryRecord> out;
  out.reserve(ring.capacity());
  // On a single hardware thread the reader can spin through every round
  // before the writer is ever scheduled, so wait for the first write and
  // yield between rounds to interleave the two.
  while (ring.total_recorded() == 0) std::this_thread::yield();
  for (int round = 0; round < 2000; ++round) {
    ring.snapshot(out);
    for (const TelemetryRecord& rec : out) {
      // Every delivered record must be one the writer actually wrote, in
      // full — a torn read would mix fields from two counters.
      ASSERT_TRUE(is_derived(rec)) << "torn record at i=" << rec.timestamp_ns;
    }
    drained += out.size();
    if ((round & 63) == 0) std::this_thread::yield();
  }
  stop = true;
  writer.join();
  EXPECT_GT(drained.load(), 0u);
  // Records within one snapshot must be in nondecreasing write order.
  ring.snapshot(out);
  for (std::size_t i = 1; i < out.size(); ++i)
    EXPECT_LT(out[i - 1].timestamp_ns, out[i].timestamp_ns);
}

TEST(TelemetryRing, MergedSnapshotInterleavesRingsByTimestamp) {
  // Lane 0 stamps even "timestamps", lane 1 odd: the merged view must be
  // the strict interleaving, while snapshot_append preserves per-ring
  // order. A shared timestamp (tie) keeps ring-index order.
  TelemetryRing a(8), b(8);
  for (std::uint64_t i = 0; i < 5; ++i) a.record(derived_record(2 * i));
  for (std::uint64_t i = 0; i < 5; ++i) b.record(derived_record(2 * i + 1));
  const TelemetryRing* rings[] = {&a, &b};
  std::vector<TelemetryRecord> merged;
  ASSERT_EQ(merge_snapshots(rings, 2, merged), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(merged[i].timestamp_ns, i);
    EXPECT_TRUE(is_derived(merged[i]));
  }

  // Tie-break: identical timestamps surface in ring order (stable merge).
  TelemetryRing c(4), d(4);
  c.record(derived_record(100));
  d.record(derived_record(100));
  const TelemetryRing* tied[] = {&c, &d};
  ASSERT_EQ(merge_snapshots(tied, 2, merged), 2u);
  EXPECT_EQ(merged[0].timestamp_ns, 100u);
  EXPECT_EQ(merged[1].timestamp_ns, 100u);
}

TEST(TelemetryRing, MergedSnapshotSurvivesPerRingWraparoundAtDifferentRates) {
  // A busy lane laps its ring several times while a light lane barely
  // writes: the merged window is the busy ring's newest capacity() records
  // interleaved with everything the light ring kept, timestamp-ordered.
  TelemetryRing busy(8), light(8);
  const std::uint64_t total = 8 * 6 + 5;  // several laps plus a partial one
  for (std::uint64_t i = 0; i < total; ++i)
    busy.record(derived_record(2 * i));  // even stamps
  for (std::uint64_t i = 0; i < 3; ++i)
    light.record(derived_record(2 * (total - 3 + i) + 1));  // odd, recent
  const TelemetryRing* rings[] = {&busy, &light};
  std::vector<TelemetryRecord> merged;
  ASSERT_EQ(merge_snapshots(rings, 2, merged), 8u + 3u);
  // All survivors intact and globally timestamp-ordered...
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_TRUE(is_derived(merged[i]));
    if (i > 0) {
      EXPECT_GE(merged[i].timestamp_ns, merged[i - 1].timestamp_ns);
    }
  }
  // ...and the busy ring contributed exactly its newest window.
  std::uint64_t even_seen = 0, oldest_even = ~0ull;
  for (const TelemetryRecord& rec : merged) {
    if (rec.timestamp_ns % 2 == 0) {
      ++even_seen;
      oldest_even = std::min(oldest_even, rec.timestamp_ns);
    }
  }
  EXPECT_EQ(even_seen, 8u);
  EXPECT_EQ(oldest_even, 2 * (total - 8));
}

TEST(TelemetryRing, MergedSnapshotWithOneWriterPerRingNeverTearsOrReorders) {
  // The N-lane torn-read property: one live writer per ring (as in the
  // multi-lane BatchServer), a reader merging all rings concurrently.
  // Every delivered record must be one some writer actually wrote, in
  // full, and each ring's subsequence must stay in its write order.
  constexpr std::size_t kRings = 4;
  std::vector<std::unique_ptr<TelemetryRing>> rings;  // atomics pin them
  for (std::size_t r = 0; r < kRings; ++r)
    rings.push_back(std::make_unique<TelemetryRing>(16));
  const TelemetryRing* ring_ptrs[kRings];
  for (std::size_t r = 0; r < kRings; ++r) ring_ptrs[r] = rings[r].get();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::size_t r = 0; r < kRings; ++r) {
    writers.emplace_back([&, r] {
      // Stamp = i * kRings + r: unique across rings, strictly increasing
      // within a ring, and the ring of origin is recoverable mod kRings.
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i)
        rings[r]->record(derived_record(i * kRings + r));
    });
  }
  for (std::size_t r = 0; r < kRings; ++r)
    while (rings[r]->total_recorded() == 0) std::this_thread::yield();

  std::vector<TelemetryRecord> merged;
  merged.reserve(kRings * 16);
  std::uint64_t drained = 0;
  for (int round = 0; round < 1000; ++round) {
    merge_snapshots(ring_ptrs, kRings, merged);
    std::uint64_t last_stamp[kRings];
    bool seen[kRings] = {};
    for (const TelemetryRecord& rec : merged) {
      ASSERT_TRUE(is_derived(rec)) << "torn record at i=" << rec.timestamp_ns;
      const std::size_t r = rec.timestamp_ns % kRings;
      if (seen[r]) {
        ASSERT_GT(rec.timestamp_ns, last_stamp[r])
            << "ring " << r << " subsequence out of write order";
      }
      seen[r] = true;
      last_stamp[r] = rec.timestamp_ns;
    }
    drained += merged.size();
    if ((round & 63) == 0) std::this_thread::yield();
  }
  stop = true;
  for (auto& t : writers) t.join();
  EXPECT_GT(drained, 0u);
}

TEST(TelemetryRing, SteadyStateRecordAndSnapshotAllocateNothing) {
  TelemetryRing ring(64);
  std::vector<TelemetryRecord> out;
  out.reserve(ring.capacity());
  // Warm once, then count.
  for (std::uint64_t i = 0; i < 128; ++i) ring.record(derived_record(i));
  ring.snapshot(out);
  const std::uint64_t before = g_allocations.load();
  for (std::uint64_t i = 0; i < 10000; ++i) ring.record(derived_record(i));
  ring.snapshot(out);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(ring.total_recorded(), 10128u);
}

}  // namespace
}  // namespace miras::serve
