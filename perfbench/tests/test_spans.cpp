// Unit tests for the benchmark's span recorder: self time and the
// percentile rule.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "spans.h"

namespace perfbench {
namespace {

Span make(std::uint32_t id, std::uint32_t parent, std::uint64_t start,
          std::uint64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = "core.test";
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, LeafSpanKeepsItsWholeDuration) {
  const auto self = self_times_ns({make(1, 0, 100, 350)});
  EXPECT_EQ(self[0], 250u);
}

TEST(SelfTime, SubtractsNestedChildren) {
  // Parent [0, 100) with children [10, 30) and [50, 90): self = 100 - 60.
  const auto self = self_times_ns(
      {make(1, 0, 0, 100), make(2, 1, 10, 30), make(3, 1, 50, 90)});
  EXPECT_EQ(self[0], 40u);
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 40u);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Parallel children [10, 60) and [40, 80) cover [10, 80): 70 ns.
  const auto self = self_times_ns(
      {make(1, 0, 0, 100), make(2, 1, 10, 60), make(3, 1, 40, 80)});
  EXPECT_EQ(self[0], 30u);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  // A child that outlives its parent only covers the overlap.
  const auto self =
      self_times_ns({make(1, 0, 0, 100), make(2, 1, 90, 200)});
  EXPECT_EQ(self[0], 90u);
  EXPECT_EQ(self[1], 110u);
}

TEST(SelfTime, GrandchildrenDoNotReduceTheGrandparent) {
  const auto self = self_times_ns(
      {make(1, 0, 0, 100), make(2, 1, 0, 50), make(3, 2, 0, 50)});
  EXPECT_EQ(self[0], 50u);
  EXPECT_EQ(self[1], 0u);
  EXPECT_EQ(self[2], 50u);
}

TEST(SelfTime, RecordedOrderDoesNotMatter) {
  // Children are recorded before their parent, as ScopedSpan does.
  const auto self = self_times_ns(
      {make(2, 1, 10, 30), make(3, 1, 50, 90), make(1, 0, 0, 100)});
  EXPECT_EQ(self[2], 40u);
}

TEST(ScopedSpan, NestsOnOneThreadAndTakesExplicitParents) {
  SpanRecorder recorder;
  std::uint32_t outer_id = 0;
  {
    const ScopedSpan outer(&recorder, "core.outer");
    outer_id = outer.id();
    { const ScopedSpan inner(&recorder, "nn.inner"); }
    std::thread([&] {
      const ScopedSpan remote(&recorder, "sim.remote", outer_id, 7);
    }).join();
  }
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "nn.inner");
  EXPECT_EQ(spans[0].parent, outer_id);
  EXPECT_EQ(spans[1].name, "sim.remote");
  EXPECT_EQ(spans[1].parent, outer_id);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_NE(spans[1].thread, spans[0].thread);
  EXPECT_EQ(spans[2].name, "core.outer");
  EXPECT_EQ(spans[2].parent, 0u);
  EXPECT_EQ(spans[2].layer(), "core");
  // After the outer span closes, a new span is a root again.
  { const ScopedSpan after(&recorder, "core.after"); }
  EXPECT_EQ(recorder.spans().back().parent, 0u);
}

TEST(SpanRecorder, DropsSpansPastItsCapacity) {
  SpanRecorder recorder(2);
  for (int i = 0; i < 5; ++i) recorder.record("core.x", 0, 10, 0);
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.dropped(), 3u);
}

TEST(ScopedSpan, NullRecorderRecordsNothing) {
  const ScopedSpan span(nullptr, "core.none");
  EXPECT_EQ(span.id(), 0u);
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;  // descending: the rule must sort
}

TEST(TailPercentile, PicksTheHighestPercentileWithTenSamplesBeyond) {
  // p99 of 1000 samples is rank 990: exactly ten beyond it.
  Tail t = tail_percentile(ramp(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.count, 1000u);
  // 999 samples leave only nine beyond p99, so p90 it is.
  t = tail_percentile(ramp(999));
  EXPECT_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.value, 900.0);
  // p99.9 needs 10000 samples.
  EXPECT_EQ(tail_percentile(ramp(10000)).percentile, 99.9);
  EXPECT_EQ(tail_percentile(ramp(9999)).percentile, 99.0);
  // 100 samples: p90 (rank 90, ten beyond).
  t = tail_percentile(ramp(100));
  EXPECT_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.value, 90.0);
}

TEST(TailPercentile, FallsBackToTheMedianForSmallSamples) {
  Tail t = tail_percentile(ramp(20));
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 10.0);
  t = tail_percentile(ramp(5));
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 3.0);
  t = tail_percentile({42.0});
  EXPECT_EQ(t.value, 42.0);
  EXPECT_EQ(t.count, 1u);
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(percentile_sorted(v, 50.0), 5.0);
  EXPECT_EQ(percentile_sorted(v, 90.0), 9.0);
  EXPECT_EQ(percentile_sorted(v, 99.0), 10.0);
  EXPECT_EQ(percentile_sorted(v, 0.0), 1.0);
}

TEST(ChromeTrace, WritesCompleteEventsWithSelfTime) {
  std::ostringstream out;
  write_chrome_trace({make(1, 0, 1000, 5000), make(2, 1, 2000, 3000)}, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"core\""), std::string::npos);
  EXPECT_NE(json.find("\"self_us\":3"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":1"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
