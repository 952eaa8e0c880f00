// The tracer chain MeasureHooks::collect attaches (sim::CollectTracers),
// forwarding into a RingBufferTracer that keeps the event stream, plus
// gtest helpers that compare telemetry field by field.  Tests use them to
// show that two replay paths publish the same telemetry.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "obs/attribution.h"
#include "obs/trace.h"
#include "sim/experiments.h"
#include "workload/workload.h"

namespace cpt::testutil {

struct CollectChain {
  CollectChain(const workload::WorkloadSpec& spec, bool shared_page_table,
               std::size_t ring_capacity = 1 << 18)
      : ring(ring_capacity), tracers(spec, shared_page_table, &ring) {}

  // Where a Machine attaches: the head of the chain.
  obs::WalkTracer* head() { return tracers.head(); }

  obs::RingBufferTracer ring;
  sim::CollectTracers tracers;
};

inline void ExpectSameHistogram(const Histogram& a, const Histogram& b) {
  EXPECT_EQ(a.total(), b.total());
  EXPECT_EQ(a.overflow(), b.overflow());
  EXPECT_EQ(a.max_seen(), b.max_seen());
  ASSERT_EQ(a.max_value(), b.max_value());
  for (std::size_t v = 0; v <= a.max_value(); ++v) {
    EXPECT_EQ(a.count(v), b.count(v)) << "bucket " << v;
  }
}

inline void ExpectSameCounts(const obs::EventCounts& a, const obs::EventCounts& b) {
  for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
    const auto kind = static_cast<obs::EventKind>(k);
    EXPECT_EQ(a[kind], b[kind]) << "event kind " << obs::ToString(kind);
  }
}

inline void ExpectSameCells(const std::vector<obs::AttributionCell>& a,
                            const std::vector<obs::AttributionCell>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].walks, b[i].walks) << a[i].label;
    EXPECT_EQ(a[i].lines, b[i].lines) << a[i].label;
    EXPECT_EQ(a[i].steps, b[i].steps) << a[i].label;
  }
}

inline void ExpectSameAttribution(const obs::AttributionResult& a,
                                  const obs::AttributionResult& b) {
  EXPECT_EQ(a.walks, b.walks);
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.steps, b.steps);
  ExpectSameCells(a.by_segment, b.by_segment);
  ExpectSameCells(a.by_page_class, b.by_page_class);
  ExpectSameCells(a.by_outcome, b.by_outcome);
}

inline bool SameEvent(const obs::WalkEvent& a, const obs::WalkEvent& b) {
  return a.kind == b.kind && a.asid == b.asid && a.vpn == b.vpn &&
         a.step == b.step && a.lines == b.lines && a.value == b.value;
}

// Element by element; the first diverging event is reported field by field.
inline void ExpectSameEvents(const std::vector<obs::WalkEvent>& a,
                             const std::vector<obs::WalkEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (SameEvent(a[i], b[i])) {
      continue;
    }
    SCOPED_TRACE(::testing::Message() << "first diverging event: " << i);
    EXPECT_STREQ(obs::ToString(a[i].kind), obs::ToString(b[i].kind));
    EXPECT_EQ(a[i].asid, b[i].asid);
    EXPECT_EQ(a[i].vpn.raw(), b[i].vpn.raw());
    EXPECT_EQ(a[i].step, b[i].step);
    EXPECT_EQ(a[i].lines, b[i].lines);
    EXPECT_EQ(a[i].value, b[i].value);
    return;
  }
}

inline void ExpectSameRing(const obs::RingBufferTracer& a, const obs::RingBufferTracer& b) {
  EXPECT_EQ(a.total_recorded(), b.total_recorded());
  EXPECT_EQ(a.dropped(), b.dropped());
  ExpectSameCounts(a.counts(), b.counts());
  ExpectSameEvents(a.Events(), b.Events());
}

// Every observable of two chains: the attribution breakdown, both
// histograms, the per-kind counts and the ring's event sequence.
inline void ExpectSameStats(const obs::StatsTracer& a, const obs::StatsTracer& b) {
  ExpectSameHistogram(a.chain_length(), b.chain_length());
  ExpectSameHistogram(a.lines_per_walk(), b.lines_per_walk());
  ExpectSameCounts(a.counts(), b.counts());
}

inline void ExpectSameChain(CollectChain& a, CollectChain& b) {
  ExpectSameAttribution(a.tracers.attribution.Result(), b.tracers.attribution.Result());
  ExpectSameStats(a.tracers.stats, b.tracers.stats);
  ExpectSameRing(a.ring, b.ring);
}

}  // namespace cpt::testutil
