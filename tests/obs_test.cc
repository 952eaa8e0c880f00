// Tests for the telemetry layer (src/obs): JSON emission, the tracer
// implementations, and the end-to-end guarantee the benches rely on — that
// the events a Machine publishes agree with the simulated counters they
// mirror.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "collect_chain.h"
#include "common/stats.h"
#include "obs/attribution.h"
#include "obs/json_writer.h"
#include "obs/perfetto.h"
#include "obs/trace.h"
#include "sim/machine.h"
#include "workload/workload.h"

namespace cpt::obs {
namespace {

// --- JsonWriter ----------------------------------------------------------

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonWriter::Escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::Escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonWriter::Escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  // Multi-byte UTF-8 passes through untouched.
  EXPECT_EQ(JsonWriter::Escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonWriterTest, CompactDocumentRoundTripsStructure) {
  std::ostringstream os;
  {
    JsonWriter w(os, /*pretty=*/false);
    w.BeginObject();
    w.KV("name", "chain \"walk\"");
    w.KV("count", std::uint64_t{42});
    w.KV("neg", std::int64_t{-7});
    w.KV("ratio", 0.5);
    w.KV("flag", true);
    w.Key("none");
    w.Null();
    w.Key("list");
    w.BeginArray();
    w.Uint(1);
    w.Uint(2);
    w.EndArray();
    w.EndObject();
    EXPECT_TRUE(w.Complete());
  }
  EXPECT_EQ(os.str(),
            "{\"name\":\"chain \\\"walk\\\"\",\"count\":42,\"neg\":-7,"
            "\"ratio\":0.5,\"flag\":true,\"none\":null,\"list\":[1,2]}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.BeginArray();
  w.Double(std::nan(""));
  w.Double(std::numeric_limits<double>::infinity());
  w.EndArray();
  EXPECT_EQ(os.str(), "[null,null]");
}

TEST(JsonWriterTest, DoublesRoundTripThroughText) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  const double value = 1.0 / 3.0;
  w.BeginArray();
  w.Double(value);
  w.EndArray();
  // %.17g carries enough digits that parsing the text recovers the bits.
  std::string text = os.str();
  text = text.substr(1, text.size() - 2);
  EXPECT_EQ(std::stod(text), value);
}

TEST(JsonWriterTest, CompleteOnlyAfterAllContainersClose) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  EXPECT_FALSE(w.Complete());
  w.BeginObject();
  EXPECT_FALSE(w.Complete());
  w.EndObject();
  EXPECT_TRUE(w.Complete());
}

// --- Histogram / RunningStats (satellite hardening) ----------------------

TEST(HistogramTest, OverflowSamplesAreClampedNotAllocated) {
  Histogram h(/*max_buckets=*/8);
  h.Add(3);
  h.Add(1'000'000);  // Must not allocate a million buckets.
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.count(1'000'000), 0u);
  EXPECT_LE(h.max_value(), 7u);
  EXPECT_EQ(h.max_seen(), 1'000'000u);
  // Overflow samples still contribute to the mean.
  EXPECT_DOUBLE_EQ(h.mean(), (3.0 + 1'000'000.0) / 2.0);
}

TEST(RunningStatsTest, WelfordVarianceMatchesClosedForm) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, DegenerateCountsAreZero) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

// --- RingBufferTracer ----------------------------------------------------

WalkEvent StepEvent(std::uint64_t vpn) {
  return {.kind = EventKind::kWalkStep, .vpn = Vpn{vpn}, .step = 1, .lines = 1};
}

TEST(RingBufferTracerTest, OverflowKeepsNewestOldestFirst) {
  RingBufferTracer ring(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    ring.Record(StepEvent(i));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(ring.total_recorded(), 6u);
  EXPECT_EQ(ring.counts()[EventKind::kWalkStep], 6u)
      << "counts cover dropped events too";
  const auto events = ring.Events();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].vpn, Vpn{i + 2}) << "oldest surviving event first";
  }
}

TEST(RingBufferTracerTest, ClearResetsEverything) {
  RingBufferTracer ring(2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ring.Record(StepEvent(i));
  }
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.total_recorded(), 0u);
  EXPECT_EQ(ring.counts().total(), 0u);
  // The ring is usable again after Clear and fills from the start.
  ring.Record(StepEvent(7));
  const auto events = ring.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].vpn, Vpn{7});
}

TEST(RingBufferTracerTest, WriteJsonlEmitsOneParsableObjectPerEvent) {
  RingBufferTracer ring(8);
  ring.Record({.kind = EventKind::kTlbMiss, .asid = 3, .vpn = Vpn{0x2a}});
  ring.Record({.kind = EventKind::kWalkStep, .vpn = Vpn{0x2a}, .step = 2, .lines = 2});
  ring.Record({.kind = EventKind::kReservationGrant, .vpn = Vpn{1}, .value = 1});
  std::ostringstream os;
  ring.WriteJsonl(os);
  EXPECT_EQ(os.str(),
            "{\"kind\":\"tlb_miss\",\"asid\":3,\"vpn\":42}\n"
            "{\"kind\":\"walk_step\",\"asid\":0,\"vpn\":42,\"step\":2,\"lines\":2}\n"
            "{\"kind\":\"reservation_grant\",\"asid\":0,\"vpn\":1,"
            "\"properly_placed\":true}\n");
}

TEST(RingBufferTracerTest, WriteJsonlAfterWraparoundIsChronological) {
  // The dump a --trace file gets after the ring wrapped: exactly the newest
  // `capacity` events, oldest first, with the overflow visible in dropped().
  RingBufferTracer ring(3);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.Record(StepEvent(i));
  }
  EXPECT_EQ(ring.dropped(), 7u);
  EXPECT_EQ(ring.total_recorded(), 10u);
  std::ostringstream os;
  ring.WriteJsonl(os);
  EXPECT_EQ(os.str(),
            "{\"kind\":\"walk_step\",\"asid\":0,\"vpn\":7,\"step\":1,\"lines\":1}\n"
            "{\"kind\":\"walk_step\",\"asid\":0,\"vpn\":8,\"step\":1,\"lines\":1}\n"
            "{\"kind\":\"walk_step\",\"asid\":0,\"vpn\":9,\"step\":1,\"lines\":1}\n");
  // A wrap that lands mid-buffer (insertion cursor not at slot 0) must still
  // dump in chronological order.
  ring.Clear();
  for (std::uint64_t i = 0; i < 4; ++i) {  // 4 = one past capacity.
    ring.Record(StepEvent(i));
  }
  EXPECT_EQ(ring.dropped(), 1u);
  std::ostringstream os2;
  ring.WriteJsonl(os2);
  EXPECT_EQ(os2.str(),
            "{\"kind\":\"walk_step\",\"asid\":0,\"vpn\":1,\"step\":1,\"lines\":1}\n"
            "{\"kind\":\"walk_step\",\"asid\":0,\"vpn\":2,\"step\":1,\"lines\":1}\n"
            "{\"kind\":\"walk_step\",\"asid\":0,\"vpn\":3,\"step\":1,\"lines\":1}\n");
}

// --- Enum names ----------------------------------------------------------

// Every enumerator in [0, count) has its own name, none of them the
// out-of-range fallback, and `count` itself maps to the fallback.  The
// compiler proves each ToString switch names every enumerator; the trace
// and Perfetto wire formats also need the names distinct.
template <typename Enum>
void ExpectDistinctNames(const char* (*name_of)(Enum), std::size_t count,
                         std::string_view fallback) {
  std::set<std::string_view> seen;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string_view name = name_of(static_cast<Enum>(i));
    EXPECT_NE(name, fallback) << "enumerator " << i;
    EXPECT_TRUE(seen.insert(name).second) << "enumerator " << i << " repeats " << name;
  }
  EXPECT_EQ(name_of(static_cast<Enum>(count)), fallback);
}

TEST(EnumNamesTest, EveryEnumeratorHasADistinctName) {
  ExpectDistinctNames<EventKind>(&ToString, kEventKindCount, "?");
  ExpectDistinctNames<WalkHitClass>(&ToString, kWalkHitClassCount, "?");
  ExpectDistinctNames<SegmentClass>(&ToString, kSegmentClassCount, "?");
  ExpectDistinctNames<workload::SegmentKind>(&workload::ToString, workload::kSegmentKindCount,
                                             "invalid");
}

// --- StatsTracer ---------------------------------------------------------

TEST(StatsTracerTest, ChainLengthCountsStepsPerCountedWalk) {
  StatsTracer stats;
  // Walk 1: two steps, then end.
  stats.Record(StepEvent(1));
  stats.Record(StepEvent(1));
  stats.Record({.kind = EventKind::kWalkEnd, .vpn = Vpn{1}, .lines = 2});
  // Walk 2: one step, then end.
  stats.Record(StepEvent(2));
  stats.Record({.kind = EventKind::kWalkEnd, .vpn = Vpn{2}, .lines = 1});
  EXPECT_EQ(stats.chain_length().total(), 2u);
  EXPECT_EQ(stats.chain_length().count(2), 1u);
  EXPECT_EQ(stats.chain_length().count(1), 1u);
  EXPECT_EQ(stats.lines_per_walk().total(), 2u);
  EXPECT_DOUBLE_EQ(stats.lines_per_walk().mean(), 1.5);
}

TEST(StatsTracerTest, AbortedWalkStepsAreDiscarded) {
  StatsTracer stats;
  // A faulting walk takes three steps and is aborted; the re-run walk takes
  // one step.  Only the re-run belongs in the histogram.
  stats.Record(StepEvent(1));
  stats.Record(StepEvent(1));
  stats.Record(StepEvent(1));
  stats.Record({.kind = EventKind::kWalkAbort, .vpn = Vpn{1}});
  stats.Record(StepEvent(1));
  stats.Record({.kind = EventKind::kWalkEnd, .vpn = Vpn{1}, .lines = 1});
  EXPECT_EQ(stats.chain_length().total(), 1u);
  EXPECT_EQ(stats.chain_length().count(1), 1u);
  EXPECT_EQ(stats.chain_length().count(3), 0u)
      << "aborted steps must not fold into the next counted walk";
}

TEST(StatsTracerTest, ForwardsEveryEventDownstream) {
  RingBufferTracer ring(16);
  StatsTracer stats(&ring);
  stats.Record(StepEvent(1));
  stats.Record({.kind = EventKind::kWalkEnd, .vpn = Vpn{1}, .lines = 1});
  stats.Record({.kind = EventKind::kPageFault, .vpn = Vpn{2}});
  EXPECT_EQ(ring.total_recorded(), 3u);
  EXPECT_EQ(ring.counts()[EventKind::kPageFault], 1u);
}

// --- RecordRepeat: the batch contract ------------------------------------
//
// RecordRepeat(e, n) must leave every tracer exactly as n calls to
// Record(e) would.  Each test feeds one tracer the batch and a twin the
// loop, between the same prefix and suffix, and compares everything the
// tracer exposes.  The prefix leaves a walk pending commit (kWalkEnd seen),
// and the suffix opens with a kBlockPrefetch marker: the first repeated
// hit must commit the walk as an ordinary hit, while with n = 0 the marker
// still claims it.

constexpr WalkEvent kRepeatedHit{.kind = EventKind::kTlbHit, .asid = 1, .vpn = Vpn{0x40}};

const std::vector<WalkEvent>& RepeatPrefix() {
  static const std::vector<WalkEvent> prefix = {
      {.kind = EventKind::kTlbHit, .asid = 1, .vpn = Vpn{0x3f}},
      {.kind = EventKind::kTlbBlockMiss, .asid = 1, .vpn = Vpn{0x40}},
      {.kind = EventKind::kWalkStep, .asid = 1, .vpn = Vpn{0x40}, .step = 1, .lines = 1},
      {.kind = EventKind::kWalkStep, .asid = 1, .vpn = Vpn{0x40}, .step = 2, .lines = 2},
      {.kind = EventKind::kWalkHit,
       .asid = 1,
       .vpn = Vpn{0x40},
       .step = 2,
       .value = EncodeWalkHitClass(WalkHitClass::kBase, 0)},
      {.kind = EventKind::kWalkEnd, .asid = 1, .vpn = Vpn{0x40}, .lines = 2},
  };
  return prefix;
}

const std::vector<WalkEvent>& RepeatSuffix() {
  static const std::vector<WalkEvent> suffix = {
      {.kind = EventKind::kBlockPrefetch, .asid = 1, .vpn = Vpn{0x40}, .value = 16},
      {.kind = EventKind::kTlbMiss, .asid = 1, .vpn = Vpn{0x91}},
      {.kind = EventKind::kWalkStep, .asid = 1, .vpn = Vpn{0x91}, .step = 1, .lines = 1},
      {.kind = EventKind::kWalkHit,
       .asid = 1,
       .vpn = Vpn{0x91},
       .step = 1,
       .value = EncodeWalkHitClass(WalkHitClass::kBase, 0)},
      {.kind = EventKind::kWalkEnd, .asid = 1, .vpn = Vpn{0x91}, .lines = 1},
      {.kind = EventKind::kTlbMiss, .asid = 1, .vpn = Vpn{0x92}},
      {.kind = EventKind::kWalkStep, .asid = 1, .vpn = Vpn{0x92}, .step = 1, .lines = 1},
      {.kind = EventKind::kWalkAbort, .asid = 1, .vpn = Vpn{0x92}},
      {.kind = EventKind::kPageFault, .asid = 1, .vpn = Vpn{0x92}},
      {.kind = EventKind::kWalkStep, .asid = 1, .vpn = Vpn{0x92}, .step = 1, .lines = 1},
      {.kind = EventKind::kWalkEnd, .asid = 1, .vpn = Vpn{0x92}, .lines = 1},
      {.kind = EventKind::kTlbHit, .asid = 1, .vpn = Vpn{0x92}},
  };
  return suffix;
}

// Feeds `batched` the prefix, RecordRepeat(event, n) and the suffix, and
// `looped` the same with n Record(event) calls in the middle.
void FeedBatchedAndLooped(WalkTracer& batched, WalkTracer& looped, const WalkEvent& event,
                          std::uint64_t n) {
  for (const WalkEvent& e : RepeatPrefix()) {
    batched.Record(e);
    looped.Record(e);
  }
  batched.RecordRepeat(event, n);
  for (std::uint64_t i = 0; i < n; ++i) {
    looped.Record(event);
  }
  for (const WalkEvent& e : RepeatSuffix()) {
    batched.Record(e);
    looped.Record(e);
  }
}

// Batch sizes: none, one, and more than the small rings below hold.
constexpr std::uint64_t kRepeatCounts[] = {0, 1, 7};

// A repeated kWalkStep takes the per-event fallback of the O(1) overrides;
// the suffix's first walk must then count the repeated steps too.
constexpr WalkEvent kRepeatedStep{
    .kind = EventKind::kWalkStep, .asid = 1, .vpn = Vpn{0x91}, .step = 1, .lines = 1};

TEST(RecordRepeatTest, StatsTracerMatchesRecordLoop) {
  for (const WalkEvent& event : {kRepeatedHit, kRepeatedStep}) {
    for (const std::uint64_t n : kRepeatCounts) {
      SCOPED_TRACE(std::string(ToString(event.kind)) + " n=" + std::to_string(n));
      RingBufferTracer batched_ring(64);
      RingBufferTracer looped_ring(64);
      StatsTracer batched(&batched_ring);
      StatsTracer looped(&looped_ring);
      FeedBatchedAndLooped(batched, looped, event, n);
      testutil::ExpectSameStats(batched, looped);
      testutil::ExpectSameRing(batched_ring, looped_ring);
    }
  }
}

TEST(RecordRepeatTest, AttributionTracerMatchesRecordLoop) {
  SegmentMap segments;
  segments.Add(1, Vpn{0x00}, Vpn{0x80}, SegmentClass::kHeap);
  for (const WalkEvent& event : {kRepeatedHit, kRepeatedStep}) {
    for (const std::uint64_t n : kRepeatCounts) {
      SCOPED_TRACE(std::string(ToString(event.kind)) + " n=" + std::to_string(n));
      RingBufferTracer batched_ring(64);
      RingBufferTracer looped_ring(64);
      StatsTracer batched_stats(&batched_ring);
      StatsTracer looped_stats(&looped_ring);
      AttributionTracer batched(&segments, &batched_stats);
      AttributionTracer looped(&segments, &looped_stats);
      FeedBatchedAndLooped(batched, looped, event, n);
      testutil::ExpectSameAttribution(batched.Result(), looped.Result());
      testutil::ExpectSameStats(batched_stats, looped_stats);
      testutil::ExpectSameRing(batched_ring, looped_ring);
    }
  }
  // The pending walk: a repeated hit commits it as a base-page hit at chain
  // node 2; with no hit in between, the block-prefetch marker claims it.
  // The suffix adds a hit@1 walk and a faulting walk either way.
  const auto outcomes = [&](std::uint64_t n) {
    AttributionTracer attribution(&segments);
    RingBufferTracer sink(64);
    FeedBatchedAndLooped(attribution, sink, kRepeatedHit, n);
    const AttributionResult r = attribution.Result();
    EXPECT_EQ(r.walks, 3u);
    std::vector<std::string> labels;
    for (const AttributionCell& c : r.by_outcome) {
      labels.push_back(c.label);
    }
    return labels;
  };
  EXPECT_EQ(outcomes(3), (std::vector<std::string>{"fault", "hit@1", "hit@2"}));
  EXPECT_EQ(outcomes(0), (std::vector<std::string>{"fault", "prefetch", "hit@1"}));
}

TEST(RecordRepeatTest, RingBufferTracerMatchesRecordLoopAcrossAWrap) {
  for (const std::uint64_t n : kRepeatCounts) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // 6 prefix events + 7 hits + 13 suffix events wrap a 5-slot ring.
    RingBufferTracer batched(5);
    RingBufferTracer looped(5);
    FeedBatchedAndLooped(batched, looped, kRepeatedHit, n);
    EXPECT_GT(looped.dropped(), 0u);
    testutil::ExpectSameRing(batched, looped);
  }
}

// BenchIo's composition: a tee over the ring buffer and the Perfetto
// exporter.
TEST(RecordRepeatTest, TeeTracerMatchesRecordLoop) {
  for (const std::uint64_t n : kRepeatCounts) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::ostringstream batched_trace;
    std::ostringstream looped_trace;
    RingBufferTracer batched_ring(64);
    RingBufferTracer looped_ring(64);
    PerfettoExporter batched_perfetto(batched_trace);
    PerfettoExporter looped_perfetto(looped_trace);
    TeeTracer batched{&batched_ring, &batched_perfetto};
    TeeTracer looped{&looped_ring, &looped_perfetto};
    FeedBatchedAndLooped(batched, looped, kRepeatedHit, n);
    batched_perfetto.Finish();
    looped_perfetto.Finish();
    testutil::ExpectSameRing(batched_ring, looped_ring);
    EXPECT_EQ(batched_trace.str(), looped_trace.str());
  }
}

TEST(RecordRepeatTest, PerfettoExporterMatchesRecordLoop) {
  for (const bool include_hits : {false, true}) {
    for (const std::uint64_t n : kRepeatCounts) {
      SCOPED_TRACE(std::string(include_hits ? "hits" : "no hits") + " n=" + std::to_string(n));
      PerfettoExporter::Options opts;
      opts.include_hits = include_hits;
      opts.counter_interval = 1;
      std::ostringstream a;
      std::ostringstream b;
      {
        PerfettoExporter batched(a, opts);
        PerfettoExporter looped(b, opts);
        FeedBatchedAndLooped(batched, looped, kRepeatedHit, n);
        batched.Finish();
        looped.Finish();
        EXPECT_EQ(batched.events_written(), looped.events_written());
      }
      EXPECT_EQ(a.str(), b.str());
    }
  }
}

// --- Machine integration -------------------------------------------------

// The contract the --json benches depend on: a tracer attached to a Machine
// sees exactly the misses the simulator counts, and one counted walk per
// kWalkEnd.
TEST(MachineTracingTest, TracedMissesMatchDenominatorMisses) {
  sim::MachineOptions opts;
  opts.pt_kind = sim::PtKind::kClustered;
  sim::Machine machine(opts, 1);
  StatsTracer stats;
  machine.AttachTracer(&stats);
  // Sweep more pages than the TLB holds, twice, to mix cold faults,
  // capacity misses, and hits.
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      machine.Access(0, VaOf(Vpn{0x1000 + i * 3}));
    }
  }
  EXPECT_GT(stats.counts().TlbMisses(), 0u);
  EXPECT_EQ(stats.counts().TlbMisses(), machine.DenominatorMisses());
  EXPECT_EQ(stats.counts()[EventKind::kTlbHit], machine.tlb().stats().hits);
  EXPECT_EQ(stats.counts()[EventKind::kWalkEnd], machine.cache().total_walks());
  EXPECT_EQ(stats.counts()[EventKind::kPageFault], machine.TotalPageFaults());
  // Every counted walk contributed one chain-length sample.
  EXPECT_EQ(stats.chain_length().total(), machine.cache().total_walks());
  EXPECT_GE(stats.chain_length().mean(), 1.0);
}

TEST(MachineTracingTest, DetachedMachineCountsAreUnchangedByTracing) {
  const auto run = [](bool traced) {
    sim::MachineOptions opts;
    opts.pt_kind = sim::PtKind::kHashed;
    sim::Machine machine(opts, 1);
    StatsTracer stats;
    if (traced) {
      machine.AttachTracer(&stats);
    }
    for (std::uint64_t i = 0; i < 200; ++i) {
      machine.Access(0, VaOf(Vpn{0x400 + i * 5}));
    }
    return std::pair<std::uint64_t, double>(machine.DenominatorMisses(),
                                            machine.AvgLinesPerMiss());
  };
  // Bit-identical simulated figures with and without a tracer attached.
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace cpt::obs
