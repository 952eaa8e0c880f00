// Tests for obs layer two: the attribution tracer (per-dimension lines/miss
// breakdown), the TeeTracer fan-out, the Perfetto exporter, and the
// end-to-end reconciliation guarantee the bench regression gate relies on —
// that every attribution dimension's lines sum to the numerator of the
// headline cache-lines-per-miss figure.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/attribution.h"
#include "obs/json_writer.h"
#include "obs/perfetto.h"
#include "obs/trace.h"
#include "sim/experiments.h"
#include "sim/machine.h"
#include "workload/workload.h"

namespace cpt::obs {
namespace {

// --- Minimal JSON well-formedness validator ------------------------------
//
// Recursive-descent parser over the JSON grammar; accepts iff the whole
// input is exactly one valid JSON value.  Enough to certify that the
// Perfetto exporter's output would load in a real parser, with no JSON
// library dependency.
class MiniJson {
 public:
  explicit MiniJson(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || std::isxdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(esc) == std::string_view::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // Raw control characters are invalid inside strings.
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    if (std::isdigit(static_cast<unsigned char>(Peek())) == 0) {
      return false;
    }
    while (std::isdigit(static_cast<unsigned char>(Peek())) != 0) {
      ++pos_;
    }
    if (Peek() == '.') {
      ++pos_;
      if (std::isdigit(static_cast<unsigned char>(Peek())) == 0) {
        return false;
      }
      while (std::isdigit(static_cast<unsigned char>(Peek())) != 0) {
        ++pos_;
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') {
        ++pos_;
      }
      if (std::isdigit(static_cast<unsigned char>(Peek())) == 0) {
        return false;
      }
      while (std::isdigit(static_cast<unsigned char>(Peek())) != 0) {
        ++pos_;
      }
    }
    return pos_ > start;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

TEST(MiniJsonTest, AcceptsValidRejectsInvalid) {
  EXPECT_TRUE(MiniJson(R"({"a":[1,2.5,-3e2],"b":{"c":"x\n"},"d":null})").Valid());
  EXPECT_FALSE(MiniJson(R"({"a":1)").Valid());
  EXPECT_FALSE(MiniJson(R"([1,])").Valid());
  EXPECT_FALSE(MiniJson("{} trailing").Valid());
}

// --- SegmentMap ----------------------------------------------------------

TEST(SegmentMapTest, ClassifiesPerAsidRanges) {
  SegmentMap map;
  map.Add(0, Vpn{100}, Vpn{200}, SegmentClass::kText);
  map.Add(0, Vpn{500}, Vpn{600}, SegmentClass::kHeap);
  map.Add(1, Vpn{100}, Vpn{200}, SegmentClass::kStack);
  EXPECT_EQ(map.Classify(0, Vpn{100}), SegmentClass::kText);
  EXPECT_EQ(map.Classify(0, Vpn{199}), SegmentClass::kText);
  EXPECT_EQ(map.Classify(0, Vpn{200}), SegmentClass::kUnknown) << "end is exclusive";
  EXPECT_EQ(map.Classify(0, Vpn{550}), SegmentClass::kHeap);
  EXPECT_EQ(map.Classify(1, Vpn{150}), SegmentClass::kStack);
  EXPECT_EQ(map.Classify(2, Vpn{150}), SegmentClass::kUnknown);
  EXPECT_EQ(map.Classify(0, Vpn{50}), SegmentClass::kUnknown);
}

TEST(SegmentMapTest, EmptyMapClassifiesEverythingUnknown) {
  SegmentMap map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Classify(0, Vpn{0}), SegmentClass::kUnknown);
}

// --- TeeTracer -----------------------------------------------------------

TEST(TeeTracerTest, FansOutToEverySinkIgnoringNull) {
  RingBufferTracer a(8);
  RingBufferTracer b(8);
  TeeTracer tee{&a, nullptr, &b};
  EXPECT_EQ(tee.size(), 2u);
  tee.Record({.kind = EventKind::kTlbMiss, .vpn = Vpn{1}});
  tee.Record({.kind = EventKind::kWalkEnd, .vpn = Vpn{1}, .lines = 2});
  EXPECT_EQ(a.total_recorded(), 2u);
  EXPECT_EQ(b.total_recorded(), 2u);
  EXPECT_EQ(a.counts()[EventKind::kWalkEnd], 1u);
}

// --- AttributionTracer: synthetic event streams --------------------------

WalkEvent Miss(std::uint16_t asid, std::uint64_t vpn) {
  return {.kind = EventKind::kTlbMiss, .asid = asid, .vpn = Vpn{vpn}};
}
WalkEvent Step(std::uint64_t vpn, std::uint32_t step) {
  return {.kind = EventKind::kWalkStep, .vpn = Vpn{vpn}, .step = step, .lines = step};
}
WalkEvent Hit(std::uint64_t vpn, WalkHitClass cls, unsigned pages_log2 = 0) {
  return {.kind = EventKind::kWalkHit, .vpn = Vpn{vpn},
          .value = EncodeWalkHitClass(cls, pages_log2)};
}
WalkEvent End(std::uint64_t vpn, std::uint32_t lines) {
  return {.kind = EventKind::kWalkEnd, .vpn = Vpn{vpn}, .lines = lines};
}

TEST(AttributionTracerTest, PlainWalkLandsInAllThreeDimensions) {
  SegmentMap map;
  map.Add(0, Vpn{0x100}, Vpn{0x200}, SegmentClass::kHeap);
  AttributionTracer attr(&map);
  attr.Record(Miss(0, 0x150));
  attr.Record(Step(0x150, 1));
  attr.Record(Step(0x150, 2));
  attr.Record(Hit(0x150, WalkHitClass::kBase));
  attr.Record(End(0x150, 3));
  AttributionResult r = attr.Result();
  EXPECT_EQ(r.walks, 1u);
  EXPECT_EQ(r.lines, 3u);
  EXPECT_EQ(r.steps, 2u);
  ASSERT_EQ(r.by_segment.size(), 1u);
  EXPECT_EQ(r.by_segment[0].label, "heap");
  EXPECT_EQ(r.by_segment[0].lines, 3u);
  ASSERT_EQ(r.by_page_class.size(), 1u);
  EXPECT_EQ(r.by_page_class[0].label, "base");
  ASSERT_EQ(r.by_outcome.size(), 1u);
  EXPECT_EQ(r.by_outcome[0].label, "hit@2");
}

TEST(AttributionTracerTest, FaultedServiceCountsOnceAsFaultOutcome) {
  AttributionTracer attr;
  attr.Record(Miss(0, 7));
  attr.Record(Step(7, 1));
  attr.Record({.kind = EventKind::kWalkAbort, .vpn = Vpn{7}});
  attr.Record({.kind = EventKind::kPageFault, .vpn = Vpn{7}});
  attr.Record(Step(7, 2));
  attr.Record(Hit(7, WalkHitClass::kBase));
  attr.Record(End(7, 2));
  AttributionResult r = attr.Result();
  EXPECT_EQ(r.walks, 1u) << "one service, not one per walk attempt";
  ASSERT_EQ(r.by_outcome.size(), 1u);
  EXPECT_EQ(r.by_outcome[0].label, "fault");
  ASSERT_EQ(r.by_page_class.size(), 1u);
  EXPECT_EQ(r.by_page_class[0].label, "base") << "hit class still attributed";
}

TEST(AttributionTracerTest, BlockPrefetchMarkerCommitsLazily) {
  AttributionTracer attr;
  attr.Record({.kind = EventKind::kTlbBlockMiss, .vpn = Vpn{16}});
  attr.Record(Step(16, 1));
  attr.Record(End(16, 4));
  // The complete-subblock path publishes the prefetch marker *after* the
  // walk ends; it must re-label the walk it follows.
  attr.Record({.kind = EventKind::kBlockPrefetch, .vpn = Vpn{16}, .value = 4});
  AttributionResult r = attr.Result();
  EXPECT_EQ(r.walks, 1u);
  ASSERT_EQ(r.by_page_class.size(), 1u);
  EXPECT_EQ(r.by_page_class[0].label, "block");
  ASSERT_EQ(r.by_outcome.size(), 1u);
  EXPECT_EQ(r.by_outcome[0].label, "prefetch");
}

TEST(AttributionTracerTest, SwTlbHitIsZeroStepOutcome) {
  AttributionTracer attr;
  attr.Record(Miss(0, 9));
  attr.Record(Hit(9, WalkHitClass::kSwTlb));
  attr.Record(End(9, 1));
  AttributionResult r = attr.Result();
  ASSERT_EQ(r.by_outcome.size(), 1u);
  EXPECT_EQ(r.by_outcome[0].label, "swtlb");
  ASSERT_EQ(r.by_page_class.size(), 1u);
  EXPECT_EQ(r.by_page_class[0].label, "swtlb");
}

TEST(AttributionTracerTest, DeepChainHitOverflows) {
  AttributionTracer attr;
  attr.Record(Miss(0, 5));
  for (std::uint32_t s = 1; s <= 9; ++s) {
    attr.Record(Step(5, s));
  }
  attr.Record(Hit(5, WalkHitClass::kBase));
  attr.Record(End(5, 9));
  AttributionResult r = attr.Result();
  ASSERT_EQ(r.by_outcome.size(), 1u);
  EXPECT_EQ(r.by_outcome[0].label, "overflow");
}

TEST(AttributionTracerTest, EventsOutsideAServiceAreUncounted) {
  AttributionTracer attr;
  // Reference-TLB refills (LookupUncounted) walk without a preceding miss
  // event; they must not pollute the breakdown.
  attr.Record(Step(1, 1));
  attr.Record(End(1, 1));
  attr.Record({.kind = EventKind::kWalkAbort, .vpn = Vpn{2}});
  AttributionResult r = attr.Result();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.walks, 0u);
}

TEST(AttributionTracerTest, ForwardsEveryEventDownstream) {
  RingBufferTracer ring(16);
  AttributionTracer attr(nullptr, &ring);
  attr.Record(Miss(0, 1));
  attr.Record(Step(1, 1));
  attr.Record(End(1, 1));
  attr.Record({.kind = EventKind::kBlockPrefetch, .vpn = Vpn{1}});
  attr.Record({.kind = EventKind::kSwTlbMiss, .vpn = Vpn{2}});
  EXPECT_EQ(ring.total_recorded(), 5u);
  EXPECT_EQ(ring.counts()[EventKind::kBlockPrefetch], 1u);
}

TEST(AttributionTracerTest, EveryDimensionSumsToTheTotals) {
  SegmentMap map;
  map.Add(0, Vpn{0}, Vpn{100}, SegmentClass::kText);
  map.Add(1, Vpn{0}, Vpn{100}, SegmentClass::kHeap);
  AttributionTracer attr(&map);
  // A mix: plain hits at different depths, a fault, a block prefetch, and
  // an out-of-map VPN.
  attr.Record(Miss(0, 10));
  attr.Record(Step(10, 1));
  attr.Record(Hit(10, WalkHitClass::kBase));
  attr.Record(End(10, 1));
  attr.Record(Miss(1, 20));
  attr.Record(Step(20, 1));
  attr.Record(Step(20, 2));
  attr.Record(Hit(20, WalkHitClass::kSuperpage, 6));
  attr.Record(End(20, 2));
  attr.Record(Miss(0, 5000));  // Unknown segment.
  attr.Record(Step(5000, 1));
  attr.Record({.kind = EventKind::kWalkAbort, .vpn = Vpn{5000}});
  attr.Record(Step(5000, 1));
  attr.Record(Hit(5000, WalkHitClass::kBase));
  attr.Record(End(5000, 5));
  attr.Record({.kind = EventKind::kTlbBlockMiss, .asid = 1, .vpn = Vpn{32}});
  attr.Record(Step(32, 1));
  attr.Record(End(32, 4));
  attr.Record({.kind = EventKind::kBlockPrefetch, .vpn = Vpn{32}, .value = 4});
  AttributionResult r = attr.Result();
  EXPECT_EQ(r.walks, 4u);
  EXPECT_EQ(r.lines, 12u);
  for (const auto* dim : {&r.by_segment, &r.by_page_class, &r.by_outcome}) {
    std::uint64_t walks = 0;
    std::uint64_t lines = 0;
    for (const AttributionCell& c : *dim) {
      walks += c.walks;
      lines += c.lines;
    }
    EXPECT_EQ(walks, r.walks);
    EXPECT_EQ(lines, r.lines);
  }
}

TEST(AttributionTracerTest, ToJsonEmitsEveryCell) {
  SegmentMap map;
  map.Add(0, Vpn{0}, Vpn{100}, SegmentClass::kData);
  AttributionTracer attr(&map);
  attr.Record(Miss(0, 1));
  attr.Record(Step(1, 1));
  attr.Record(Hit(1, WalkHitClass::kBase));
  attr.Record(End(1, 2));
  const AttributionResult r = attr.Result();

  std::ostringstream os;
  {
    JsonWriter w(os, /*pretty=*/false);
    ToJson(w, r);
    EXPECT_TRUE(w.Complete());
  }
  EXPECT_TRUE(MiniJson(os.str()).Valid());
  EXPECT_NE(os.str().find("\"by_segment\""), std::string::npos);
  EXPECT_NE(os.str().find("\"data\""), std::string::npos);
}

// --- PerfettoExporter ----------------------------------------------------

TEST(PerfettoExporterTest, EmitsWellFormedChromeTraceJson) {
  std::ostringstream os;
  {
    PerfettoExporter exporter(os);
    exporter.BeginSection("access series/workload");
    exporter.Record(Miss(0, 0x42));
    exporter.Record(Step(0x42, 1));
    exporter.Record(Hit(0x42, WalkHitClass::kBase));
    exporter.Record(End(0x42, 2));
    exporter.Record({.kind = EventKind::kPageFault, .vpn = Vpn{0x43}});
    exporter.Record({.kind = EventKind::kPtePromotion, .vpn = Vpn{0x43}, .value = 64});
    exporter.Record({.kind = EventKind::kReservationGrant, .vpn = Vpn{0x44}, .value = 1});
    exporter.Record({.kind = EventKind::kSwTlbHit, .vpn = Vpn{0x45}});
    exporter.Record({.kind = EventKind::kBlockPrefetch, .vpn = Vpn{0x46}, .value = 3});
    exporter.Finish();
    EXPECT_GT(exporter.events_written(), 0u);
    EXPECT_EQ(exporter.events_dropped(), 0u);
  }
  const std::string out = os.str();
  EXPECT_TRUE(MiniJson(out).Valid()) << out;
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos) << "walk slice present";
  EXPECT_NE(out.find("\"trace_end\""), std::string::npos);
  // One thread-name metadata record per track.
  EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
}

TEST(PerfettoExporterTest, BudgetDropsEventsButStaysWellFormed) {
  std::ostringstream os;
  std::uint64_t dropped = 0;
  {
    PerfettoExporter::Options opts;
    opts.max_events = 4;
    PerfettoExporter exporter(os, opts);
    for (int i = 0; i < 50; ++i) {
      exporter.Record(Miss(0, static_cast<std::uint64_t>(i)));
      exporter.Record(End(static_cast<std::uint64_t>(i), 1));
    }
    exporter.Finish();
    dropped = exporter.events_dropped();
    EXPECT_LE(exporter.events_written(), 4u + 1u /* trace_end */);
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_TRUE(MiniJson(os.str()).Valid()) << os.str();
  EXPECT_NE(os.str().find("\"events_dropped\""), std::string::npos);
}

TEST(PerfettoExporterTest, DestructorFinishesTheDocument) {
  std::ostringstream os;
  {
    PerfettoExporter exporter(os);
    exporter.Record(Miss(0, 1));
    exporter.Record(End(1, 1));
    // No explicit Finish(): the destructor must close the JSON.
  }
  EXPECT_TRUE(MiniJson(os.str()).Valid());
}

// --- End-to-end reconciliation (the acceptance-criteria assertion) -------

class AttributionReconciliationTest : public ::testing::TestWithParam<sim::PtKind> {};

TEST_P(AttributionReconciliationTest, DimensionLinesSumToHeadlineNumerator) {
  const workload::WorkloadSpec& spec = workload::GetPaperWorkload("compress");
  sim::MachineOptions opts;
  opts.pt_kind = GetParam();
  sim::MeasureHooks hooks;
  hooks.collect = true;
  const sim::AccessMeasurement m =
      sim::MeasureAccessTime(spec, opts, /*trace_len=*/30'000, hooks);
  ASSERT_TRUE(m.telemetry_valid);
  const AttributionResult& r = m.attribution;
  ASSERT_GT(r.walks, 0u);

  // Each dimension partitions the counted walks.
  for (const auto* dim : {&r.by_segment, &r.by_page_class, &r.by_outcome}) {
    std::uint64_t walks = 0;
    std::uint64_t lines = 0;
    for (const AttributionCell& c : *dim) {
      walks += c.walks;
      lines += c.lines;
    }
    EXPECT_EQ(walks, r.walks);
    EXPECT_EQ(lines, r.lines);
  }

  // One committed walk per effective-TLB miss.  Linear organizations
  // normalize against a full-size *reference* TLB (Section 6.1) while walks
  // service the smaller effective TLB (entries reserved for the table), so
  // only there do walks and the denominator diverge.
  EXPECT_EQ(r.walks, m.effective_misses);
  if (GetParam() != sim::PtKind::kLinear6) {
    EXPECT_EQ(r.walks, m.denominator_misses);
  }
  // The lines total is exactly the numerator of the headline figure.
  EXPECT_DOUBLE_EQ(m.avg_lines_per_miss,
                   static_cast<double>(r.lines) /
                       static_cast<double>(m.denominator_misses));

  // With per-process page tables every classified walk lands in a real
  // segment: the workload only touches mapped segment pages.
  for (const AttributionCell& c : r.by_segment) {
    EXPECT_NE(c.label, "unknown");
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrganizations, AttributionReconciliationTest,
                         ::testing::Values(sim::PtKind::kHashed, sim::PtKind::kClustered,
                                           sim::PtKind::kForward, sim::PtKind::kLinear6,
                                           sim::PtKind::kHashedMulti,
                                           sim::PtKind::kClusteredAdaptive),
                         [](const ::testing::TestParamInfo<sim::PtKind>& pi) {
                           std::string name = sim::ToString(pi.param);
                           for (char& c : name) {
                             if (std::isalnum(static_cast<unsigned char>(c)) == 0) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(AttributionReconciliationTest, CompleteSubblockTlbReconciles) {
  const workload::WorkloadSpec& spec = workload::GetPaperWorkload("compress");
  sim::MachineOptions opts;
  opts.pt_kind = sim::PtKind::kClustered;
  opts.tlb_kind = sim::TlbKind::kCompleteSubblock;
  sim::MeasureHooks hooks;
  hooks.collect = true;
  const sim::AccessMeasurement m =
      sim::MeasureAccessTime(spec, opts, /*trace_len=*/30'000, hooks);
  ASSERT_TRUE(m.telemetry_valid);
  const AttributionResult& r = m.attribution;
  ASSERT_GT(r.walks, 0u);
  for (const auto* dim : {&r.by_segment, &r.by_page_class, &r.by_outcome}) {
    std::uint64_t lines = 0;
    for (const AttributionCell& c : *dim) {
      lines += c.lines;
    }
    EXPECT_EQ(lines, r.lines);
  }
  EXPECT_EQ(r.walks, m.denominator_misses);
  EXPECT_DOUBLE_EQ(m.avg_lines_per_miss,
                   static_cast<double>(r.lines) /
                       static_cast<double>(m.denominator_misses));
  // Block prefetches must show up as their own page class.
  bool saw_block = false;
  for (const AttributionCell& c : r.by_page_class) {
    saw_block |= c.label == "block";
  }
  EXPECT_TRUE(saw_block);
}

TEST(AttributionReconciliationTest, SoftwareTlbHitsAreAttributed) {
  const workload::WorkloadSpec& spec = workload::GetPaperWorkload("compress");
  sim::MachineOptions opts;
  opts.pt_kind = sim::PtKind::kHashed;
  opts.swtlb_sets = 256;
  sim::MeasureHooks hooks;
  hooks.collect = true;
  const sim::AccessMeasurement m =
      sim::MeasureAccessTime(spec, opts, /*trace_len=*/30'000, hooks);
  ASSERT_TRUE(m.telemetry_valid);
  EXPECT_EQ(m.attribution.walks, m.denominator_misses);
  bool saw_swtlb = false;
  for (const AttributionCell& c : m.attribution.by_outcome) {
    saw_swtlb |= c.label == "swtlb";
  }
  EXPECT_TRUE(saw_swtlb) << "TSB hits should land in the swtlb outcome";
}

}  // namespace
}  // namespace cpt::obs
