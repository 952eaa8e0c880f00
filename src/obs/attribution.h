// Performance attribution over the walk-event stream.
//
// The paper's headline metric — cache lines touched per TLB miss — is a
// single average; this layer breaks it down by *dimension* so a regression
// (or a win) can be located instead of merely detected:
//
//   segment     — which part of the address space the missing reference hit
//                 (text / heap / data / mmap / stack), classified through a
//                 SegmentMap built from the workload's segment layout;
//   page class  — what kind of PTE ultimately serviced the walk (base page,
//                 superpage, partial-subblock, software-TLB hit, block
//                 prefetch);
//   outcome     — where in the structure the walk ended: hit at chain node
//                 k, chain overflow (deep hit), software-TLB direct hit,
//                 fault-abort (the service included a page fault), or a
//                 complete-subblock block prefetch.
//
// Each dimension partitions the set of counted walks, so for every dimension
// the per-value `lines` sum equals the total lines touched — which is the
// numerator of the headline lines-per-miss figure.  Result() CPT_CHECKs
// this reconciliation (walks, lines and steps) on every breakdown it builds.
//
// The tracer is an ordinary WalkTracer: attach it anywhere in a tracer
// chain; like every obs consumer it never affects simulated counts.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace cpt::obs {

class JsonWriter;

// Address-space segment classes (mirrors workload::SegmentKind without a
// dependency on the workload layer; obs sits below it).
enum class SegmentClass : std::uint8_t {
  kText = 0,
  kHeap,
  kData,
  kMmap,
  kStack,
  kUnknown,
};
inline constexpr std::size_t kSegmentClassCount = 6;
static_assert(static_cast<std::size_t>(SegmentClass::kUnknown) + 1 == kSegmentClassCount,
              "kSegmentClassCount must track the last SegmentClass enumerator");
const char* ToString(SegmentClass cls);

// Maps (asid, vpn) to a SegmentClass through a set of half-open VPN ranges.
// Built once per measurement from the workload spec; lookup is a binary
// search, cheap enough for every committed walk.
class SegmentMap {
 public:
  void Add(std::uint16_t asid, Vpn begin_vpn, Vpn end_vpn, SegmentClass cls);
  SegmentClass Classify(std::uint16_t asid, Vpn vpn) const;

  bool empty() const { return ranges_.empty(); }
  std::size_t size() const { return ranges_.size(); }

 private:
  struct Range {
    std::uint16_t asid = 0;
    Vpn begin{};  // Inclusive VPN.
    Vpn end{};    // Exclusive VPN.
    SegmentClass cls = SegmentClass::kUnknown;
  };

  void SortIfNeeded() const;

  mutable std::vector<Range> ranges_;
  mutable bool sorted_ = true;
};

// One cell of a dimension breakdown; `label` is the dimension value.
struct AttributionCell {
  std::string label;
  std::uint64_t walks = 0;
  std::uint64_t lines = 0;
  std::uint64_t steps = 0;
};

// The finished breakdown; zero cells are omitted.  Invariant (per dimension):
// sum(cells.lines) == lines, sum(cells.walks) == walks.
struct AttributionResult {
  std::uint64_t walks = 0;
  std::uint64_t lines = 0;
  std::uint64_t steps = 0;
  std::vector<AttributionCell> by_segment;
  std::vector<AttributionCell> by_page_class;
  std::vector<AttributionCell> by_outcome;

  bool empty() const { return walks == 0; }
};

// Emits one JSON object: {walks, lines, steps, by_segment: [...], ...} with
// per-cell lines_per_walk convenience ratios.
void ToJson(JsonWriter& w, const AttributionResult& r);

// Streams walk events into the per-dimension tables.  Forwarding tracer like
// StatsTracer: pass-through to `forward` keeps one event stream feeding the
// histogram aggregator, the ring buffer, and this attribution pass at once.
class AttributionTracer final : public WalkTracer {
 public:
  explicit AttributionTracer(const SegmentMap* segments = nullptr,
                             WalkTracer* forward = nullptr)
      : segments_(segments), forward_(forward) {}

  void Record(const WalkEvent& event) override;
  // O(1) for kTlbHit: only the first hit can commit a pending walk; other
  // kinds loop.
  void RecordRepeat(const WalkEvent& event, std::uint64_t n) override;

  // Finalizes any walk whose block-prefetch marker is still pending and
  // returns the breakdown.  Aborts unless every dimension's cells sum to
  // the totals.
  AttributionResult Result();

  std::uint64_t walks() const { return walks_; }
  std::uint64_t lines() const { return lines_total_; }

  // Axis geometry, public so the name tables in attribution.cc (and any
  // validator) can static_assert against it.
  // Page-class axis: WalkHitClass values, then block prefetch, then unknown.
  static constexpr std::size_t kPageClassCount = kWalkHitClassCount + 2;
  static constexpr std::size_t kBlockClassIndex = kWalkHitClassCount;
  static constexpr std::size_t kUnknownClassIndex = kWalkHitClassCount + 1;

  // Outcome axis: fault, prefetch, swtlb (0-step hit), hit@1..hit@8,
  // overflow (hit deeper than node 8).
  static constexpr std::size_t kMaxHitNode = 8;
  static constexpr std::size_t kOutcomeCount = 3 + kMaxHitNode + 1;

 private:
  struct Cell {
    std::uint64_t walks = 0;
    std::uint64_t lines = 0;
    std::uint64_t steps = 0;
  };

  void BeginWalk(const WalkEvent& event);
  void CommitWalk();
  void ResetWalk();

  const SegmentMap* segments_;
  WalkTracer* forward_;

  // Pending-walk state.
  bool armed_ = false;           // A TLB miss opened a walk service.
  bool pending_commit_ = false;  // kWalkEnd seen, waiting for a possible
                                 // kBlockPrefetch marker before committing.
  bool faulted_ = false;         // The service included a fault-abort.
  bool block_ = false;           // The service was a block-prefetch fill.
  bool have_hit_ = false;
  std::uint16_t asid_ = 0;
  Vpn vpn_{};
  std::uint32_t steps_ = 0;
  std::uint64_t hit_value_ = 0;
  std::uint32_t end_lines_ = 0;

  // Totals and per-dimension tables.
  std::uint64_t walks_ = 0;
  std::uint64_t lines_total_ = 0;
  std::uint64_t steps_total_ = 0;
  std::array<Cell, kSegmentClassCount> seg_{};
  std::array<Cell, kPageClassCount> cls_{};
  std::array<Cell, kOutcomeCount> out_{};
};

}  // namespace cpt::obs
