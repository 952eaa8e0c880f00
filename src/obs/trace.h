// Walk-event tracing: the structured-event channel of the telemetry layer.
//
// The simulator's interesting activity all happens inside the TLB miss
// handler, which is exactly what the paper measures (Section 6.1): chain
// nodes visited, cache lines touched, faults taken, PTEs promoted, frames
// reserved.  Components publish those moments as WalkEvents through a
// WalkTracer hook:
//
//   Machine            — TLB probe hit/miss (with block/subblock kind),
//                        page faults, block-prefetch fills
//   page tables        — through one pt::WalkRecorder per probe: one
//                        kWalkStep per chain node / tree level visited,
//                        carrying the step (from 1 in each probe) and
//                        lines-so-far, then one kWalkHit at the step that
//                        found the PTE (step 0 after a software-TLB hit)
//   CacheTouchModel    — kWalkEnd (counted walk finished, total lines) and
//                        kWalkAbort (walk discarded, e.g. it page-faulted)
//   SoftwareTlb        — TSB probe hit/miss
//   ReservationAllocator — frame grants (with placement outcome)
//   AddressSpace       — superpage promotions
//
// The hook is a nullable pointer checked before every emit: with no tracer
// attached the cost is one predictable branch, and the simulated *counts*
// are never affected either way, so the paper-figure numbers are identical
// with and without tracing (the bit-identical-output guarantee the benches
// rely on).
//
// Batched events: WalkTracer::RecordRepeat(e, n) publishes `n` copies of one
// event.  Its effect is exactly that of `n` calls to Record(e), in order; the
// default implementation is that loop.  Machine::AccessRun uses it for the
// kTlbHit events of a run's settled tail, and a tracer may override it where
// a count does the work of the loop (StatsTracer, AttributionTracer).
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace cpt::obs {

enum class EventKind : std::uint8_t {
  kTlbHit = 0,
  kTlbMiss,          // Conventional miss.
  kTlbBlockMiss,     // Complete-subblock TLB: tag absent.
  kTlbSubblockMiss,  // Complete-subblock TLB: tag present, subblock invalid.
  kWalkStep,         // One chain node / tree level visited during a walk.
  kWalkHit,          // Structure found the PTE: `step` = chain position of the
                     // match, `value` = EncodeWalkHitClass(...) of the fill.
  kWalkEnd,          // Counted walk finished; `lines` = distinct lines touched.
  kWalkAbort,        // Walk discarded (page fault or uncounted reference walk).
  kPageFault,        // OS fault handler ran for `vpn`.
  kPtePromotion,     // A block's base PTEs were replaced by a superpage PTE.
  kBlockPrefetch,    // Complete-subblock block fill; `value` = fills installed.
  kReservationGrant, // Frame granted; `value` = 1 if properly placed.
  kSwTlbHit,         // Software-TLB (TSB) probe hit.
  kSwTlbMiss,        // Software-TLB probe missed to the backing table.
};
inline constexpr std::size_t kEventKindCount = 14;

static_assert(static_cast<std::size_t>(EventKind::kSwTlbMiss) + 1 == kEventKindCount,
              "kEventKindCount must track the last EventKind enumerator");

// JSON wire name of each event kind.  ToString()'s switch is the single
// source of truth for the wire format: -Wswitch-enum (an error under
// -Werror) makes it name every kind, so the names cannot drift from the
// enum.  Out-of-range values map to "?".
const char* ToString(EventKind kind);

// What kind of mapping a kWalkHit delivered, mirroring MappingKind without
// depending on common/pte.h (obs sits below the PTE layer).
enum class WalkHitClass : std::uint8_t {
  kBase = 0,           // 4KB base-page PTE.
  kSuperpage,          // Superpage PTE.
  kPartialSubblock,    // Partial-subblock PTE.
  kSwTlb,              // Served from the software TLB (TSB), any format.
};
inline constexpr std::size_t kWalkHitClassCount = 4;
static_assert(static_cast<std::size_t>(WalkHitClass::kSwTlb) + 1 == kWalkHitClassCount,
              "kWalkHitClassCount must track the last WalkHitClass enumerator");
const char* ToString(WalkHitClass cls);

// kWalkHit `value` payload: the mapping class plus log2(base pages covered),
// so attribution can split superpage hits by page size if it wants to.
constexpr std::uint64_t EncodeWalkHitClass(WalkHitClass cls, unsigned pages_log2) {
  return (std::uint64_t{pages_log2} << 8) | static_cast<std::uint64_t>(cls);
}
constexpr WalkHitClass WalkHitClassOf(std::uint64_t value) {
  return static_cast<WalkHitClass>(value & 0xff);
}
constexpr unsigned WalkHitPagesLog2Of(std::uint64_t value) {
  return static_cast<unsigned>((value >> 8) & 0xff);
}

struct WalkEvent {
  EventKind kind = EventKind::kTlbHit;
  std::uint16_t asid = 0;   // Process id where the publisher knows it.
  Vpn vpn{};                // Faulting/affected virtual page number.
                            // (kReservationGrant reuses the slot for the
                            // caller's block key; same wire field.)
  std::uint32_t step = 0;   // Chain position or tree level (kWalkStep).
  std::uint32_t lines = 0;  // Distinct cache lines touched so far / in total.
  std::uint64_t value = 0;  // Kind-specific payload (see EventKind).
};

// Per-kind event totals; indexable by EventKind.
class EventCounts {
 public:
  std::uint64_t& operator[](EventKind k) { return counts_[static_cast<std::size_t>(k)]; }
  std::uint64_t operator[](EventKind k) const { return counts_[static_cast<std::size_t>(k)]; }
  std::uint64_t total() const;
  // All TLB misses of any kind (the traced side of TlbStats::misses).
  std::uint64_t TlbMisses() const;

 private:
  std::array<std::uint64_t, kEventKindCount> counts_{};
};

class WalkTracer {
 public:
  virtual ~WalkTracer() = default;
  virtual void Record(const WalkEvent& event) = 0;
  // Exactly `n` calls to Record(event); overrides must keep that effect.
  virtual void RecordRepeat(const WalkEvent& event, std::uint64_t n);
};

// Bounded ring-buffer recorder: keeps the most recent `capacity` events,
// counting (rather than keeping) everything older.  Dump order is oldest
// surviving event first.
class RingBufferTracer final : public WalkTracer {
 public:
  explicit RingBufferTracer(std::size_t capacity = 1 << 16);

  void Record(const WalkEvent& event) override;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return buffer_.size(); }
  // Events pushed out of the ring since construction (or the last Clear()).
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t total_recorded() const { return total_; }
  const EventCounts& counts() const { return counts_; }

  // Buffered events, oldest first.
  std::vector<WalkEvent> Events() const;

  // One compact JSON object per line per buffered event.
  void WriteJsonl(std::ostream& os) const;

  void Clear();

 private:
  std::size_t capacity_;
  std::vector<WalkEvent> buffer_;  // Ring storage.
  std::size_t next_ = 0;           // Insertion cursor once full.
  std::uint64_t dropped_ = 0;
  std::uint64_t total_ = 0;
  EventCounts counts_;
};

// Aggregating tracer: histograms the walk-shape quantities the paper's
// evaluation is built from — chain length (kWalkStep count per counted
// walk) and lines per walk — plus per-kind event totals.  Optionally
// forwards every event to a downstream tracer (e.g. a RingBufferTracer
// backing a --trace file).
class StatsTracer final : public WalkTracer {
 public:
  // Pre-sizes both histograms past any realistic chain length or lines per
  // walk, as CacheTouchModel does, so a traced steady-state replay never
  // allocates (the hot-path guard in tests/hotguard_test.cc).
  explicit StatsTracer(WalkTracer* forward = nullptr) : forward_(forward) {
    chain_length_.Reserve(64);
    lines_per_walk_.Reserve(64);
  }

  void Record(const WalkEvent& event) override;
  // O(1) for kTlbHit, which touches no histogram; other kinds loop.
  void RecordRepeat(const WalkEvent& event, std::uint64_t n) override;

  const EventCounts& counts() const { return counts_; }
  // Chain nodes / tree levels visited per *counted* walk.
  const Histogram& chain_length() const { return chain_length_; }
  // Distinct cache lines touched per counted walk.
  const Histogram& lines_per_walk() const { return lines_per_walk_; }

 private:
  WalkTracer* forward_;
  EventCounts counts_;
  Histogram chain_length_;
  Histogram lines_per_walk_;
  std::uint32_t pending_steps_ = 0;  // kWalkStep events since the last walk boundary.
};

// Fan-out tracer: forwards every event to each attached downstream tracer,
// in attachment order.  Null sinks are ignored, so callers can compose
// optional consumers (ring buffer, Perfetto exporter) without branching.
// RecordRepeat keeps the per-event default: neither of those sinks batches,
// so forwarding a batch whole would buy nothing.
class TeeTracer final : public WalkTracer {
 public:
  TeeTracer() = default;
  TeeTracer(std::initializer_list<WalkTracer*> sinks) {
    for (WalkTracer* s : sinks) {
      Add(s);
    }
  }

  void Add(WalkTracer* sink) {
    if (sink != nullptr) {
      sinks_.push_back(sink);
    }
  }
  std::size_t size() const { return sinks_.size(); }

  void Record(const WalkEvent& event) override {
    for (WalkTracer* s : sinks_) {
      s->Record(event);
    }
  }

 private:
  std::vector<WalkTracer*> sinks_;
};

// Serializes one event as a compact JSON object (no trailing newline).
void EventToJson(std::ostream& os, const WalkEvent& event);

}  // namespace cpt::obs
