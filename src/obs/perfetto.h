// Chrome trace-event (Perfetto-loadable) export of the walk-event stream.
//
// The simulator has no wall clock worth tracing — what matters is the
// *order* and *shape* of miss-handling work — so the exporter runs a logical
// clock: every recorded event advances "time" by one microsecond.  Loaded in
// ui.perfetto.dev (or chrome://tracing), the file shows one track per
// component:
//
//   TLB        — miss instants (conventional / block / subblock) and block
//                prefetch fills
//   PT walk    — one slice per counted walk, spanning miss to walk-end,
//                with chain length, lines touched, and fault-ness as args
//   OS         — page faults and superpage promotions
//   allocator  — frame reservation grants (properly-placed flag)
//   softTLB    — TSB probe hits/misses
//   sections   — one instant per bench measurement (series/workload), so a
//                bench-long trace is navigable
//
// Counter tracks sample cumulative misses and the running lines-per-miss
// ratio every `counter_interval` walks — the headline figure as a curve.
//
// The output is the legacy JSON trace format: {"traceEvents": [...]}.  It is
// streamed, so arbitrarily long runs need no buffering; `max_events` caps
// the file (drops are counted and noted in trace metadata).
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string_view>

#include "obs/trace.h"

namespace cpt::obs {

class JsonWriter;

class PerfettoExporter final : public WalkTracer {
 public:
  struct Options {
    // Stop writing trace events after this many (metadata excluded).
    std::uint64_t max_events = 1'000'000;
    // Emit the (very numerous) TLB-hit instants too.  Off by default: hits
    // dominate the stream ~50:1 and add nothing to miss attribution.
    bool include_hits = false;
    // Emit counter samples every this-many committed walks.
    std::uint64_t counter_interval = 64;
  };

  explicit PerfettoExporter(std::ostream& os) : PerfettoExporter(os, Options()) {}
  PerfettoExporter(std::ostream& os, Options opts);
  ~PerfettoExporter() override;
  PerfettoExporter(const PerfettoExporter&) = delete;
  PerfettoExporter& operator=(const PerfettoExporter&) = delete;

  void Record(const WalkEvent& event) override;

  // Marks a bench measurement boundary on the sections track.
  void BeginSection(std::string_view label);

  // Writes the closing metadata and finishes the JSON document.  Called by
  // the destructor if not called explicitly; no events may be recorded
  // afterwards.
  void Finish();
  bool finished() const { return finished_; }

  std::uint64_t events_written() const { return events_written_; }
  std::uint64_t events_dropped() const { return events_dropped_; }

 private:
  // Track (thread) ids within the single trace process.
  enum Track : std::uint32_t {
    kTrackTlb = 1,
    kTrackWalk = 2,
    kTrackOs = 3,
    kTrackAllocator = 4,
    kTrackSwTlb = 5,
    kTrackSections = 6,
  };

  // The open walk slice, from its miss to its kWalkEnd.
  struct WalkState {
    bool open = false;
    bool faulted = false;
    std::uint64_t start = 0;
    Vpn vpn{};
    std::uint32_t steps = 0;
  };

  bool Budget();  // True if another event fits under max_events.
  void EmitMeta(std::string_view name, std::uint32_t tid, std::string_view value);
  void BeginEvent(const char* ph, std::string_view name, std::uint32_t tid,
                  std::uint64_t ts);
  void EndEvent();  // Closes the object opened by BeginEvent.
  void Instant(std::string_view name, std::uint32_t tid);
  void CounterSample();

  Options opts_;
  std::unique_ptr<JsonWriter> writer_;
  bool finished_ = false;

  std::uint64_t now_ = 0;  // Logical microseconds; one tick per Record().
  std::uint64_t events_written_ = 0;
  std::uint64_t events_dropped_ = 0;

  WalkState walk_;

  // Counter-track accumulators, sampled on the TLB track.
  std::uint64_t misses_ = 0;
  std::uint64_t lines_ = 0;
  std::uint64_t walks_ = 0;
};

}  // namespace cpt::obs
