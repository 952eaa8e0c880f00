// IntervalSnapshotter: windowed time-series over the walk-event stream.
//
// The aggregate report says *how much* — total misses, average lines per
// miss — but not *when*: a workload whose miss rate spikes during a phase
// change, whose promotions arrive in bursts, or whose hash chains drift
// longer as tables fill looks identical in the totals to a uniform one.
// The snapshotter closes a window every N simulated references (the TLB
// probe events kTlbHit/kTlbMiss/kTlbBlockMiss/kTlbSubblockMiss, exactly one
// per Machine::Access) and records the per-kind event deltas, cache lines
// touched, and derived rates of that window, making phase behavior visible
// over the trace for the first time.
//
// Window semantics:
//   - Every event of reference i lands in the window containing reference i
//     (windows close lazily, when the *next* reference begins).
//   - A trace shorter than one window yields exactly one partial window at
//     Finish(); the final partial window is always flushed.
//   - A window with activity but no misses still appears (zero deltas are
//     data: they are what "quiet phase" looks like on a time axis).
//
// Output: WriteJsonl() emits one compact JSON object per window; windows
// also stream to a PerfettoExporter counter track when one is attached, so
// miss-rate/lines-per-miss curves render in ui.perfetto.dev next to the
// event tracks.  Optionally, counter instruments of a MetricRegistry are
// sampled at each boundary and their per-window deltas recorded alongside
// the event deltas.
//
// Like every tracer, the snapshotter observes and never steers: simulated
// metrics are bit-identical with and without one attached (pinned by
// tests/timeseries_test.cc).
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace cpt::obs {

class MetricRegistry;
class PerfettoExporter;

class IntervalSnapshotter final : public WalkTracer {
 public:
  struct Window {
    std::uint64_t index = 0;      // 0-based window number within a section.
    std::uint64_t start_ref = 0;  // Global index of the window's first reference.
    std::uint64_t refs = 0;       // References in the window (< window_refs only
                                  // for the final partial window).
    std::uint64_t lines = 0;      // Cache lines touched by counted walks.
    EventCounts events;           // Per-kind event deltas.
    // Per-window deltas of the polled registry's counter instruments, keyed
    // by rendered instrument name ("name{k=v,...}"); empty when no registry
    // is attached.  Every counter appears every window, including zeros.
    std::vector<std::pair<std::string, std::uint64_t>> metric_deltas;

    std::uint64_t Misses() const { return events.TlbMisses(); }
    double MissRate() const;      // Misses / refs (0 for an empty window).
    double LinesPerMiss() const;  // lines / misses (0 when no misses).
  };

  // `window_refs` is the window width in simulated references (> 0).
  // `registry`, when given, has its counter instruments delta-sampled at
  // every window boundary.  `perfetto`, when given, receives one counter-
  // track sample per closed window at the exporter's current logical time
  // (attach the snapshotter AFTER the exporter in a TeeTracer so the
  // logical clock has advanced past the boundary event).
  explicit IntervalSnapshotter(std::uint64_t window_refs,
                               const MetricRegistry* registry = nullptr,
                               PerfettoExporter* perfetto = nullptr);

  void Record(const WalkEvent& event) override;

  // Closes the in-progress partial window if it saw any references.
  // Idempotent; Record() must not be called again before Reset().
  void Finish();

  // Clears windows and counters for the next measurement section.  The
  // global reference counter keeps running (start_ref stays monotonic
  // across sections) and the registry baseline re-snapshots.
  void Reset();

  std::uint64_t window_refs() const { return window_refs_; }
  std::uint64_t total_refs() const { return total_refs_; }
  const std::vector<Window>& windows() const { return windows_; }

  // One compact JSON object per window:
  //   {"type":"window","window":i,"start_ref":..,"refs":..,"lines":..,
  //    "miss_rate":..,"lines_per_miss":..,"events":{...},"metrics":{...}}
  void WriteJsonl(std::ostream& os) const;

 private:
  void CloseWindow();
  void SampleRegistry(Window& w);

  std::uint64_t window_refs_;
  const MetricRegistry* registry_;
  PerfettoExporter* perfetto_;

  std::vector<Window> windows_;
  Window current_;
  std::uint64_t total_refs_ = 0;  // Global (cross-section) reference count.
  bool finished_ = false;
  // Last-seen registry counter values, for delta sampling.
  std::map<std::string, std::uint64_t> registry_base_;
};

}  // namespace cpt::obs
