// Host-performance counters: where the *simulator's own* cycles go.
//
// The paper's metrics are simulated cache lines; the ROADMAP's speed work
// (the refs/sec hot-path overhaul) needs the other half — host cycles,
// instructions, LLC misses, dTLB misses — so a claimed win is measurable
// and a regression is gateable.  HostPerfCounters
// opens one perf_event counter group over the calling thread and brackets a
// region with Start()/Stop(); each Stop() returns a HostPerfSample holding
// the counter deltas plus getrusage/wall-clock deltas.
//
// Degradation contract: perf_event_open is a Linux syscall that containers
// and CI runners routinely forbid (EPERM under seccomp, EACCES under
// perf_event_paranoid, ENOSYS elsewhere).  Construction never fails — when
// the group cannot be opened, available() is false, unavailable_reason()
// says why, and samples still carry the getrusage + wall-clock fallback.
// The JSON shape is IDENTICAL in both modes (counters read as zero), so a
// report produced on a perf-less host stays schema-valid and byte-layout
// compatible with one from bare metal; only values differ.  Setting
// CPT_NO_HOST_PERF=1 forces the degraded path (how tests pin it).
//
// This header and perf.cc are the only files allowed to touch raw clocks —
// the cpt_lint `timing-discipline` rule keeps every other
// steady_clock/clock_gettime use out of the tree.
#pragma once

#include <cstdint>
#include <string>

namespace cpt::obs {

class JsonWriter;

// One measured region: perf_event counter deltas (valid when `available`),
// getrusage + wall-clock deltas (always valid), and derived rates.
struct HostPerfSample {
  bool available = false;  // True iff the perf_event group was live.
  std::string source;      // "perf_event" or "rusage".
  std::string reason;      // Why perf_event is unavailable ("" when it is).

  double wall_seconds = 0.0;

  // perf_event group deltas; all zero when !available.  Counts are scaled
  // for multiplexing (enabled/running ratio) — the raw times are kept so a
  // consumer can judge how much scaling happened.
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t dtlb_load_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;

  // getrusage(RUSAGE_SELF) deltas; filled in both modes.
  double user_seconds = 0.0;
  double sys_seconds = 0.0;
  std::uint64_t max_rss_kb = 0;  // High-water mark, not a delta.
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t voluntary_ctx_switches = 0;
  std::uint64_t involuntary_ctx_switches = 0;

  // Derived rates; 0.0 whenever the denominator is zero (e.g. degraded mode).
  double Ipc() const;         // instructions / cycles.
  double LlcMpki() const;     // LLC misses per kilo-instruction.
  double DtlbMpki() const;    // dTLB load misses per kilo-instruction.
  double BranchMpki() const;  // Branch misses per kilo-instruction.
};

// Emits the sample as one JSON object with a shape that does not depend on
// availability: {available, source, reason, wall/user/sys seconds, rusage
// counters, "counters": {...}, "derived": {ipc, *_mpki}}.
void ToJson(JsonWriter& w, const HostPerfSample& s);

// A perf_event counter group over the calling thread, reusable across many
// Start()/Stop() brackets (one pair per replay phase).  Not thread-safe;
// the counters follow the thread that constructed them.
class HostPerfCounters {
 public:
  HostPerfCounters();
  ~HostPerfCounters();
  HostPerfCounters(const HostPerfCounters&) = delete;
  HostPerfCounters& operator=(const HostPerfCounters&) = delete;

  // False when the syscall was unavailable/forbidden; samples then carry
  // only the rusage/wall-clock fallback.
  bool available() const { return group_fd_ >= 0; }
  const std::string& unavailable_reason() const { return reason_; }

  // Resets and enables the group and snapshots rusage + the wall clock.
  void Start();
  // Disables the group and returns the deltas since the matching Start().
  HostPerfSample Stop();

  // True when CPT_NO_HOST_PERF forces the degraded path (the test hook for
  // EPERM/ENOSYS environments).
  static bool ForcedOff();

 private:
  struct Baseline;  // Opaque start-of-region snapshot (perf.cc).

  int group_fd_ = -1;   // Leader (cycles); -1 in degraded mode.
  int fds_[5] = {-1, -1, -1, -1, -1};  // All group fds, leader first.
  std::uint64_t ids_[5] = {};          // perf read-format ids, same order.
  std::string reason_;                 // Why degraded ("" when available).
  Baseline* base_ = nullptr;           // Live between Start() and Stop().
};

}  // namespace cpt::obs
