// Wall-clock timing for simulator-throughput telemetry.
//
// The paper's metrics are counted cache lines, but the ROADMAP's
// "measurably faster" mandate needs host-side throughput too: how many
// trace references and TLB misses the *simulator* retires per second.
// ScopedTimer measures one bracketed region; PhaseProfiler accumulates
// named phases (snapshot build, preload, trace run) across a bench run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"

namespace cpt::obs {

class JsonWriter;

// Adds the region's elapsed seconds to a double and/or a RunningStats
// sample stream on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* out_seconds, RunningStats* out_stats = nullptr)
      : out_(out_seconds), stats_(out_stats), start_(Clock::now()) {}
  ~ScopedTimer() {
    const double s = Elapsed();
    if (out_ != nullptr) {
      *out_ += s;
    }
    if (stats_ != nullptr) {
      stats_->Add(s);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double Elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  double* out_;
  RunningStats* stats_;
  Clock::time_point start_;
};

// Accumulates wall-clock seconds per named phase.  Phases may repeat
// (seconds and counts accumulate) but not nest.
class PhaseProfiler {
 public:
  struct Phase {
    std::string name;
    double seconds = 0.0;
    std::uint64_t count = 0;
  };

  void Begin(std::string_view name);
  void End();

  // RAII phase bracket.
  class Scope {
   public:
    Scope(PhaseProfiler& p, std::string_view name) : profiler_(p) { profiler_.Begin(name); }
    ~Scope() { profiler_.End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseProfiler& profiler_;
  };

  const std::vector<Phase>& phases() const { return phases_; }
  double TotalSeconds() const;

  // JSON array of {name, seconds, count} in first-Begin order.
  void ToJson(JsonWriter& w) const;

 private:
  std::vector<Phase> phases_;
  std::int64_t active_ = -1;  // Index into phases_, -1 when idle.
  std::chrono::steady_clock::time_point started_{};
};

}  // namespace cpt::obs
