// Cache-line touch accounting for page-table walks.
//
// The paper's "page table access time" metric is the average number of
// distinct (level-two) cache lines accessed while servicing one TLB miss
// (Section 6.1), assuming page-table data is rarely cache-resident.  Page
// tables in this library place their structures at simulated physical
// addresses; every walk records the byte ranges it reads through this model,
// which counts distinct lines per walk and cumulative totals.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hotpath.h"
#include "common/stats.h"
#include "common/types.h"
#include "obs/trace.h"

namespace cpt::mem {

class CacheTouchModel {
 public:
  explicit CacheTouchModel(std::uint32_t line_size = kDefaultCacheLineSize);

  std::uint32_t line_size() const { return line_size_; }

  // ---- Telemetry (src/obs) ----
  // The cache model doubles as the walk-event bus: every page table holds a
  // reference to it, so attaching one tracer here makes the whole machine's
  // walk activity observable.  Null (the default) means every emit site is
  // a single predicted-not-taken branch; no simulated count ever depends on
  // whether a tracer is attached.
  void set_tracer(obs::WalkTracer* tracer) { tracer_ = tracer; }
  obs::WalkTracer* tracer() const { return tracer_; }
  bool in_walk() const { return in_walk_; }

  // Starts accounting for one page-table walk (one TLB miss service).  The
  // bracket checks itself: BeginWalk inside an open walk, and EndWalk with
  // none open, fail a CPT_DCHECK.
  CPT_HOT void BeginWalk();

  // Records a read of [addr, addr + size) in simulated physical memory.
  CPT_HOT void Touch(PhysAddr addr, std::uint64_t size);

  // Distinct lines touched since BeginWalk().
  CPT_HOT unsigned LinesThisWalk() const { return static_cast<unsigned>(walk_lines_.size()); }

  // Finishes the walk, folding its line count into the totals.
  CPT_HOT void EndWalk();

  // Discards the current walk without counting it (used when a walk turns
  // out to be a page fault, which is OS work rather than TLB-miss service).
  CPT_HOT void AbortWalk() {
    if (tracer_ != nullptr && in_walk_) {
      tracer_->Record({.kind = obs::EventKind::kWalkAbort});
    }
    walk_lines_.clear();
    in_walk_ = false;
  }

  std::uint64_t total_lines() const { return total_lines_; }
  std::uint64_t total_walks() const { return total_walks_; }
  double AvgLinesPerWalk() const {
    return total_walks_ == 0 ? 0.0
                             : static_cast<double>(total_lines_) / static_cast<double>(total_walks_);
  }
  const Histogram& per_walk_histogram() const { return per_walk_; }

  void Reset();

 private:
  std::uint32_t line_size_;
  unsigned line_shift_;
  std::vector<std::uint64_t> walk_lines_;  // distinct line ids of current walk
  bool in_walk_ = false;
  std::uint64_t total_lines_ = 0;
  std::uint64_t total_walks_ = 0;
  Histogram per_walk_;
  obs::WalkTracer* tracer_ = nullptr;
};

// RAII helper: begins a walk on construction, ends it on destruction.
class WalkScope {
 public:
  explicit WalkScope(CacheTouchModel& model) : model_(model) { model_.BeginWalk(); }
  ~WalkScope() { model_.EndWalk(); }
  WalkScope(const WalkScope&) = delete;
  WalkScope& operator=(const WalkScope&) = delete;

 private:
  CacheTouchModel& model_;
};

}  // namespace cpt::mem
