// Simulated physical memory: a pool of 4KB frames.
//
// The paper evaluates on a machine with real DRAM; here the only properties
// that matter are which frame numbers are handed out and how they align, so
// physical memory is just an allocatable set of frame numbers plus counters.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"

namespace cpt::mem {

class PhysicalMemory {
 public:
  explicit PhysicalMemory(std::uint64_t num_frames);

  std::uint64_t num_frames() const { return num_frames_; }
  std::uint64_t frames_free() const { return frames_free_; }
  std::uint64_t frames_used() const { return num_frames_ - frames_free_; }

  // Allocates the lowest-numbered free frame, or nullopt when exhausted.
  std::optional<Ppn> AllocFrame();

  // Allocates a specific frame if free; returns false if already in use.
  bool AllocSpecific(Ppn ppn);

  void FreeFrame(Ppn ppn);

  bool IsFree(Ppn ppn) const;

 private:
  std::uint64_t num_frames_;
  std::uint64_t frames_free_;
  std::vector<bool> used_;
  Ppn scan_hint_{};  // Next-fit scan start for AllocFrame.
};

}  // namespace cpt::mem
