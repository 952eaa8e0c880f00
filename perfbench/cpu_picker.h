// Keeps the untraced run's thread on the CPU that is fastest at the moment.
//
// On a shared host a CPU runs the simulator up to about 2x slower while a
// co-tenant runs on the physical core behind it.  Such spells come and go
// within a second or so, on each CPU separately, and a thread the scheduler
// leaves on a slow CPU can stay slow for a whole run.  Every kRepickSeconds
// the picker times a short reference kernel on each CPU the process may
// use and pins the thread to the fastest.  The kernel is the benchmark's
// own code; it only chooses the CPU and never enters a reported time.
#ifndef CPT_PERFBENCH_CPU_PICKER_H_
#define CPT_PERFBENCH_CPU_PICKER_H_

#include <vector>

#include "perfbench/perfbench.h"

namespace cpt::perfbench {

class CpuPicker {
 public:
  CpuPicker();

  // Call before each timed span.  Re-pins the thread when the last choice
  // is kRepickSeconds old.
  void MaybeRepick();

 private:
  std::vector<int> cpus_;  // Fewer than two: the thread is never moved.
  bool picked_ = false;
  Clock::time_point picked_at_;
};

}  // namespace cpt::perfbench

#endif  // CPT_PERFBENCH_CPU_PICKER_H_
