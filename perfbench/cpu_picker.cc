#include "perfbench/cpu_picker.h"

#include <sched.h>

#include <cstdint>

namespace cpt::perfbench {
namespace {

// Slow spells last about a second, so the choice is renewed well within one.
constexpr double kRepickSeconds = 0.1;

struct ScanEntry {
  std::uint64_t tag;
  std::uint64_t asid;
  std::uint64_t frame;
};

// The reference kernel: looks up a page-local address stream in a 64-entry
// fully associative array, replacing a pseudo-random entry on a miss.  This
// is the shape of the simulator's hottest loop, the TLB probe.
[[gnu::noinline]] std::uint64_t Scan(std::uint64_t lookups) {
  constexpr std::uint64_t kLcgMul = 6364136223846793005ULL;
  constexpr std::uint64_t kLcgAdd = 1442695040888963407ULL;
  ScanEntry entries[64];
  for (std::uint64_t i = 0; i < 64; ++i) {
    entries[i] = {i * 7, 0, i};
  }
  std::uint64_t h = 1;
  std::uint64_t page = 0;
  std::uint64_t sum = 0;
  for (std::uint64_t n = 0; n < lookups; ++n) {
    h = h * kLcgMul + kLcgAdd;
    if ((h >> 60) == 0) {
      page = (h >> 20) % 600;
    }
    int hit = -1;
    for (int j = 0; j < 64; ++j) {
      if (entries[j].tag == page && entries[j].asid == 0) {
        hit = j;
        break;
      }
    }
    if (hit < 0) {
      entries[h % 64] = {page, 0, h};
      ++sum;
    } else {
      sum += entries[hit].frame;
    }
  }
  return sum;
}

// About a millisecond on an idle 2.1 GHz core.
double TimeKernel() {
  static volatile std::uint64_t sink = 0;
  const Clock::time_point t0 = Clock::now();
  sink = sink + Scan(50'000);
  return SecondsSince(t0);
}

bool PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

}  // namespace

CpuPicker::CpuPicker() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      cpus_.push_back(cpu);
    }
  }
}

void CpuPicker::MaybeRepick() {
  if (cpus_.size() < 2 || (picked_ && SecondsSince(picked_at_) < kRepickSeconds)) {
    return;
  }
  int best_cpu = -1;
  double best_s = 0.0;
  for (const int cpu : cpus_) {
    if (!PinTo(cpu)) {
      continue;
    }
    const double s = TimeKernel();
    if (best_cpu < 0 || s < best_s) {
      best_cpu = cpu;
      best_s = s;
    }
  }
  if (best_cpu >= 0) {
    PinTo(best_cpu);
  }
  picked_ = true;
  picked_at_ = Clock::now();
}

}  // namespace cpt::perfbench
