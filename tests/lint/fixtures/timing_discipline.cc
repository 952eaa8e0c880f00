// Fixture: timing-discipline.
//
// Every host-time measurement flows through obs/perf.h
// (HostPerfCounters); raw std::chrono clock reads and POSIX clock
// syscalls anywhere else make reported numbers incomparable across the
// tree.
#include <chrono>
#include <ctime>

namespace fx {

// BAD: raw steady_clock read outside obs/perf.*.
double NowSeconds() {
  const auto t = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

// BAD: high_resolution_clock is the same raw read with a fancier name.
long HighResTick() {
  return std::chrono::high_resolution_clock::now().time_since_epoch().count();
}

// BAD: wall-clock reads double down by being non-monotonic too.
long WallTick() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}

// BAD: POSIX clock syscall bypasses the shared timing layer.
double PosixNow() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec);
}

// GOOD: duration types and arithmetic are fine; only clock reads are banned.
std::chrono::milliseconds Backoff(int attempt) {
  return std::chrono::milliseconds(1 << attempt);
}

}  // namespace fx
