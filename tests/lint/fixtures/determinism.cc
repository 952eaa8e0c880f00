// Fixture: determinism-guards.
//
// The simulator must be bit-identical run to run: all randomness goes
// through cpt::Rng and all timing through obs/perf.h.  (Exact float
// compares are the compiler's: the build passes -Wfloat-equal.)
#include <cstdlib>
#include <ctime>
#include <random>

namespace fx {

// BAD: libc rand() draws from hidden global state.
int RollDie() {
  return std::rand() % 6;
}

// BAD: seeding from the wall clock makes runs unrepeatable.
unsigned ClockSeed() {
  return static_cast<unsigned>(std::time(nullptr));
}

// BAD: random_device is nondeterministic by design.
unsigned HardwareSeed() {
  std::random_device rd;
  return rd();
}

// GOOD: integer comparison is exact; nothing to flag.
bool Done(int remaining) {
  return remaining == 0;
}

}  // namespace fx
