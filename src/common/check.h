// Runtime invariant checks for the simulator.
//
// This simulator's results are only meaningful while its structural
// invariants hold, so the cheap checks stay on in every build type
// (CMakeLists strips -DNDEBUG for the same reason):
//
//   CPT_CHECK(cond)            — always on, including Release benches.
//                                Use for constructor/configuration checks and
//                                anything off the per-reference hot path.
//   CPT_CHECK(cond, "msg")     — same, with an explanatory message.
//   CPT_DCHECK(cond [, "msg"]) — compiled out under NDEBUG.  Use on hot
//                                paths (per-access, per-fault) where the
//                                branch itself would show up in benches.
//
// NDEBUG is never defined in this repo's builds: both CMakeLists.txt and
// perfbench/CMakeLists.txt strip -DNDEBUG from every build type, so DCHECKs
// are live in tests, benches and perfbench alike.  A build that compiles
// them out for committed throughput numbers is ROADMAP item 1's "Bench
// build" note (a `bench` preset with NDEBUG); it does not exist yet.
//
// A failed check prints the expression, location, and message to stderr and
// aborts, so sanitizer builds and CI get a deterministic, loud failure
// instead of silently corrupt measurements.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace cpt::check_internal {

[[noreturn]] inline void CheckFail(const char* kind, const char* expr, const char* file, int line,
                                   const char* msg = nullptr) {
  std::fprintf(stderr, "%s failed: %s at %s:%d%s%s\n", kind, expr, file, line,
               msg != nullptr ? " — " : "", msg != nullptr ? msg : "");
  std::fflush(stderr);
  std::abort();  // cpt-lint: allow(check-macro-hygiene) — the macros' own failure path
}

}  // namespace cpt::check_internal

#define CPT_CHECK(cond, ...)                                                              \
  (static_cast<bool>(cond)                                                                \
       ? static_cast<void>(0)                                                             \
       : ::cpt::check_internal::CheckFail("CPT_CHECK", #cond, __FILE__, __LINE__,         \
                                          ##__VA_ARGS__))

#ifdef NDEBUG
#define CPT_DCHECK(cond, ...) static_cast<void>(0)
#else
#define CPT_DCHECK(cond, ...)                                                             \
  (static_cast<bool>(cond)                                                                \
       ? static_cast<void>(0)                                                             \
       : ::cpt::check_internal::CheckFail("CPT_DCHECK", #cond, __FILE__, __LINE__,        \
                                          ##__VA_ARGS__))
#endif
