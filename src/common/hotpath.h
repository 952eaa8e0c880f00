// Hot-path annotations for the per-reference replay loop.
//
// CPT_HOT marks a function as part of the steady-state replay path: the
// code that runs once per simulated memory reference (Machine::Access and
// everything it reaches — TLB probes, counted page-table walks, R/M-bit
// updates, cache-line accounting).  The marker does two jobs:
//
//   1. It is the root set for cpt_lint.py's whole-program hot-path rules
//      (hot-no-alloc / hot-no-throw / hot-lock-discipline, DESIGN.md
//      "Hot-path discipline").  The linter builds a heuristic call graph
//      over src/ and gates everything transitively reachable from a
//      CPT_HOT function, so "this function allocates three calls below a
//      Lookup override" becomes a CI failure instead of a perf mystery.
//   2. Under GCC/Clang it expands to [[gnu::hot]], a mild optimizer and
//      code-layout hint.  The hint is a side benefit; the contract is the
//      point.
//
// CPT_COLD is the complementary pruning marker: a function that a hot
// function may *call* but that is, by design, off the steady-state path
// (the page-fault handler — OS work, excluded from the paper's per-miss
// accounting the same way CacheTouchModel::AbortWalk discards the walk).
// The lint traversal stops at CPT_COLD functions, and [[gnu::cold]] keeps
// their code out of the hot text pages.
//
// The linter keys on the unexpanded token, so the annotations mean the same
// thing under every compiler.
#ifndef CPT_COMMON_HOTPATH_H_
#define CPT_COMMON_HOTPATH_H_

#if defined(__GNUC__) || defined(__clang__)
#define CPT_HOT [[gnu::hot]]
#define CPT_COLD [[gnu::cold]]
#else
#define CPT_HOT
#define CPT_COLD
#endif

// Host destructive-interference line, in bytes.  64 on every platform the
// gates run on (x86-64 and AArch64 server cores); a plain literal rather
// than std::hardware_destructive_interference_size so the value is visible
// to cpt_lint.py's layout model and stable across libstdc++ versions
// (which may report 128 or warn under -Winterference-size).  Distinct from
// the SIMULATED line size (common/types.h kDefaultCacheLineSize): this one
// shapes real memory traffic between worker threads, that one shapes the
// paper's counted metrics.
#define CPT_CACHE_LINE 64

// Marks a type (or member) whose instances are written by different
// threads, so adjacent elements land on distinct destructive-interference
// lines instead of ping-ponging one line between cores.  The false-sharing
// lint rule demands this on per-stripe/per-shard element types; the
// simulator is single-writer and has none today.
#define CPT_CACHE_ALIGNED alignas(CPT_CACHE_LINE)

#endif  // CPT_COMMON_HOTPATH_H_
