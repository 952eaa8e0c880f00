// Hot-path annotations for the per-reference replay loop.
//
// CPT_HOT marks a function as part of the steady-state replay path: the
// code that runs once per simulated memory reference (Machine::Access and
// everything it reaches — TLB probes, counted page-table walks, R/M-bit
// updates, cache-line accounting).  Under GCC/Clang it expands to
// [[gnu::hot]], a mild optimizer and code-layout hint, and it tells the
// reader that the function must not allocate or throw.  The allocation half
// is checked at run time by cpt::HotPathScope (common/hotguard.h); the
// throwing half by cpt_lint.py's no-throw rule over all of src/.
//
// CPT_COLD is the complementary marker: a function that a hot function may
// *call* but that is, by design, off the steady-state path (the page-fault
// handler — OS work, excluded from the paper's per-miss accounting the same
// way CacheTouchModel::AbortWalk discards the walk).  [[gnu::cold]] keeps
// its code out of the hot text pages.
#ifndef CPT_COMMON_HOTPATH_H_
#define CPT_COMMON_HOTPATH_H_

#if defined(__GNUC__) || defined(__clang__)
#define CPT_HOT [[gnu::hot]]
#define CPT_COLD [[gnu::cold]]
#else
#define CPT_HOT
#define CPT_COLD
#endif

#endif  // CPT_COMMON_HOTPATH_H_
