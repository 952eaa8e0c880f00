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
// The page-fault handler (os::AddressSpace::TouchPage) is, by design, off
// the steady-state path: OS work, excluded from the paper's per-miss
// accounting the same way CacheTouchModel::AbortWalk discards the walk.  It
// is not marked [[gnu::cold]], which would compile it for size, because it
// is all the work of a Preload and of the page-table size sweeps; the
// replay marks its fault branches unlikely at the call sites instead.
#pragma once

#if defined(__GNUC__) || defined(__clang__)
#define CPT_HOT [[gnu::hot]]
#else
#define CPT_HOT
#endif
