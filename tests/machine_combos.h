// The (PtKind, TlbKind) matrix: every page-table organization and TLB
// design, and which pairs the machine supports.  Shared by the tests that
// sweep the matrix so they agree on what "every supported pair" means.
#pragma once

#include <array>

#include "sim/machine.h"

namespace cpt::testutil {

inline constexpr std::array kAllPtKinds = {
    sim::PtKind::kLinear6,        sim::PtKind::kLinear1,   sim::PtKind::kLinearHashed,
    sim::PtKind::kForward,        sim::PtKind::kHashed,    sim::PtKind::kHashedMulti,
    sim::PtKind::kHashedSpIndex,  sim::PtKind::kClustered, sim::PtKind::kClusteredAdaptive,
    sim::PtKind::kHashedInverted,
};

inline constexpr std::array kAllTlbKinds = {
    sim::TlbKind::kSinglePage,
    sim::TlbKind::kSuperpage,
    sim::TlbKind::kPartialSubblock,
    sim::TlbKind::kCompleteSubblock,
};

inline bool CombinationSupported(sim::PtKind pt, sim::TlbKind tlb) {
  // Plain hashed tables cannot store superpage/PSB PTEs (Section 4: they
  // need the two-table or superpage-index strategy).
  const bool needs_sp = tlb == sim::TlbKind::kSuperpage || tlb == sim::TlbKind::kPartialSubblock;
  if (!needs_sp) {
    return true;
  }
  return pt != sim::PtKind::kHashed && pt != sim::PtKind::kHashedInverted;
}

}  // namespace cpt::testutil
