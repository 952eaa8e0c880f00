// Translation accounting under random writes: a sequence of every kind of
// page-table write, with the auditor's recount checked after each step.
// Each table adjusts live_translations() by the words a write replaced; the
// recount must agree with it after every single write.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "check/auditor.h"
#include "common/rng.h"
#include "pt/page_table.h"

namespace cpt::testutil {

// Only the auditor's recount defects: translations, and the leaf, node and
// level counters a table keeps.  The random sequences below let formats
// overlap within a block, which the auditor also reports (as duplicate
// coverage) but which has no bearing on the counts.
inline std::string AccountingDefects(const pt::PageTable& table) {
  std::string out;
  for (const std::string& d : check::StructuralAuditor::Audit(table).defects) {
    if (d.find(" counts ") != std::string::npos || d.find("live counter") != std::string::npos) {
      out += d + "\n";
    }
  }
  return out;
}

// Random writes of every kind over eight page blocks, with superpages of the
// given sizes (log2 pages), checked against the recount after every step.
inline void RunAccountingSequence(pt::PageTable& t, unsigned factor,
                                  const std::vector<unsigned>& superpage_log2s,
                                  std::uint64_t seed, int steps) {
  const Vpn region{std::uint64_t{1} << 20};  // Aligned to every superpage size.
  const std::uint64_t region_pages = 8u * std::max(factor, 1u << superpage_log2s.back());
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const Vpn page = region + rng.Below(region_pages);
    const PageSize size{superpage_log2s[rng.Below(superpage_log2s.size())]};
    const Vpn sp_base = SuperpageBaseVpn(page, size);
    const Vpn block_base = FirstVpnOfBlock(VpbnOf(page, factor), factor);
    switch (rng.Below(10)) {
      case 0:
      case 1:
      case 2:
        t.InsertBase(page, Ppn{rng.Below(kPpnMask)}, Attr::ReadWrite());
        break;
      case 3:
      case 4:
        t.RemoveBase(page);
        break;
      case 5:
        t.InsertSuperpage(sp_base, size, Ppn{(rng.Below(64) + 1) << size.size_log2},
                          Attr::ReadWrite());
        break;
      case 6:
        t.RemoveSuperpage(sp_base, size);
        break;
      case 7:
        t.UpsertPartialSubblock(block_base, factor, Ppn{(rng.Below(64) + 1) * factor},
                                Attr::ReadWrite(),
                                static_cast<std::uint16_t>(rng.Below(1u << factor)));
        break;
      case 8:
        t.RemovePartialSubblock(block_base, factor);
        break;
      case 9:
        // Attribute writes must leave the count alone.
        t.UpdateAttrFlags(page, Attr::kReferenced, 0);
        t.ProtectRange(block_base, factor, Attr::ReadOnly());
        break;
    }
    ASSERT_EQ(AccountingDefects(t), "") << "step " << step;
  }
}

}  // namespace cpt::testutil
