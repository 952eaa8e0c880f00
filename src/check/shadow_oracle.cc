#include "check/shadow_oracle.h"

#include <sstream>
#include <utility>

namespace cpt::check {

namespace {
// Keep reports readable when a systematic bug corrupts thousands of pages.
constexpr std::uint64_t kMaxRecordedDefects = 32;
}  // namespace

ShadowedPageTable::ShadowedPageTable(mem::CacheTouchModel& cache,
                                     std::unique_ptr<pt::PageTable> inner)
    : PageTable(cache), inner_(std::move(inner)) {}

ShadowedPageTable::~ShadowedPageTable() = default;

void ShadowedPageTable::AddDefect(std::string defect) {
  if (defects_.defects.size() < kMaxRecordedDefects) {
    defects_.Add(std::move(defect));
  } else {
    ++suppressed_defects_;
  }
}

void ShadowedPageTable::CheckFill(Vpn vpn, const std::optional<pt::TlbFill>& fill) {
  ++lookups_checked_;
  const auto it = shadow_.find(vpn);
  const bool covered = fill.has_value() && fill->Covers(vpn);
  if (it == shadow_.end()) {
    if (covered) {
      std::ostringstream os;
      os << "lookup of unmapped vpn 0x" << std::hex << vpn << " produced a translation to ppn 0x"
         << fill->Translate(vpn) << " (" << inner_->name() << ")";
      AddDefect(os.str());
    }
    return;
  }
  if (!covered) {
    std::ostringstream os;
    os << "lookup of mapped vpn 0x" << std::hex << vpn << " page-faulted; shadow expects ppn 0x"
       << it->second.ppn << " (" << inner_->name() << ")";
    AddDefect(os.str());
    return;
  }
  const Ppn got = fill->Translate(vpn);
  if (got != it->second.ppn) {
    std::ostringstream os;
    os << "vpn 0x" << std::hex << vpn << " translated to ppn 0x" << got
       << " but the shadow expects ppn 0x" << it->second.ppn << " (" << inner_->name() << ")";
    AddDefect(os.str());
  }
}

std::optional<pt::TlbFill> ShadowedPageTable::Lookup(VirtAddr va) {
  std::optional<pt::TlbFill> fill = inner_->Lookup(va);
  CheckFill(VpnOf(va), fill);
  return fill;
}

void ShadowedPageTable::LookupBlock(VirtAddr va, unsigned subblock_factor,
                                    std::vector<pt::TlbFill>& out) {
  const std::size_t before = out.size();
  inner_->LookupBlock(va, subblock_factor, out);
  // Every translation the block fetch produced must agree with the shadow.
  const Vpn first = FirstVpnOfBlock(VpbnOf(VpnOf(va), subblock_factor), subblock_factor);
  for (std::size_t f = before; f < out.size(); ++f) {
    for (unsigned i = 0; i < subblock_factor; ++i) {
      const Vpn vpn = first + i;
      if (!out[f].Covers(vpn)) {
        continue;
      }
      const auto it = shadow_.find(vpn);
      if (it == shadow_.end()) {
        std::ostringstream os;
        os << "block fetch covered unmapped vpn 0x" << std::hex << vpn << " ("
           << inner_->name() << ")";
        AddDefect(os.str());
      } else if (out[f].Translate(vpn) != it->second.ppn) {
        std::ostringstream os;
        os << "block fetch translated vpn 0x" << std::hex << vpn << " to ppn 0x"
           << out[f].Translate(vpn) << " but the shadow expects ppn 0x" << it->second.ppn
           << " (" << inner_->name() << ")";
        AddDefect(os.str());
      }
    }
  }
}

void ShadowedPageTable::InsertBase(Vpn vpn, Ppn ppn, Attr attr) {
  inner_->InsertBase(vpn, ppn, attr);
  shadow_[vpn] = ShadowEntry{ppn, Kind::kBase};
}

bool ShadowedPageTable::RemoveBase(Vpn vpn) {
  const bool removed = inner_->RemoveBase(vpn);
  const auto it = shadow_.find(vpn);
  if (it != shadow_.end() && it->second.kind == Kind::kBase) {
    if (!removed) {
      std::ostringstream os;
      os << "RemoveBase(0x" << std::hex << vpn << ") found nothing but the shadow holds a base "
         << "mapping (" << inner_->name() << ")";
      AddDefect(os.str());
    }
    shadow_.erase(it);
  }
  return removed;
}

void ShadowedPageTable::InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) {
  inner_->InsertSuperpage(base_vpn, size, base_ppn, attr);
  for (std::uint64_t i = 0; i < size.pages(); ++i) {
    shadow_[base_vpn + i] = ShadowEntry{base_ppn + i, Kind::kSuperpage};
  }
}

bool ShadowedPageTable::RemoveSuperpage(Vpn base_vpn, PageSize size) {
  const bool removed = inner_->RemoveSuperpage(base_vpn, size);
  for (std::uint64_t i = 0; i < size.pages(); ++i) {
    const auto it = shadow_.find(base_vpn + i);
    if (it != shadow_.end() && it->second.kind == Kind::kSuperpage) {
      shadow_.erase(it);
    }
  }
  return removed;
}

void ShadowedPageTable::UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor,
                                              Ppn block_base_ppn, Attr attr,
                                              std::uint16_t valid_vector) {
  inner_->UpsertPartialSubblock(block_base_vpn, subblock_factor, block_base_ppn, attr,
                                valid_vector);
  for (unsigned i = 0; i < subblock_factor; ++i) {
    const Vpn vpn = block_base_vpn + i;
    if ((valid_vector >> i) & 1u) {
      shadow_[vpn] = ShadowEntry{block_base_ppn + i, Kind::kPsb};
    } else {
      // A cleared vector bit removes only a PSB-provided translation; base
      // PTEs for non-placed pages of the block stay live.
      const auto it = shadow_.find(vpn);
      if (it != shadow_.end() && it->second.kind == Kind::kPsb) {
        shadow_.erase(it);
      }
    }
  }
}

bool ShadowedPageTable::RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) {
  const bool removed = inner_->RemovePartialSubblock(block_base_vpn, subblock_factor);
  for (unsigned i = 0; i < subblock_factor; ++i) {
    const auto it = shadow_.find(block_base_vpn + i);
    if (it != shadow_.end() && it->second.kind == Kind::kPsb) {
      shadow_.erase(it);
    }
  }
  return removed;
}

std::uint64_t ShadowedPageTable::ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) {
  return inner_->ProtectRange(first_vpn, npages, attr);  // Attrs are not shadowed.
}

std::optional<Attr> ShadowedPageTable::UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                                       std::uint16_t clear_mask) {
  return inner_->UpdateAttrFlags(vpn, set_mask, clear_mask);
}

AuditReport ShadowedPageTable::FinalCheck() const {
  AuditReport report = defects_;
  if (suppressed_defects_ > 0) {
    report.Add("... and " + std::to_string(suppressed_defects_) + " further oracle defects");
  }
  if (inner_->live_translations() != shadow_.size()) {
    report.Add(inner_->name() + " counts " + std::to_string(inner_->live_translations()) +
               " live translations but the shadow map holds " + std::to_string(shadow_.size()));
  }
  return report;
}

}  // namespace cpt::check
