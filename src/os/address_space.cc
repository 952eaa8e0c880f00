#include "os/address_space.h"

namespace cpt::os {

AddressSpace::AddressSpace(std::uint32_t id, pt::PageTable& table,
                           mem::ReservationAllocator& frames, AddressSpaceOptions opts)
    : id_(id),
      table_(table),
      frames_(frames),
      opts_(opts),
      factor_(opts.subblock_factor),
      block_size_{Log2(opts.subblock_factor)} {
  CPT_CHECK(IsPowerOfTwo(factor_) && factor_ <= kMaxBlockPages);
  CPT_CHECK(factor_ == frames.subblock_factor());
  if (opts_.strategy == PteStrategy::kPartialSubblock) {
    CPT_CHECK(factor_ <= MappingWord::kMaxPsbFactor);
    CPT_CHECK(table_.features().partial_subblock);
  }
  if (opts_.strategy == PteStrategy::kSuperpage) {
    CPT_CHECK(table_.features().superpages);
  }
}

AddressSpace::~AddressSpace() = default;

bool AddressSpace::TouchPage(VirtAddr va) {
  const Vpn vpn = VpnOf(va);
  const Vpbn vpbn = VpbnOf(vpn, factor_);
  const unsigned boff = BoffOf(vpn, factor_);
  const std::uint32_t bit = 1u << boff;

  if (last_block_ == nullptr || last_vpbn_ != vpbn) {
    last_block_ = &blocks_[vpbn];
    last_vpbn_ = vpbn;
  }
  BlockState& block = *last_block_;
  if (block.resident_mask & bit) {
    return true;  // Already resident and mapped.
  }

  const auto grant = frames_.Allocate(ReservationKey(vpbn), boff, block.reservation);
  if (!grant) {
    ++stats_.oom_faults;
    return false;
  }
  ++stats_.faults;
  if (obs::WalkTracer* const tracer = table_.cache().tracer()) {
    tracer->Record({.kind = obs::EventKind::kPageFault,
                    .asid = static_cast<std::uint16_t>(id_),
                    .vpn = vpn,
                    .value = grant->properly_placed ? 1u : 0u});
  }
  ++resident_pages_;
  block.resident_mask |= bit;
  block.set_ppn(boff, grant->ppn);
  if (grant->properly_placed) {
    CPT_DCHECK(block.placed_mask == 0 || BlockPpnBase(block) + boff == grant->ppn,
               "a block's placed pages sit in one aligned physical block");
    block.placed_mask |= bit;
  } else {
    ++stats_.placement_failures;
  }
  MapNewPage(vpbn, block, boff, grant->properly_placed);
  return true;
}

void AddressSpace::MapNewPage(Vpbn vpbn, BlockState& block, unsigned boff, bool placed) {
  const Vpn vpn = BlockFirstVpn(vpbn) + boff;
  const Ppn ppn = block.ppn(boff);
  switch (opts_.strategy) {
    case PteStrategy::kBaseOnly:
      table_.InsertBase(vpn, ppn, opts_.default_attr);
      break;
    case PteStrategy::kSuperpage:
      table_.InsertBase(vpn, ppn, opts_.default_attr);
      MaybePromote(vpbn, block);
      break;
    case PteStrategy::kPartialSubblock:
      if (placed) {
        // The page joins (or starts) the block's PSB PTE: valid vector =
        // resident AND properly-placed pages.
        const auto vector =
            static_cast<std::uint16_t>(block.resident_mask & block.placed_mask);
        table_.UpsertPartialSubblock(BlockFirstVpn(vpbn), factor_, BlockPpnBase(block),
                                     opts_.default_attr, vector);
        block.has_psb_pte = true;
        ++stats_.psb_updates;
      } else {
        table_.InsertBase(vpn, ppn, opts_.default_attr);
      }
      break;
  }
}

void AddressSpace::MaybePromote(Vpbn vpbn, BlockState& block) {
  const std::uint32_t full =
      factor_ >= 32 ? ~std::uint32_t{0} : ((std::uint32_t{1} << factor_) - 1);
  if (block.promoted || block.resident_mask != full || block.placed_mask != full) {
    return;
  }
  // Dynamic page-size assignment: the block is fully resident and properly
  // placed — promote it to one superpage PTE (Section 5's incremental
  // creation: all-valid is easy to notice in a clustered node).
  const Vpn first = BlockFirstVpn(vpbn);
  for (unsigned i = 0; i < factor_; ++i) {
    table_.RemoveBase(first + i);
  }
  table_.InsertSuperpage(first, block_size_, BlockPpnBase(block), opts_.default_attr);
  block.promoted = true;
  ++stats_.promotions;
  if (obs::WalkTracer* const tracer = table_.cache().tracer()) {
    tracer->Record({.kind = obs::EventKind::kPtePromotion,
                    .asid = static_cast<std::uint16_t>(id_),
                    .vpn = first,
                    .value = factor_});
  }
}

bool AddressSpace::IsResident(Vpn vpn) const {
  auto it = blocks_.find(VpbnOf(vpn, factor_));
  if (it == blocks_.end()) {
    return false;
  }
  return (it->second.resident_mask >> BoffOf(vpn, factor_)) & 1u;
}

void AddressSpace::UnmapOnePage(Vpn vpn) {
  const Vpbn vpbn = VpbnOf(vpn, factor_);
  const unsigned boff = BoffOf(vpn, factor_);
  const std::uint32_t bit = 1u << boff;
  auto it = blocks_.find(vpbn);
  if (it == blocks_.end() || !(it->second.resident_mask & bit)) {
    return;
  }
  BlockState& block = it->second;
  const Vpn first = BlockFirstVpn(vpbn);

  if (block.promoted) {
    // Demote: split the superpage back into base PTEs for the pages that
    // remain resident.
    table_.RemoveSuperpage(first, block_size_);
    block.promoted = false;
    ++stats_.demotions;
    for (unsigned i = 0; i < factor_; ++i) {
      if (i != boff && (block.resident_mask & (1u << i))) {
        table_.InsertBase(first + i, block.ppn(i), opts_.default_attr);
      }
    }
  } else if (block.has_psb_pte && (block.placed_mask & bit)) {
    const auto vector =
        static_cast<std::uint16_t>((block.resident_mask & block.placed_mask) & ~bit);
    if (vector != 0) {
      table_.UpsertPartialSubblock(first, factor_, BlockPpnBase(block), opts_.default_attr,
                                   vector);
    } else {
      table_.RemovePartialSubblock(first, factor_);
      block.has_psb_pte = false;
    }
    ++stats_.psb_updates;
  } else {
    table_.RemoveBase(vpn);
  }

  frames_.Free(block.ppn(boff));
  block.resident_mask &= ~bit;
  block.placed_mask &= ~bit;
  block.set_ppn(boff, Ppn{});
  --resident_pages_;
  if (block.resident_mask == 0) {
    blocks_.erase(it);
    last_block_ = nullptr;
  }
}

void AddressSpace::UnmapRange(Vpn first_vpn, std::uint64_t npages) {
  for (std::uint64_t i = 0; i < npages; ++i) {
    UnmapOnePage(first_vpn + i);
  }
}

AddressSpace::BlockCensus AddressSpace::Census() const {
  BlockCensus census;
  for (const auto& [vpbn, block] : blocks_) {
    if (block.resident_mask == 0) {
      continue;
    }
    if (block.promoted) {
      ++census.super_blocks;
    } else if (block.has_psb_pte) {
      if (block.resident_mask & ~block.placed_mask) {
        ++census.mixed_blocks;
      } else {
        ++census.psb_blocks;
      }
    } else {
      ++census.base_blocks;
    }
  }
  return census;
}

}  // namespace cpt::os
