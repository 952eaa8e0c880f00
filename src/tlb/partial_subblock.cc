#include "tlb/partial_subblock.h"

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::tlb {

namespace {
constexpr std::uint16_t kAllValid = 0xFFFF;
}  // namespace

PartialSubblockTlb::PartialSubblockTlb(unsigned num_entries, unsigned subblock_factor)
    : Tlb(num_entries),
      factor_(subblock_factor),
      block_log2_(Log2(subblock_factor)),
      entries_(num_entries),
      spans_(num_entries, ~std::uint64_t{0}),
      ppns_(num_entries),
      vectors_(num_entries, kAllValid),
      blocks_(num_entries) {
  CPT_CHECK(IsPowerOfTwo(subblock_factor) && subblock_factor <= 16,
            "PSB valid vectors hold at most 16 bits");
}

LookupOutcome PartialSubblockTlb::Probe(Asid asid, Vpn vpn) {
  const unsigned i = entries_.FindLive(asid, [&](unsigned j) { return Maps(j, vpn); });
  if (i < entries_.size()) {
    return Hit(asid, vpn, HitOn(i));
  }
  RecordMiss(asid, vpn, LookupOutcome::kMiss);
  return LookupOutcome::kMiss;
}

Tlb::EntryHit PartialSubblockTlb::DoInsert(Asid asid, Vpn vpn, const pt::TlbFill& fill) {
  // A PSB fill, or a block-sized superpage (an all-valid PSB), installs as
  // a vector-mapped block entry.  Anything else maps the faulting page.
  const bool block =
      fill.kind == MappingKind::kPartialSubblock ||
      (fill.kind == MappingKind::kSuperpage && fill.pages_log2 == block_log2_);
  std::uint16_t vector = kAllValid;
  if (fill.kind == MappingKind::kPartialSubblock) {
    vector = fill.word.valid_vector();
  } else if (block && factor_ < 16) {
    vector = static_cast<std::uint16_t>((1u << factor_) - 1);
  }
  // Bit-packing: the tag column holds the block's first VPN or the page.
  const std::uint64_t tag =
      block ? FirstVpnOfBlock(VpbnOf(fill.base_vpn, factor_), factor_).raw() : vpn.raw();

  // Refresh the entry of the same block or page in the same form, if any
  // (e.g. the PSB vector grew a bit).
  unsigned victim = entries_.FindLive(asid, [&](unsigned i) {
    return entries_.tags[i] == tag && (blocks_[i] != 0) == block;
  });
  if (victim == entries_.size()) {
    victim = entries_.LastInvalidOrOldest();
  }
  entries_.Claim(victim, asid, tag);
  spans_[victim] = block ? ~std::uint64_t{factor_ - 1} : ~std::uint64_t{0};
  ppns_[victim] = block ? fill.word.ppn() : fill.Translate(vpn);
  vectors_[victim] = vector;
  blocks_[victim] = block ? 1 : 0;
  entries_.stamps[victim] = NextStamp();
  return Maps(victim, vpn) ? HitOn(victim) : EntryHit{};
}

void PartialSubblockTlb::DoFlush() { entries_.InvalidateAll(); }

void PartialSubblockTlb::AuditVisit(check::TlbAuditVisitor& visitor) const {
  for (unsigned i = 0; i < entries_.size(); ++i) {
    const bool block = blocks_[i] != 0;
    check::TlbEntryView view{.valid = entries_.valid[i] != 0,
                             .asid = entries_.asids[i],
                             .stamp = entries_.stamps[i],
                             .base_vpn = Vpn{entries_.tags[i]},
                             .pages_log2 = block ? block_log2_ : 0,
                             .base_ppn = ppns_[i],
                             .valid_vector = block ? vectors_[i] : 0u};
    view.TranslateRun(/*by_vector=*/block);
    visitor.OnEntry(view);
  }
}

}  // namespace cpt::tlb
