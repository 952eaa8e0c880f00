#include "pt/multi_hashed.h"

#include <bit>

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::pt {

// ---------------------------------------------------------------------------
// MultiTableHashed
// ---------------------------------------------------------------------------

namespace {

HashedPageTable::Options BaseTableOptions(const MultiTableHashed::Options& o) {
  return HashedPageTable::Options{
      .num_buckets = o.num_buckets,
      .tag_shift = 0,
  };
}

HashedPageTable::Options BlockTableOptions(const MultiTableHashed::Options& o) {
  return HashedPageTable::Options{
      .num_buckets = o.num_buckets,
      .tag_shift = Log2(o.subblock_factor),
  };
}

}  // namespace

MultiTableHashed::MultiTableHashed(mem::CacheTouchModel& cache, Options opts)
    : PageTable(cache),
      opts_(opts),
      base_(cache, BaseTableOptions(opts)),
      block_(cache, BlockTableOptions(opts)) {
  CPT_CHECK(IsPowerOfTwo(opts.subblock_factor));
}

std::optional<TlbFill> MultiTableHashed::Lookup(VirtAddr va) {
  const auto [first, second] = InSearchOrder();
  if (auto fill = first->Lookup(va)) {
    return fill;
  }
  // The first search failed; the TLB miss handler must now search the other
  // page table — this second full search is the cost Section 6.3 highlights.
  return second->Lookup(va);
}

void MultiTableHashed::InsertBase(Vpn vpn, Ppn ppn, Attr attr) { base_.InsertBase(vpn, ppn, attr); }

bool MultiTableHashed::RemoveBase(Vpn vpn) { return base_.RemoveBase(vpn); }

void MultiTableHashed::InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) {
  CPT_DCHECK(IsSuperpageAligned(base_vpn, size) && IsSuperpageAligned(base_ppn, size));
  block_.UpsertWord(base_vpn, MappingWord::Superpage(base_ppn, attr, size));
}

bool MultiTableHashed::RemoveSuperpage(Vpn base_vpn, PageSize size) {
  return block_.RemoveWord(base_vpn, MappingKind::kSuperpage, size);
}

void MultiTableHashed::UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor,
                                             Ppn block_base_ppn, Attr attr,
                                             std::uint16_t valid_vector) {
  CPT_DCHECK(subblock_factor == opts_.subblock_factor);
  CPT_DCHECK(BoffOf(block_base_vpn, subblock_factor) == 0 &&
             IsSuperpageAligned(block_base_ppn, PageSize{Log2(subblock_factor)}));
  block_.UpsertWord(block_base_vpn,
                    MappingWord::PartialSubblock(block_base_ppn, attr, valid_vector));
}

bool MultiTableHashed::RemovePartialSubblock(Vpn block_base_vpn, unsigned /*subblock_factor*/) {
  return block_.RemoveWord(block_base_vpn, MappingKind::kPartialSubblock);
}

std::optional<Attr> MultiTableHashed::UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                                      std::uint16_t clear_mask) {
  // R/M bits live in whichever constituent table holds the covering PTE;
  // the first one in search order answers, as in Lookup.
  const auto [first, second] = InSearchOrder();
  if (const auto was = first->UpdateAttrFlags(vpn, set_mask, clear_mask)) {
    return was;
  }
  return second->UpdateAttrFlags(vpn, set_mask, clear_mask);
}

std::uint64_t MultiTableHashed::ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) {
  return base_.ProtectRange(first_vpn, npages, attr) +
         block_.ProtectRange(first_vpn, npages, attr);
}

std::uint64_t MultiTableHashed::SizeBytesPaperModel() const {
  return base_.SizeBytesPaperModel() + block_.SizeBytesPaperModel();
}

std::uint64_t MultiTableHashed::SizeBytesActual() const {
  return base_.SizeBytesActual() + block_.SizeBytesActual();
}

std::uint64_t MultiTableHashed::live_translations() const {
  return base_.live_translations() + block_.live_translations();
}

std::string MultiTableHashed::name() const {
  return opts_.order == SearchOrder::kBaseFirst ? "hashed-multi" : "hashed-multi-blockfirst";
}

void MultiTableHashed::AuditVisit(check::PtAuditVisitor& visitor) const {
  // Bucket numbers of the two constituent tables overlap; per-table bucket
  // checks should use base_table()/block_table() directly.  This combined
  // walk serves whole-table coverage checks.
  base_.AuditVisit(visitor);
  block_.AuditVisit(visitor);
}

// ---------------------------------------------------------------------------
// SuperpageIndexHashed
// ---------------------------------------------------------------------------

SuperpageIndexHashed::SuperpageIndexHashed(mem::CacheTouchModel& cache, Options opts)
    : ChainArena(cache, opts.num_buckets, std::bit_ceil(kNodeBytes)),
      opts_(opts),
      block_shift_(Log2(opts.subblock_factor)) {
  CPT_CHECK(IsPowerOfTwo(opts.subblock_factor));
}

std::uint64_t SuperpageIndexHashed::TranslationCount(const SpIndexNode& n) {
  const MappingWord word = n.word.load();
  switch (word.kind()) {
    case MappingKind::kBase:
      return word.valid() ? 1 : 0;
    case MappingKind::kSuperpage:
      return word.valid() ? (std::uint64_t{1} << n.pages_log2) : 0;
    case MappingKind::kPartialSubblock:
      return std::popcount(static_cast<unsigned>(word.valid_vector()));
  }
  return 0;
}

std::optional<TlbFill> SuperpageIndexHashed::Match(const SpIndexNode& n, Vpn vpn) {
  // Tag comparison checks whether this node's covered range contains the
  // page; superpage and base PTEs for one block share the bucket.
  const PageSize node_size{n.pages_log2};
  if (SuperpageBaseVpn(vpn, node_size) != SuperpageBaseVpn(n.base_vpn, node_size)) {
    return std::nullopt;
  }
  const MappingWord word = n.word.load();
  return TlbFill{
      .kind = word.kind(), .base_vpn = n.base_vpn, .pages_log2 = n.pages_log2, .word = word};
}

std::optional<TlbFill> SuperpageIndexHashed::Lookup(VirtAddr va) {
  const Vpn vpn = VpnOf(va);
  return Probe(BucketOf(BlockKeyOf(vpn)), vpn, kTagNextBytes,
               [&](const SpIndexNode& n, PhysAddr addr) {
                 const std::optional<TlbFill> fill = Match(n, vpn);
                 if (fill) {
                   cache_.Touch(addr + kTagNextBytes, kWordBytes);
                 }
                 return fill;
               });
}

std::optional<Attr> SuperpageIndexHashed::UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                                          std::uint16_t clear_mask) {
  // The update hits the word in place, so a single node carries the bit for
  // every page it covers.
  const auto hit = FindCovering(BucketOf(BlockKeyOf(vpn)), vpn,
                                [&](const SpIndexNode& n) { return Match(n, vpn); });
  if (!hit) {
    return std::nullopt;
  }
  return ApplyAttrUpdate(hit->node.word, set_mask, clear_mask);
}

std::int32_t* SuperpageIndexHashed::FindNode(std::uint32_t b, Vpn base_vpn, unsigned pages_log2,
                                             MappingKind kind) {
  return FindLink(b, [&](const SpIndexNode& n) {
    return n.base_vpn == base_vpn && n.pages_log2 == pages_log2 && n.word.load().kind() == kind;
  });
}

void SuperpageIndexHashed::Upsert(Vpn base_vpn, unsigned pages_log2, MappingWord word) {
  const std::uint32_t b = BucketOf(BlockKeyOf(base_vpn));
  if (std::int32_t* link = FindNode(b, base_vpn, pages_log2, word.kind())) {
    SpIndexNode& n = NodeAt(link);
    live_translations_ -= TranslationCount(n);
    n.word.store(word);
    live_translations_ += TranslationCount(n);
    return;
  }
  SpIndexNode& n = Alloc(b, kNodeBytes);
  n.base_vpn = base_vpn;
  n.pages_log2 = pages_log2;
  n.word.store(word);
  live_translations_ += TranslationCount(n);
}

bool SuperpageIndexHashed::Remove(Vpn base_vpn, unsigned pages_log2, MappingKind kind) {
  std::int32_t* link = FindNode(BucketOf(BlockKeyOf(base_vpn)), base_vpn, pages_log2, kind);
  if (link == nullptr) {
    return false;
  }
  live_translations_ -= TranslationCount(NodeAt(link));
  UnlinkAndFree(link, kNodeBytes);
  return true;
}

void SuperpageIndexHashed::InsertBase(Vpn vpn, Ppn ppn, Attr attr) {
  Upsert(vpn, 0, MappingWord::Base(ppn, attr));
}

bool SuperpageIndexHashed::RemoveBase(Vpn vpn) { return Remove(vpn, 0, MappingKind::kBase); }

void SuperpageIndexHashed::InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) {
  // Superpages larger than the hash-index size "must be handled another way"
  // (Section 4.2); this implementation restricts them to the index size.
  CPT_DCHECK(size.pages() <= opts_.subblock_factor);
  CPT_DCHECK(IsSuperpageAligned(base_vpn, size) && IsSuperpageAligned(base_ppn, size));
  Upsert(base_vpn, size.size_log2, MappingWord::Superpage(base_ppn, attr, size));
}

bool SuperpageIndexHashed::RemoveSuperpage(Vpn base_vpn, PageSize size) {
  return Remove(base_vpn, size.size_log2, MappingKind::kSuperpage);
}

void SuperpageIndexHashed::UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor,
                                                 Ppn block_base_ppn, Attr attr,
                                                 std::uint16_t valid_vector) {
  CPT_DCHECK(subblock_factor == opts_.subblock_factor);
  Upsert(block_base_vpn, block_shift_,
         MappingWord::PartialSubblock(block_base_ppn, attr, valid_vector));
}

bool SuperpageIndexHashed::RemovePartialSubblock(Vpn block_base_vpn, unsigned /*subblock_factor*/) {
  return Remove(block_base_vpn, block_shift_, MappingKind::kPartialSubblock);
}

std::uint64_t SuperpageIndexHashed::ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) {
  if (npages == 0) {
    return 0;
  }
  // One bucket search per page block; every node overlapping the range gets
  // its attributes rewritten.
  std::uint64_t searches = 0;
  const Vpn last_vpn = first_vpn + (npages - 1);
  for (std::uint64_t key = BlockKeyOf(first_vpn); key <= BlockKeyOf(last_vpn); ++key) {
    ++searches;
    for (SpIndexNode& n : Nodes(BucketOf(key))) {
      const Vpn node_last = n.base_vpn + ((std::uint64_t{1} << n.pages_log2) - 1);
      if (BlockKeyOf(n.base_vpn) == key && node_last >= first_vpn && n.base_vpn <= last_vpn) {
        n.word.store(n.word.load().with_attr(attr));
      }
    }
  }
  return searches;
}

void SuperpageIndexHashed::AuditVisit(check::PtAuditVisitor& visitor) const {
  VisitChains(visitor, [this](const SpIndexNode& n, check::PtNodeView& view) {
    view.tag = BlockKeyOf(n.base_vpn);
    view.base_vpn = n.base_vpn;
    view.sub_log2 = n.pages_log2;
    view.words = &n.word;
    view.num_words = 1;
  });
}

}  // namespace cpt::pt
