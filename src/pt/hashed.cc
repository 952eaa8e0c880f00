#include "pt/hashed.h"

#include <bit>

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::pt {

namespace {

// How many base-page translations one mapping word provides.
std::uint64_t TranslationsOf(const MappingWord& w, unsigned psb_factor_log2) {
  switch (w.kind()) {
    case MappingKind::kBase:
      return w.valid() ? 1 : 0;
    case MappingKind::kSuperpage:
      return w.valid() ? w.page_size().pages() : 0;
    case MappingKind::kPartialSubblock: {
      const unsigned factor = 1u << psb_factor_log2;
      const std::uint16_t mask =
          factor >= 16 ? std::uint16_t{0xFFFF} : static_cast<std::uint16_t>((1u << factor) - 1);
      return std::popcount(static_cast<unsigned>(w.valid_vector() & mask));
    }
  }
  return 0;
}

}  // namespace

HashedPageTable::HashedPageTable(mem::CacheTouchModel& cache, Options opts)
    : ChainArena(cache, opts.num_buckets, opts.inverted ? 8 : std::bit_ceil(kNodeBytes),
                 opts.inverted),
      opts_(opts) {}

HashedPageTable::~HashedPageTable() = default;

std::optional<TlbFill> HashedPageTable::Match(const HashedNode& n, std::uint64_t key) const {
  if (n.key != key) {
    return std::nullopt;
  }
  const MappingWord word = n.word.load();
  TlbFill fill{.kind = word.kind(), .base_vpn = n.base_vpn, .word = word};
  switch (word.kind()) {
    case MappingKind::kBase:
      break;
    case MappingKind::kSuperpage:
      fill.pages_log2 = word.page_size().size_log2;
      break;
    case MappingKind::kPartialSubblock:
      fill.pages_log2 = opts_.tag_shift;
      break;
  }
  return fill;
}

std::optional<TlbFill> HashedPageTable::Lookup(VirtAddr va) {
  // Embedded organization (Figure 4): the bucket head is itself a node, so
  // reading it costs one line even for an empty bucket.  Inverted
  // organization: the bucket holds a pointer; every node sits elsewhere.
  const Vpn vpn = VpnOf(va);
  const std::uint64_t key = ChainKeyOf(vpn);
  return Probe(BucketOf(key), vpn, kTagNextBytes, [&](const HashedNode& n, PhysAddr addr) {
    const std::optional<TlbFill> fill = Match(n, key);
    if (fill) {
      // Read the mapping word of the matching node.
      cache_.Touch(addr + kTagNextBytes, kWordBytes);
    }
    return fill;
  });
}

std::optional<Attr> HashedPageTable::UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                                     std::uint16_t clear_mask) {
  const std::uint64_t key = ChainKeyOf(vpn);
  const auto hit =
      FindCovering(BucketOf(key), vpn, [&](const HashedNode& n) { return Match(n, key); });
  if (!hit) {
    return std::nullopt;
  }
  return ApplyAttrUpdate(hit->node.word, set_mask, clear_mask);
}

std::int32_t* HashedPageTable::FindWord(std::uint32_t b, Vpn base_vpn, MappingKind kind,
                                        PageSize size) {
  const std::uint64_t key = ChainKeyOf(base_vpn);
  return FindLink(b, [&](const HashedNode& n) {
    const MappingWord w = n.word.load();
    return n.key == key && n.base_vpn == base_vpn && w.kind() == kind &&
           (kind != MappingKind::kSuperpage || w.page_size() == size);
  });
}

void HashedPageTable::UpsertWord(Vpn base_vpn, MappingWord word) {
  const std::uint64_t key = ChainKeyOf(base_vpn);
  const std::uint32_t b = BucketOf(key);
  if (std::int32_t* link = FindWord(b, base_vpn, word.kind(), word.page_size())) {
    HashedNode& n = NodeAt(link);
    live_translations_ -= TranslationsOf(n.word.load(), opts_.tag_shift);
    n.word.store(word);
    live_translations_ += TranslationsOf(word, opts_.tag_shift);
    return;
  }
  HashedNode& n = Alloc(b, kNodeBytes);
  n.key = key;
  n.base_vpn = base_vpn;
  n.word.store(word);
  live_translations_ += TranslationsOf(word, opts_.tag_shift);
}

bool HashedPageTable::RemoveWord(Vpn base_vpn, MappingKind kind, PageSize size) {
  std::int32_t* link = FindWord(BucketOf(ChainKeyOf(base_vpn)), base_vpn, kind, size);
  if (link == nullptr) {
    return false;
  }
  live_translations_ -= TranslationsOf(NodeAt(link).word.load(), opts_.tag_shift);
  UnlinkAndFree(link, kNodeBytes);
  return true;
}

void HashedPageTable::InsertBase(Vpn vpn, Ppn ppn, Attr attr) {
  UpsertWord(vpn, MappingWord::Base(ppn, attr));
}

bool HashedPageTable::RemoveBase(Vpn vpn) { return RemoveWord(vpn, MappingKind::kBase); }

void HashedPageTable::InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) {
  CPT_DCHECK(size.pages() <= (std::uint64_t{1} << opts_.tag_shift),
             "superpages larger than the key span need another table");
  CPT_DCHECK(IsSuperpageAligned(base_vpn, size) && IsSuperpageAligned(base_ppn, size));
  UpsertWord(base_vpn, MappingWord::Superpage(base_ppn, attr, size));
}

bool HashedPageTable::RemoveSuperpage(Vpn base_vpn, PageSize size) {
  return RemoveWord(base_vpn, MappingKind::kSuperpage, size);
}

void HashedPageTable::UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor,
                                            Ppn block_base_ppn, Attr attr,
                                            std::uint16_t valid_vector) {
  CPT_DCHECK(subblock_factor == (1u << opts_.tag_shift));
  CPT_DCHECK(BoffOf(block_base_vpn, subblock_factor) == 0 &&
             IsSuperpageAligned(block_base_ppn, PageSize{opts_.tag_shift}));
  UpsertWord(block_base_vpn, MappingWord::PartialSubblock(block_base_ppn, attr, valid_vector));
}

bool HashedPageTable::RemovePartialSubblock(Vpn block_base_vpn, unsigned /*subblock_factor*/) {
  return RemoveWord(block_base_vpn, MappingKind::kPartialSubblock);
}

std::optional<MappingWord> HashedPageTable::Peek(std::uint64_t key) const {
  const HashedNode* n =
      Find(BucketOf(key), [key](const HashedNode& node) { return node.key == key; });
  return n == nullptr ? std::nullopt : std::optional<MappingWord>(n->word.load());
}

std::uint64_t HashedPageTable::ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) {
  // A base-keyed hashed table must search once per base page (Section 3.1):
  // neighboring pages live in unrelated buckets.  A block-keyed table
  // searches once per key and rewrites only the words whose own range
  // overlaps the range.
  if (npages == 0) {
    return 0;
  }
  std::uint64_t searches = 0;
  const Vpn last_vpn = first_vpn + (npages - 1);
  for (std::uint64_t key = ChainKeyOf(first_vpn); key <= ChainKeyOf(last_vpn); ++key) {
    ++searches;
    for (HashedNode& n : Nodes(BucketOf(key))) {
      if (const std::optional<TlbFill> fill = Match(n, key);
          fill && fill->Overlaps(first_vpn, last_vpn)) {
        ProtectWord(n.word, attr);
      }
    }
  }
  return searches;
}

std::string HashedPageTable::name() const {
  std::string n = "hashed";
  if (opts_.inverted) {
    n += "-inverted";
  }
  if (opts_.tag_shift != 0) {
    n += "-block";
  }
  return n;
}

void HashedPageTable::AuditVisit(check::PtAuditVisitor& visitor) const {
  // A PSB word covers one key span.
  const check::PtTableView table{
      .name = name(), .tag_shift = opts_.tag_shift, .psb_factor = 1u << opts_.tag_shift};
  VisitChains(visitor, table, [this](const HashedNode& n, check::PtNodeView& view) {
    view.tag = n.key;
    view.base_vpn = n.base_vpn;
    view.sub_log2 = Match(n, n.key)->pages_log2;  // The word's own range.
    view.words = &n.word;
    view.num_words = 1;
  });
}

}  // namespace cpt::pt
