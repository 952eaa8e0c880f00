#include "pt/hashed.h"

#include <bit>

#include "check/audit_visitor.h"
#include "common/check.h"
#include "common/stats.h"

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
    : PageTable(cache),
      opts_(opts),
      hasher_(opts.num_buckets, opts.hash_kind),
      bucket_stride_(opts.inverted ? 8 : std::bit_ceil<std::uint64_t>(opts.packed_pte ? 16 : 24)),
      alloc_(cache.line_size(), opts.placement),
      bucket_base_(alloc_.Allocate(std::uint64_t{opts.num_buckets} * bucket_stride_)),
      buckets_(opts.num_buckets, kNil) {
  CPT_CHECK(IsPowerOfTwo(opts.num_buckets));
}

HashedPageTable::~HashedPageTable() = default;

std::int32_t HashedPageTable::AllocNode() {
  std::int32_t idx;
  if (!free_nodes_.empty()) {
    idx = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    // Fault path only: a node is created when a key is first inserted.
    // PageTable::UpdateAttrFlags's rewrite replaces an existing node and
    // never allocates.
    arena_.push_back(Node{});
    idx = static_cast<std::int32_t>(arena_.size() - 1);
  }
  arena_[idx].addr = alloc_.Allocate(NodeBytes(opts_.packed_pte));
  return idx;
}

void HashedPageTable::FreeNode(std::int32_t idx) {
  alloc_.Free(arena_[idx].addr, NodeBytes(opts_.packed_pte));
  arena_[idx] = Node{};
  free_nodes_.push_back(idx);
}

TlbFill HashedPageTable::FillFrom(const Node& n, MappingWord word) const {
  TlbFill fill;
  fill.kind = word.kind();
  fill.word = word;
  fill.base_vpn = n.base_vpn;
  switch (word.kind()) {
    case MappingKind::kBase:
      fill.pages_log2 = 0;
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

std::optional<TlbFill> HashedPageTable::LookupKey(std::uint64_t key, Vpn faulting_vpn) {
  const std::uint32_t b = hasher_(key);
  // Embedded organization (Figure 4): the bucket head is itself a node, so
  // reading it costs one line even for an empty bucket.  Inverted
  // organization: the bucket holds a pointer; every node sits elsewhere.
  bool head = true;
  std::uint32_t chain_pos = 0;
  obs::WalkTracer* const tracer = cache_.tracer();
  cache_.Touch(BucketAddr(b), opts_.inverted ? 8 : TagNextBytes(opts_.packed_pte));
  for (std::int32_t idx = buckets_[b]; idx != kNil; idx = arena_[idx].next) {
    const Node& n = arena_[idx];
    const PhysAddr addr = (head && !opts_.inverted) ? BucketAddr(b) : n.addr;
    // The handler reads the tag and next pointer of every node it visits.
    cache_.Touch(addr, TagNextBytes(opts_.packed_pte));
    if (tracer != nullptr) {
      tracer->Record({.kind = obs::EventKind::kWalkStep,
                      .vpn = faulting_vpn,
                      .step = ++chain_pos,
                      .lines = static_cast<std::uint32_t>(cache_.LinesThisWalk())});
    }
    if (n.key == key) {
      // Read the mapping word of the matching node.
      cache_.Touch(addr + TagNextBytes(opts_.packed_pte), kWordBytes);
      TlbFill fill = FillFrom(n, n.word.load());
      if (fill.Covers(faulting_vpn)) {
        if (tracer != nullptr) {
          tracer->Record({.kind = obs::EventKind::kWalkHit,
                          .vpn = faulting_vpn,
                          .step = chain_pos,
                          .value = WalkHitValue(fill)});
        }
        return fill;
      }
      // Tag matched but this word does not map the faulting page (invalid
      // subblock bit, or a smaller co-resident superpage): keep searching,
      // as Section 5 requires.
    }
    head = false;
  }
  return std::nullopt;
}

std::optional<TlbFill> HashedPageTable::Lookup(VirtAddr va) {
  const Vpn vpn = VpnOf(va);
  return LookupKey(ChainKeyOf(vpn), vpn);
}

void HashedPageTable::UpsertWord(Vpn base_vpn, MappingWord word) {
  const std::uint64_t key = ChainKeyOf(base_vpn);
  const std::uint32_t b = hasher_(key);
  for (std::int32_t idx = buckets_[b]; idx != kNil; idx = arena_[idx].next) {
    Node& n = arena_[idx];
    const MappingWord old = n.word.load();
    if (n.key == key && n.base_vpn == base_vpn && old.kind() == word.kind() &&
        (word.kind() != MappingKind::kSuperpage || old.page_size() == word.page_size())) {
      live_translations_ -= TranslationsOf(old, opts_.tag_shift);
      n.word.store(word);
      live_translations_ += TranslationsOf(word, opts_.tag_shift);
      return;
    }
  }
  const std::int32_t idx = AllocNode();
  Node& n = arena_[idx];
  n.key = key;
  n.base_vpn = base_vpn;
  n.word.store(word);
  n.next = buckets_[b];
  buckets_[b] = idx;
  ++live_nodes_;
  live_translations_ += TranslationsOf(word, opts_.tag_shift);
}

bool HashedPageTable::RemoveKey(std::uint64_t key) {
  const std::uint32_t b = hasher_(key);
  bool removed = false;
  std::int32_t idx = buckets_[b];
  std::int32_t prev = kNil;
  while (idx != kNil) {
    Node& n = arena_[idx];
    const std::int32_t next = n.next;
    if (n.key == key) {
      live_translations_ -= TranslationsOf(n.word.load(), opts_.tag_shift);
      if (prev == kNil) {
        buckets_[b] = next;
      } else {
        arena_[prev].next = next;
      }
      FreeNode(idx);
      --live_nodes_;
      removed = true;
      idx = next;
      continue;  // Remove every node with this key (mixed-size blocks).
    }
    prev = idx;
    idx = next;
  }
  return removed;
}

void HashedPageTable::InsertBase(Vpn vpn, Ppn ppn, Attr attr) {
  CPT_DCHECK(opts_.tag_shift == 0, "base PTEs belong in a base-keyed table");
  UpsertWord(vpn, MappingWord::Base(ppn, attr));
}

bool HashedPageTable::RemoveBase(Vpn vpn) {
  CPT_DCHECK(opts_.tag_shift == 0);
  return RemoveKey(ChainKeyOf(vpn));
}

std::optional<MappingWord> HashedPageTable::Peek(std::uint64_t key) const {
  const std::uint32_t b = hasher_(key);
  for (std::int32_t idx = buckets_[b]; idx != kNil; idx = arena_[idx].next) {
    if (arena_[idx].key == key) {
      return arena_[idx].word.load();
    }
  }
  return std::nullopt;
}

std::uint64_t HashedPageTable::ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) {
  // A base-keyed hashed table must search once per base page (Section 3.1):
  // neighboring pages live in unrelated buckets.  A block-keyed table
  // searches once per key.
  if (npages == 0) {
    return 0;
  }
  std::uint64_t searches = 0;
  const std::uint64_t first_key = ChainKeyOf(first_vpn);
  const std::uint64_t last_key = ChainKeyOf(first_vpn + (npages - 1));
  for (std::uint64_t key = first_key; key <= last_key; ++key) {
    ++searches;
    const std::uint32_t b = hasher_(key);
    for (std::int32_t idx = buckets_[b]; idx != kNil; idx = arena_[idx].next) {
      Node& n = arena_[idx];
      if (n.key == key) {
        n.word.store(n.word.load().with_attr(attr));
      }
    }
  }
  return searches;
}

bool HashedPageTable::UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask, std::uint16_t clear_mask) {
  // Section 3.1: an uncounted chain walk, then an atomic R/M update on the
  // covering word — no lock, no word rewrite, safe under concurrent walkers.
  const std::uint64_t key = ChainKeyOf(vpn);
  const std::uint32_t b = hasher_(key);
  for (std::int32_t idx = buckets_[b]; idx != kNil; idx = arena_[idx].next) {
    Node& n = arena_[idx];
    if (n.key != key) {
      continue;
    }
    const TlbFill fill = FillFrom(n, n.word.load());
    if (!fill.Covers(vpn)) {
      continue;  // Keep searching, as in LookupKey (Section 5).
    }
    ApplyAttrUpdate(n.word, set_mask, clear_mask);
    return true;
  }
  return false;
}

std::uint64_t HashedPageTable::SizeBytesPaperModel() const {
  return live_nodes_ * NodeBytes(opts_.packed_pte);
}

std::uint64_t HashedPageTable::SizeBytesActual() const {
  // bytes_live already includes the embedded-head bucket array.
  return alloc_.bytes_live();
}

std::uint64_t HashedPageTable::live_translations() const { return live_translations_; }

std::string HashedPageTable::name() const {
  std::string n = opts_.packed_pte ? "hashed-packed" : "hashed";
  if (opts_.inverted) {
    n += "-inverted";
  }
  if (opts_.tag_shift != 0) {
    n += "-block";
  }
  return n;
}

void HashedPageTable::AuditVisit(check::PtAuditVisitor& visitor) const {
  const std::uint64_t step_limit = live_nodes_ + 1;
  for (std::uint32_t b = 0; b < buckets_.size(); ++b) {
    std::uint64_t steps = 0;
    for (std::int32_t idx = buckets_[b]; idx != kNil; idx = arena_[idx].next) {
      if (++steps > step_limit || idx < 0 ||
          static_cast<std::size_t>(idx) >= arena_.size()) {
        visitor.OnChainCycle(b);
        break;
      }
      const Node& n = arena_[idx];
      check::PtNodeView view;
      view.bucket = b;
      view.tag = n.key;
      view.base_vpn = n.base_vpn;
      view.sub_log2 = opts_.tag_shift;
      view.words = &n.word;
      view.num_words = 1;
      view.index = idx;
      view.addr = n.addr;
      visitor.OnNode(view);
    }
  }
}

Histogram HashedPageTable::ChainLengthHistogram() const {
  Histogram h;
  for (const std::int32_t head : buckets_) {
    std::size_t len = 0;
    for (std::int32_t idx = head; idx != kNil; idx = arena_[idx].next) {
      ++len;
    }
    h.Add(len);
  }
  return h;
}

}  // namespace cpt::pt
