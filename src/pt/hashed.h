// Hashed (inverted) page table — Figure 4 of the paper.
//
// An open hash table with chaining.  Each PTE stores an 8-byte tag, an
// 8-byte next pointer, and 8 bytes of mapping information (24 bytes total).
//
// The table is keyed by `vpn >> tag_shift`:
//   - tag_shift == 0:        a conventional base-page hashed table;
//   - tag_shift == log2(s):  a per-page-block table that also stores
//     superpage / partial-subblock PTEs of up to s pages.  Alone it is the
//     "Superpage-Index Hashed" table of Section 4.2 (base PTEs of one block
//     chain into its bucket next to the block's superpage/PSB PTEs); it is
//     also the second table of MultiTableHashed (Section 4.2 "Multiple Page
//     Tables").  A node's tag is its page block, so a lookup keeps searching
//     past same-block nodes that do not cover the page.
//
// Cache-line accounting (Section 6.1 model): each chain node visited touches
// its tag+next words; the matching node's mapping word is then read.  The
// bucket-head access itself is not charged a separate line — the paper's
// 1 + alpha/2 model counts the first PTE of the chain as the first access
// (bucket heads are "an array of hash nodes", Figure 4).
//
// Concurrency contract (see DESIGN.md "Concurrency contracts"):
//   - Mapping words are atomic: concurrent Lookup + R/M-bit updates
//     (Section 3.1) are safe on a table whose structure is not changing.
//   - Structural mutation (Insert*/Remove*/ProtectRange) is single-writer and
//     must not overlap any other call.
#pragma once

#include <cstdint>
#include <optional>

#include "check/fwd.h"
#include "common/hotpath.h"
#include "common/pte.h"
#include "common/types.h"
#include "pt/chain.h"
#include "pt/page_table.h"

namespace cpt::pt {

struct HashedNode {
  std::uint64_t key = 0;
  Vpn base_vpn{};  // First VPN covered by the word (host-side metadata).
  AtomicMappingWord word{};
  std::int32_t next = kChainEnd;
  PhysAddr addr{};
};
// The paper model charges kNodeBytes/kTagNextBytes per chain step, a
// prefix of this host struct; the host struct must not silently grow.
static_assert(sizeof(HashedNode) == 40 && alignof(HashedNode) == 8);

class HashedPageTable final : public ChainArena<HashedNode> {
 public:
  struct Options {
    std::uint32_t num_buckets = kDefaultHashBuckets;
    // Key granularity: PTEs are tagged with vpn >> tag_shift.
    unsigned tag_shift = 0;
    // Inverted-page-table organization (Section 2 / IBM System/38): the
    // buckets are an array of *pointers* dereferenced to reach the first
    // node, so even a one-node chain costs two lines (pointer + node),
    // while the bucket array itself is 8 bytes per bucket instead of a
    // full embedded node.
    bool inverted = false;
  };

  HashedPageTable(mem::CacheTouchModel& cache, Options opts);
  ~HashedPageTable() override;

  // Paper-model node format (Figure 4): an 8-byte tag and an 8-byte next
  // pointer, then one mapping word.
  static constexpr std::uint64_t kTagNextBytes = 16;
  static constexpr std::uint64_t kNodeBytes = kTagNextBytes + kWordBytes;

  // ---- PageTable interface ----
  [[nodiscard]] CPT_HOT std::optional<TlbFill> Lookup(VirtAddr va) override;
  void InsertBase(Vpn vpn, Ppn ppn, Attr attr) override;
  bool RemoveBase(Vpn vpn) override;
  // A block-keyed table stores superpage and PSB PTEs too.
  PtFeatures features() const override {
    return {.superpages = opts_.tag_shift > 0, .partial_subblock = opts_.tag_shift > 0};
  }
  // Superpages larger than the key span "must be handled another way"
  // (Section 4.2): lookups from their second page block on would miss, so
  // they are rejected.
  void InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) override;
  bool RemoveSuperpage(Vpn base_vpn, PageSize size) override;
  void UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor, Ppn block_base_ppn,
                             Attr attr, std::uint16_t valid_vector) override;
  bool RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) override;
  std::uint64_t ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) override;
  CPT_HOT std::optional<Attr> UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                              std::uint16_t clear_mask) override;
  std::string name() const override;

  // Uncounted read of the stored word (OS-side inspection).
  std::optional<MappingWord> Peek(std::uint64_t key) const;

  void AuditVisit(check::PtAuditVisitor& visitor) const override;

  // ---- Introspection for tests and benches ----
  unsigned tag_shift() const { return opts_.tag_shift; }

 private:
  // Chain keys deliberately erase the domain: a base-keyed table tags nodes
  // with the VPN, a block-keyed one (tag_shift == log2(s)) with the VPBN.
  // This is the only crossing from Vpn to a raw chain key.
  std::uint64_t ChainKeyOf(Vpn vpn) const { return vpn.raw() >> opts_.tag_shift; }

  // Inserts or replaces the PTE whose tag is `vpn >> tag_shift`, base is
  // `base_vpn` and format (and, for superpages, size) is `word`'s.
  void UpsertWord(Vpn base_vpn, MappingWord word);
  // Removes the PTE UpsertWord would replace with a word of `kind` (and,
  // for superpages, `size`) at `base_vpn`; false when there is none.
  bool RemoveWord(Vpn base_vpn, MappingKind kind, PageSize size = {});

  // The link to the node UpsertWord rewrites, on bucket `b` of its key.
  std::int32_t* FindWord(std::uint32_t b, Vpn base_vpn, MappingKind kind, PageSize size);
  // The one match of Lookup, UpdateAttrFlags, ProtectRange and AuditVisit:
  // the fill node `n` holds for chain key `key` (the word's own range), or
  // nullopt on a tag mismatch.
  std::optional<TlbFill> Match(const HashedNode& n, std::uint64_t key) const;

  const Options opts_;
};

static_assert(HashedPageTable::kNodeBytes <= kDefaultCacheLineSize,
              "a hashed chain step must touch one line");

}  // namespace cpt::pt
