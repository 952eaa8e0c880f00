// Hashed (inverted) page table — Figure 4 of the paper.
//
// An open hash table with chaining.  Each PTE stores an 8-byte tag, an
// 8-byte next pointer, and 8 bytes of mapping information (24 bytes total;
// Section 7's packed optimization squeezes tag+next into 8 bytes for 16).
//
// The table is keyed by `vpn >> tag_shift`:
//   - tag_shift == 0:        a conventional base-page hashed table;
//   - tag_shift == log2(s):  a per-page-block table storing superpage /
//     partial-subblock PTEs, used as the second table of MultiTableHashed
//     (Section 4.2 "Multiple Page Tables").
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
#ifndef CPT_PT_HASHED_H_
#define CPT_PT_HASHED_H_

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "check/fwd.h"
#include "common/hash.h"
#include "common/hotpath.h"
#include "common/pte.h"
#include "common/stats.h"
#include "common/types.h"
#include "mem/sim_alloc.h"
#include "pt/page_table.h"

namespace cpt::pt {

class HashedPageTable final : public PageTable {
 public:
  struct Options {
    std::uint32_t num_buckets = kDefaultHashBuckets;
    // Key granularity: PTEs are tagged with vpn >> tag_shift.
    unsigned tag_shift = 0;
    // Section 7 optimization: 16-byte PTEs (short next pointer, inferred tag
    // bits).  Changes size accounting only; the access pattern is identical.
    bool packed_pte = false;
    // Inverted-page-table organization (Section 2 / IBM System/38): the
    // buckets are an array of *pointers* dereferenced to reach the first
    // node, so even a one-node chain costs two lines (pointer + node),
    // while the bucket array itself is 8 bytes per bucket instead of a
    // full embedded node.
    bool inverted = false;
    HashKind hash_kind = HashKind::kMix;
    mem::NodePlacement placement = mem::NodePlacement::kLineAligned;
  };

  HashedPageTable(mem::CacheTouchModel& cache, Options opts);
  ~HashedPageTable() override;

  // Paper-model node format (Figure 4): an 8-byte tag and an 8-byte next
  // pointer, then one mapping word.  The packed form (Section 7) squeezes
  // tag+next into one word.
  static constexpr std::uint64_t TagNextBytes(bool packed) { return packed ? 8 : 16; }
  static constexpr std::uint64_t NodeBytes(bool packed) {
    return TagNextBytes(packed) + kWordBytes;
  }

  // ---- PageTable interface ----
  [[nodiscard]] CPT_HOT std::optional<TlbFill> Lookup(VirtAddr va) override;
  void InsertBase(Vpn vpn, Ppn ppn, Attr attr) override;
  bool RemoveBase(Vpn vpn) override;
  std::uint64_t ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) override;
  // Lock-free R/M-bit update (Section 3.1): an uncounted chain walk followed
  // by an atomic fetch_or/CAS on the covering word — safe against concurrent
  // walkers and other updaters.
  CPT_HOT bool UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                               std::uint16_t clear_mask) override;
  std::uint64_t SizeBytesPaperModel() const override;
  std::uint64_t SizeBytesActual() const override;
  std::uint64_t live_translations() const override;
  std::string name() const override;

  // ---- Generic keyed access (used directly by MultiTableHashed) ----

  // Inserts or replaces the PTE whose tag is `vpn >> tag_shift`.
  void UpsertWord(Vpn base_vpn, MappingWord word);
  bool RemoveKey(std::uint64_t key);
  // Chain walk for the key; cache-line counted.  `faulting_vpn` selects the
  // covered page when building the fill.
  [[nodiscard]] CPT_HOT std::optional<TlbFill> LookupKey(std::uint64_t key, Vpn faulting_vpn);
  // Uncounted read of the stored word (OS-side inspection).
  std::optional<MappingWord> Peek(std::uint64_t key) const;

  // ---- Introspection for tests and benches ----
  unsigned tag_shift() const { return opts_.tag_shift; }
  std::uint32_t num_buckets() const { return opts_.num_buckets; }
  std::uint64_t node_count() const { return live_nodes_; }
  double LoadFactor() const {
    return static_cast<double>(live_nodes_) / static_cast<double>(opts_.num_buckets);
  }
  Histogram ChainLengthHistogram() const;

  // ---- Invariant auditing (src/check) ----

  // The bucket a chain key belongs in, for bucket-membership verification.
  std::uint32_t BucketOfKey(std::uint64_t key) const { return hasher_(key); }
  bool packed_pte() const { return opts_.packed_pte; }

  // Walks every chain node, reporting a read-only view of each to the
  // visitor.  Chain walks are bounded at the live node count; running past
  // the bound reports a cycle and stops that bucket.
  void AuditVisit(check::PtAuditVisitor& visitor) const;

 private:
  friend class check::TestBackdoor;

  static constexpr std::int32_t kNil = -1;

  struct Node {
    std::uint64_t key = 0;
    Vpn base_vpn{};  // First VPN covered by the word (host-side metadata).
    AtomicMappingWord word{};
    std::int32_t next = kNil;
    PhysAddr addr{};
  };
  // The paper model charges NodeBytes()/TagNextBytes() per chain step, a
  // prefix of this host struct; the host struct must not silently grow.
  static_assert(sizeof(Node) == 40 && alignof(Node) == 8);

  // Chain keys deliberately erase the domain: a base-keyed table tags nodes
  // with the VPN, a block-keyed one (tag_shift == log2(s)) with the VPBN.
  // This is the only crossing from Vpn to a raw chain key.
  std::uint64_t ChainKeyOf(Vpn vpn) const { return vpn.raw() >> opts_.tag_shift; }

  // The buckets are an array of embedded head nodes (Figure 4): probing a
  // bucket always reads its head slot, even when the chain is empty.  The
  // first chain node is charged at the head slot's address; overflow nodes
  // at their own.  Head slots are strided by a power of two so one never
  // straddles a cache line.
  PhysAddr BucketAddr(std::uint32_t b) const { return bucket_base_ + b * bucket_stride_; }

  std::int32_t AllocNode();
  void FreeNode(std::int32_t idx);
  TlbFill FillFrom(const Node& n, MappingWord word) const;

  const Options opts_;
  const BucketHasher hasher_;
  const std::uint64_t bucket_stride_;
  mem::SimAllocator alloc_;
  const PhysAddr bucket_base_;
  std::vector<Node> arena_;
  std::vector<std::int32_t> free_nodes_;
  std::vector<std::int32_t> buckets_;
  std::uint64_t live_nodes_ = 0;
  std::uint64_t live_translations_ = 0;
};

static_assert(HashedPageTable::NodeBytes(false) ==
                      HashedPageTable::TagNextBytes(false) + kWordBytes &&
                  HashedPageTable::NodeBytes(true) ==
                      HashedPageTable::TagNextBytes(true) + kWordBytes,
              "a hashed node is its tag+next header plus exactly one mapping word");
static_assert(HashedPageTable::NodeBytes(false) <= kDefaultCacheLineSize &&
                  HashedPageTable::NodeBytes(true) <= kDefaultCacheLineSize,
              "a hashed chain step must touch one line");

}  // namespace cpt::pt

#endif  // CPT_PT_HASHED_H_
