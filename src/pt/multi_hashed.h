// Hashed-page-table strategies for superpage and partial-subblock PTEs
// (Section 4.2).
//
// MultiTableHashed — the "Multiple Page Tables" solution the paper's
// evaluation assumes for hashed tables (Section 6.1): one hashed table keyed
// by base VPN for 4KB PTEs and a second keyed by page block for
// superpage/partial-subblock PTEs.  A TLB miss probes them in a configurable
// order (base-first by default, as in Figure 11b/c; Section 6.3 notes that
// block-first would be better for PSB-heavy workloads).  A miss that is
// satisfied by the second table pays for both searches — the source of the
// hashed tables' poor Figure 11b/c results.
//
// SuperpageIndexHashed — the "Superpage-Index Hashed" solution: a single
// table whose hash function always uses the page-block number, so base PTEs
// for the same block chain into one bucket alongside any superpage/PSB PTEs.
// One probe suffices, but chains are longer.
#ifndef CPT_PT_MULTI_HASHED_H_
#define CPT_PT_MULTI_HASHED_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "check/fwd.h"
#include "common/hash.h"
#include "common/hotpath.h"
#include "mem/sim_alloc.h"
#include "pt/hashed.h"
#include "pt/page_table.h"

namespace cpt::pt {

class MultiTableHashed final : public PageTable {
 public:
  enum class SearchOrder : std::uint8_t {
    kBaseFirst,   // 4KB table, then the block table (the paper's default).
    kBlockFirst,  // Block table first (better when most misses hit SP/PSB).
  };

  struct Options {
    std::uint32_t num_buckets = kDefaultHashBuckets;  // Per constituent table.
    unsigned subblock_factor = kDefaultSubblockFactor;
    SearchOrder order = SearchOrder::kBaseFirst;
    bool packed_pte = false;
    HashKind hash_kind = HashKind::kMix;
    mem::NodePlacement placement = mem::NodePlacement::kLineAligned;
  };

  MultiTableHashed(mem::CacheTouchModel& cache, Options opts);

  [[nodiscard]] CPT_HOT std::optional<TlbFill> Lookup(VirtAddr va) override;
  void InsertBase(Vpn vpn, Ppn ppn, Attr attr) override;
  bool RemoveBase(Vpn vpn) override;
  PtFeatures features() const override { return {.superpages = true, .partial_subblock = true}; }
  void InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) override;
  bool RemoveSuperpage(Vpn base_vpn, PageSize size) override;
  void UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor, Ppn block_base_ppn,
                             Attr attr, std::uint16_t valid_vector) override;
  bool RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) override;
  CPT_HOT bool UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                               std::uint16_t clear_mask) override;
  std::uint64_t ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) override;
  std::uint64_t SizeBytesPaperModel() const override;
  std::uint64_t SizeBytesActual() const override;
  std::uint64_t live_translations() const override;
  std::string name() const override;

  HashedPageTable& base_table() { return base_; }
  HashedPageTable& block_table() { return block_; }
  const HashedPageTable& base_table() const { return base_; }
  const HashedPageTable& block_table() const { return block_; }

  // ---- Invariant auditing (src/check) ----
  void AuditVisit(check::PtAuditVisitor& visitor) const;

 private:
  // Chain keys for the constituent tables deliberately erase the domain: the
  // base table is VPN-keyed (tag_shift 0), the block table VPBN-keyed.  These
  // are the only crossings from Vpn to the raw keys LookupKey/RemoveKey take.
  std::uint64_t BaseKeyOf(Vpn vpn) const { return vpn.raw(); }
  // cpt-lint: allow(raw-address-param): the sanctioned key crossing above.
  std::uint64_t BlockKeyOf(Vpn vpn) const { return vpn.raw() >> block_shift_; }

  Options opts_;
  unsigned block_shift_;
  HashedPageTable base_;
  HashedPageTable block_;
};

class SuperpageIndexHashed final : public PageTable {
 public:
  struct Options {
    std::uint32_t num_buckets = kDefaultHashBuckets;
    unsigned subblock_factor = kDefaultSubblockFactor;  // The hash index size.
    HashKind hash_kind = HashKind::kMix;
    mem::NodePlacement placement = mem::NodePlacement::kLineAligned;
  };

  SuperpageIndexHashed(mem::CacheTouchModel& cache, Options opts);

  [[nodiscard]] CPT_HOT std::optional<TlbFill> Lookup(VirtAddr va) override;
  void InsertBase(Vpn vpn, Ppn ppn, Attr attr) override;
  bool RemoveBase(Vpn vpn) override;
  PtFeatures features() const override { return {.superpages = true, .partial_subblock = true}; }
  void InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) override;
  bool RemoveSuperpage(Vpn base_vpn, PageSize size) override;
  void UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor, Ppn block_base_ppn,
                             Attr attr, std::uint16_t valid_vector) override;
  bool RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) override;
  CPT_HOT bool UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                               std::uint16_t clear_mask) override;
  std::uint64_t ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) override;
  std::uint64_t SizeBytesPaperModel() const override;
  std::uint64_t SizeBytesActual() const override;
  std::uint64_t live_translations() const override;
  std::string name() const override { return "hashed-spindex"; }

  Histogram ChainLengthHistogram() const;

  // ---- Invariant auditing (src/check) ----
  unsigned block_shift() const { return block_shift_; }
  std::uint64_t node_count() const { return live_nodes_; }
  std::uint32_t BucketOfVpn(Vpn vpn) const { return hasher_(BlockKeyOf(vpn)); }
  void AuditVisit(check::PtAuditVisitor& visitor) const;

 private:
  friend class check::TestBackdoor;

  static constexpr std::int32_t kNil = -1;

  // Hash keys deliberately erase the domain: every node — base, superpage,
  // or partial-subblock — hashes by its page-block number so one probe finds
  // them all.  This is the only crossing from Vpn to a raw hash key.
  // cpt-lint: allow(raw-address-param)
  std::uint64_t BlockKeyOf(Vpn vpn) const { return vpn.raw() >> block_shift_; }

  // A node tagged by the exact range it covers; hashed by page block.
  struct Node {
    Vpn base_vpn{};
    unsigned pages_log2 = 0;
    AtomicMappingWord word{};
    std::int32_t next = kNil;
    PhysAddr addr{};
  };
  // The paper model charges a prefix of this host struct (its mapping
  // words); the host struct must not silently grow.
  static_assert(sizeof(Node) == 40 && alignof(Node) == 8);

  std::int32_t* FindLink(Vpn base_vpn, unsigned pages_log2, MappingKind kind);
  void Upsert(Vpn base_vpn, unsigned pages_log2, MappingWord word);
  bool Remove(Vpn base_vpn, unsigned pages_log2, MappingKind kind);
  TlbFill FillFrom(const Node& n, MappingWord word) const;
  std::uint64_t TranslationCount(const Node& n) const;

  // Embedded bucket-head addressing (see HashedPageTable::BucketAddr).
  PhysAddr BucketAddr(std::uint32_t b) const { return bucket_base_ + b * 32; }

  Options opts_;
  unsigned block_shift_;
  BucketHasher hasher_;
  mem::SimAllocator alloc_;
  PhysAddr bucket_base_{};
  std::vector<Node> arena_;
  std::vector<std::int32_t> free_nodes_;
  std::vector<std::int32_t> buckets_;
  std::uint64_t live_nodes_ = 0;
  std::uint64_t live_translations_ = 0;
};

}  // namespace cpt::pt

#endif  // CPT_PT_MULTI_HASHED_H_
