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
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "check/fwd.h"
#include "common/hotpath.h"
#include "pt/chain.h"
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
  CPT_HOT std::optional<Attr> UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
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
  // The constituent tables in the configured search order: Lookup and
  // UpdateAttrFlags both probe `first`, then `second`.
  struct Order {
    HashedPageTable* first;
    HashedPageTable* second;
  };
  Order InSearchOrder() {
    return opts_.order == SearchOrder::kBlockFirst ? Order{&block_, &base_}
                                                   : Order{&base_, &block_};
  }

  Options opts_;
  HashedPageTable base_;
  HashedPageTable block_;
};

// A node tagged by the exact range it covers; hashed by page block.
struct SpIndexNode {
  Vpn base_vpn{};
  unsigned pages_log2 = 0;
  AtomicMappingWord word{};
  std::int32_t next = kChainEnd;
  PhysAddr addr{};
};
// The paper model charges a prefix of this host struct (its mapping
// words); the host struct must not silently grow.
static_assert(sizeof(SpIndexNode) == 40 && alignof(SpIndexNode) == 8);

class SuperpageIndexHashed final : public ChainArena<SpIndexNode> {
 public:
  struct Options {
    std::uint32_t num_buckets = kDefaultHashBuckets;
    unsigned subblock_factor = kDefaultSubblockFactor;  // The hash index size.
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
  CPT_HOT std::optional<Attr> UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                              std::uint16_t clear_mask) override;
  std::uint64_t ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) override;
  std::string name() const override { return "hashed-spindex"; }

  // ---- Invariant auditing (src/check) ----
  unsigned block_shift() const { return block_shift_; }
  void AuditVisit(check::PtAuditVisitor& visitor) const;

 private:
  // Paper-model node: an 8-byte tag, an 8-byte next pointer and one word.
  static constexpr std::uint64_t kTagNextBytes = 16;
  static constexpr std::uint64_t kNodeBytes = kTagNextBytes + kWordBytes;

  // Hash keys deliberately erase the domain: every node — base, superpage,
  // or partial-subblock — hashes by its page-block number so one probe finds
  // them all.  This is the only crossing from Vpn to a raw hash key.
  // cpt-lint: allow(raw-address-param)
  std::uint64_t BlockKeyOf(Vpn vpn) const { return vpn.raw() >> block_shift_; }

  // The link to the node of exactly this range and format, on bucket `b`.
  std::int32_t* FindNode(std::uint32_t b, Vpn base_vpn, unsigned pages_log2, MappingKind kind);
  void Upsert(Vpn base_vpn, unsigned pages_log2, MappingWord word);
  bool Remove(Vpn base_vpn, unsigned pages_log2, MappingKind kind);
  // The one match of Lookup and UpdateAttrFlags: the fill node `n` holds
  // for `vpn`, or nullopt when its range does not contain vpn's.
  static std::optional<TlbFill> Match(const SpIndexNode& n, Vpn vpn);
  static std::uint64_t TranslationCount(const SpIndexNode& n);

  Options opts_;
  unsigned block_shift_;
};

}  // namespace cpt::pt
