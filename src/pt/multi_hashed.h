// The "Multiple Page Tables" strategy for superpage and partial-subblock
// PTEs in hashed page tables (Section 4.2), the one the paper's evaluation
// assumes for hashed tables (Section 6.1): one hashed table keyed by base
// VPN for 4KB PTEs and a second keyed by page block for superpage/partial-
// subblock PTEs.  A TLB miss probes them in a configurable order (base-first
// by default, as in Figure 11b/c; Section 6.3 notes that block-first would be
// better for PSB-heavy workloads).  A miss that is satisfied by the second
// table pays for both searches — the source of the hashed tables' poor
// Figure 11b/c results.
//
// The other Section 4.2 strategy, "Superpage-Index Hashed", needs no class
// of its own: it is one block-keyed HashedPageTable holding every PTE.
#pragma once

#include <cstdint>
#include <optional>

#include "check/fwd.h"
#include "common/hotpath.h"
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
  // Each constituent under its own header.
  void AuditVisit(check::PtAuditVisitor& visitor) const override;

  HashedPageTable& base_table() { return base_; }
  HashedPageTable& block_table() { return block_; }
  const HashedPageTable& base_table() const { return base_; }
  const HashedPageTable& block_table() const { return block_; }

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

}  // namespace cpt::pt
