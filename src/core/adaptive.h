// Adaptive clustered page table — Section 3's "varying subblock factors"
// generalization.
//
// A fixed subblock factor wastes space on very sparse blocks: one isolated
// page costs a full 8s+16-byte node.  This variant stores each page block's
// mappings in one of two node formats on the same hash chain:
//
//   - single-page nodes: [VPBN tag + boff][next][word] — 24 bytes, one per
//     isolated mapping (a degenerate subblock factor of 1);
//   - full base-array nodes: the regular clustered format.
//
// Blocks start with single-page nodes; when occupancy crosses
// `promote_occupancy`, the singles migrate into one array node (and migrate
// back below `demote_occupancy`).  The TLB miss handler pays only "a few
// extra instructions" (Section 3): chains carry at most a handful of
// single-page nodes per block, discriminated by the word's S field exactly
// like the other clustered formats.
//
// Superpage/PSB PTEs work as in ClusteredPageTable (compact nodes).
#ifndef CPT_CORE_ADAPTIVE_H_
#define CPT_CORE_ADAPTIVE_H_

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

namespace cpt::core {

class AdaptiveClusteredPageTable final : public pt::PageTable {
 public:
  struct Options {
    std::uint32_t num_buckets = kDefaultHashBuckets;
    unsigned subblock_factor = kDefaultSubblockFactor;
    // Occupancy at which a block's single-page nodes merge into one array
    // node.  Break-even versus 24-byte singles is (8s+16)/24 ~ s/3 + 1.
    unsigned promote_occupancy = 6;
    // Occupancy at which an array node splits back (hysteresis).
    unsigned demote_occupancy = 3;
    HashKind hash_kind = HashKind::kMix;
    mem::NodePlacement placement = mem::NodePlacement::kLineAligned;
  };

  AdaptiveClusteredPageTable(mem::CacheTouchModel& cache, Options opts);
  ~AdaptiveClusteredPageTable() override;

  [[nodiscard]] CPT_HOT std::optional<pt::TlbFill> Lookup(VirtAddr va) override;
  CPT_HOT void LookupBlock(VirtAddr va, unsigned subblock_factor,
                           std::vector<pt::TlbFill>& out) override;
  void InsertBase(Vpn vpn, Ppn ppn, Attr attr) override;
  bool RemoveBase(Vpn vpn) override;
  pt::PtFeatures features() const override {
    return {.superpages = true, .partial_subblock = true, .adjacent_block_fetch = true};
  }
  void InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) override;
  bool RemoveSuperpage(Vpn base_vpn, PageSize size) override;
  void UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor, Ppn block_base_ppn,
                             Attr attr, std::uint16_t valid_vector) override;
  bool RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) override;
  CPT_HOT bool UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                               std::uint16_t clear_mask) override;
  std::uint64_t ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) override;
  std::uint64_t SizeBytesPaperModel() const override { return paper_bytes_; }
  std::uint64_t SizeBytesActual() const override;
  std::uint64_t live_translations() const override { return live_translations_; }
  std::string name() const override;

  std::uint64_t node_count() const { return live_nodes_; }
  std::uint64_t promotions() const { return promotions_; }
  std::uint64_t demotions() const { return demotions_; }
  Histogram ChainLengthHistogram() const;

  // ---- Invariant auditing (src/check) ----
  unsigned subblock_factor() const { return factor_; }
  std::uint32_t BucketOfTag(Vpbn tag) const { return hasher_(tag); }
  void AuditVisit(check::PtAuditVisitor& visitor) const;

 private:
  friend class check::TestBackdoor;

  static constexpr std::int32_t kNil = -1;
  static constexpr unsigned kMaxFactor = 64;

  enum class NodeKind : std::uint8_t {
    kSingle,     // One base page: tag + boff + one word.
    kArray,      // Full base array.
    kSuperpage,  // Compact block-sized (or replica of larger) superpage.
    kPsb,        // Compact partial-subblock word.
  };

  struct Node {
    Vpbn tag{};
    NodeKind kind = NodeKind::kSingle;
    std::uint8_t boff = 0;  // kSingle only.
    std::int32_t next = kNil;
    PhysAddr addr{};
    std::vector<AtomicMappingWord> words;  // 1 (single/compact) or factor (array).
  };
  // The paper-model NodeBytes() below charges a prefix of this host struct
  // (the words live behind the vector); the host struct must not silently
  // grow.
  static_assert(sizeof(Node) == 48 && alignof(Node) == 8);

  // Paper-model node formats: an 8-byte tag (with boff for single-page
  // nodes) and an 8-byte next pointer, then `factor_` words for an array
  // node or one word for every compact node.
  static constexpr std::uint64_t kHeaderBytes = 16;
  static_assert(kHeaderBytes + kWordBytes <= kDefaultCacheLineSize,
                "a node's header and first word must share one line");

  std::uint64_t NodeBytes(const Node& n) const {
    return n.kind == NodeKind::kArray ? kHeaderBytes + kWordBytes * factor_
                                      : kHeaderBytes + kWordBytes;
  }
  std::uint64_t WordTranslations(const MappingWord& w) const;
  // Only whole-node unlinks and promote/demote recount a node; every
  // single-word write goes through StoreWord.
  std::uint64_t NodeTranslations(const Node& n) const;
  // Stores `w` in `slot`, adjusting live_translations_ by the word it
  // replaces.
  void StoreWord(AtomicMappingWord& slot, MappingWord w);

  std::int32_t AllocNode(Vpbn tag, NodeKind kind, unsigned nwords);
  void UnlinkNode(std::int32_t idx);
  std::int32_t* LinkOf(std::int32_t idx);
  // Counts base pages mapped for the block across single + array nodes.
  unsigned BlockBaseOccupancy(Vpbn tag) const;
  void PromoteToArray(Vpbn tag);
  void DemoteToSingles(Vpbn tag);
  pt::TlbFill FillFromWord(const Node& n, unsigned boff) const;
  PhysAddr BucketAddr(std::uint32_t b) const { return bucket_base_ + b * bucket_stride_; }

  Options opts_;
  unsigned factor_;
  unsigned block_log2_;
  BucketHasher hasher_;
  mem::SimAllocator alloc_;
  PhysAddr bucket_base_{};
  std::uint64_t bucket_stride_ = 0;
  std::vector<Node> arena_;
  std::vector<std::int32_t> free_nodes_;
  std::vector<std::int32_t> buckets_;
  std::uint64_t live_nodes_ = 0;
  std::uint64_t live_translations_ = 0;
  std::uint64_t paper_bytes_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
};

}  // namespace cpt::core

#endif  // CPT_CORE_ADAPTIVE_H_
