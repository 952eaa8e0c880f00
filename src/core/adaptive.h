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
// Blocks start with single-page nodes; when occupancy reaches
// kPromoteOccupancy, the singles migrate into one array node (and migrate
// back at kDemoteOccupancy).  The TLB miss handler pays only "a few
// extra instructions" (Section 3): chains carry at most a handful of
// single-page nodes per block, discriminated by the word's S field exactly
// like the other clustered formats.
//
// Superpage/PSB PTEs work as in ClusteredPageTable (compact nodes).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "check/fwd.h"
#include "common/hotpath.h"
#include "common/pte.h"
#include "common/types.h"
#include "pt/chain.h"
#include "pt/page_table.h"

namespace cpt::core {

struct AdaptiveNode {
  enum class Kind : std::uint8_t {
    kSingle,     // One base page: tag + boff + one word.
    kArray,      // Full base array.
    kSuperpage,  // Compact block-sized (or replica of larger) superpage.
    kPsb,        // Compact partial-subblock word.
  };

  Vpbn tag{};
  Kind kind = Kind::kSingle;
  std::uint8_t boff = 0;  // kSingle only.
  std::int32_t next = pt::kChainEnd;
  PhysAddr addr{};
  std::vector<AtomicMappingWord> words;  // 1 (single/compact) or factor (array).
};
// The paper-model NodeBytes() charges a prefix of this host struct (the
// words live behind the vector); the host struct must not silently grow.
static_assert(sizeof(AdaptiveNode) == 48 && alignof(AdaptiveNode) == 8);

class AdaptiveClusteredPageTable final : public pt::ChainArena<AdaptiveNode> {
 public:
  struct Options {
    std::uint32_t num_buckets = kDefaultHashBuckets;
    unsigned subblock_factor = kDefaultSubblockFactor;
  };

  // Occupancy at which a block's single-page nodes merge into one array
  // node.  Break-even versus 24-byte singles is (8s+16)/24 ~ s/3 + 1.
  static constexpr unsigned kPromoteOccupancy = 6;
  // Occupancy at which an array node splits back (hysteresis).
  static constexpr unsigned kDemoteOccupancy = 3;
  static_assert(kDemoteOccupancy < kPromoteOccupancy);

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
  CPT_HOT std::optional<Attr> UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                              std::uint16_t clear_mask) override;
  std::uint64_t ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) override;
  std::string name() const override;
  void AuditVisit(check::PtAuditVisitor& visitor) const override;

  std::uint64_t promotions() const { return promotions_; }
  std::uint64_t demotions() const { return demotions_; }

 private:
  using NodeKind = AdaptiveNode::Kind;
  static constexpr unsigned kMaxFactor = 64;

  // Paper-model node formats: an 8-byte tag (with boff for single-page
  // nodes) and an 8-byte next pointer, then `factor_` words for an array
  // node or one word for every compact node.
  static constexpr std::uint64_t kHeaderBytes = 16;
  static_assert(kHeaderBytes + kWordBytes <= kDefaultCacheLineSize,
                "a node's header and first word must share one line");

  std::uint64_t NodeBytes(NodeKind kind) const {
    return kind == NodeKind::kArray ? kHeaderBytes + kWordBytes * factor_
                                    : kHeaderBytes + kWordBytes;
  }
  std::uint64_t WordTranslations(const MappingWord& w) const;
  // Only whole-node unlinks and promote/demote recount a node; every
  // single-word write goes through StoreWord.
  std::uint64_t NodeTranslations(const AdaptiveNode& n) const;
  // Stores `w` in `slot`, adjusting live_translations_ by the word it
  // replaces.
  void StoreWord(AtomicMappingWord& slot, MappingWord w);

  // The block's node of compact `kind` (superpage or PSB), if any.
  static auto KindMatch(Vpbn tag, NodeKind kind) {
    return [=](const AdaptiveNode& n) { return n.tag == tag && n.kind == kind; };
  }
  // A new node of block `tag` on its bucket `b`.
  AdaptiveNode& NewNode(std::uint32_t b, Vpbn tag, NodeKind kind, unsigned nwords);
  // Unlinks a node after settling the translations it held.
  void RemoveNode(std::int32_t* link);
  // Counts base pages mapped for the block across single + array nodes.
  unsigned BlockBaseOccupancy(Vpbn tag) const;
  void PromoteToArray(Vpbn tag);
  void DemoteToSingles(Vpbn tag);
  pt::TlbFill FillFromWord(const AdaptiveNode& n, unsigned boff) const;
  // The one match of Lookup and UpdateAttrFlags: the fill node `n` holds
  // for the page at block offset `boff` of block `vpbn`, or nullopt on a
  // tag mismatch.
  std::optional<pt::TlbFill> Match(const AdaptiveNode& n, Vpbn vpbn, unsigned boff) const;

  unsigned factor_;
  unsigned block_log2_;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
};

}  // namespace cpt::core
