// Clustered page table — the paper's central contribution (Sections 3 & 5).
//
// A hashed page table augmented with subblocking: each hash node stores one
// VPBN tag and one next pointer for an aligned group of `subblock_factor`
// consecutive base pages (a page block).  Node formats (Figure 7):
//
//   base node (complete-subblock PTE):  [tag][next][map0][map1]...[map s-1]
//   partial-subblock PTE:               [tag][next][psb word]
//   superpage PTE (block-sized):        [tag][next][superpage word]
//   sub-size superpage node:            [tag][next][word0]...[word s/2^SZ-1]
//
// All formats co-reside on the same hash chains, discriminated by the S
// field of the first mapping word (Figure 8): the TLB miss handler walks the
// chain exactly as for a hashed table and only differs when reading the
// mapping.  A tag match whose word does not cover the faulting page
// continues down the chain, which lets one page block mix formats across
// several nodes (e.g. one 8KB superpage plus two 4KB base pages in a 16KB
// block, Section 5).
//
// Size accounting (Table 2): a base node costs 8s + 16 bytes, a compact
// (superpage or PSB) node 24 bytes, and a sub-size node 16 + 8 * (s >> SZ).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "check/fwd.h"
#include "common/hotpath.h"
#include "common/pte.h"
#include "common/stats.h"
#include "common/types.h"
#include "pt/chain.h"
#include "pt/page_table.h"

namespace cpt::core {

inline constexpr unsigned kMaxClusteredFactor = 64;

struct ClusteredNode {
  Vpbn tag{};
  std::uint8_t sub_log2 = 0;  // log2 base pages covered per word.
  std::int32_t next = pt::kChainEnd;
  PhysAddr addr{};
  std::array<AtomicMappingWord, kMaxClusteredFactor> words{};
};
// The paper-model NodeBytes() charges a *used* prefix of this worst-case
// host struct; the host struct must not silently grow.
static_assert(sizeof(ClusteredNode) == 536 && alignof(ClusteredNode) == 8);

class ClusteredPageTable final : public pt::ChainArena<ClusteredNode> {
 public:
  struct Options {
    std::uint32_t num_buckets = kDefaultHashBuckets;
    unsigned subblock_factor = kDefaultSubblockFactor;  // Power of two, <= 64.
  };

  ClusteredPageTable(mem::CacheTouchModel& cache, Options opts);
  ~ClusteredPageTable() override;

  // ---- PageTable interface ----
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

  // ---- Clustered-specific operations ----

  // True when every base page of the block holds a valid base mapping and
  // the physical frames are properly placed — the incremental-promotion
  // check Section 5 describes (the OS may then promote to a superpage PTE).
  bool BlockReadyForPromotion(Vpbn vpbn) const;

  // ---- Introspection ----
  unsigned subblock_factor() const { return factor_; }
  Histogram BlockOccupancyHistogram() const;  // Valid base mappings per base node.

  void AuditVisit(check::PtAuditVisitor& visitor) const override;

 private:
  // Paper-model node format (Figure 7): an 8-byte VPBN tag and an 8-byte
  // next pointer, then one mapping word per covered unit.
  static constexpr std::uint64_t kHeaderBytes = 16;
  static_assert(kHeaderBytes + kWordBytes <= kDefaultCacheLineSize,
                "a node's header and first word must share one line");

  unsigned WordsInNode(unsigned sub_log2) const { return factor_ >> sub_log2; }
  std::uint64_t NodeBytes(unsigned sub_log2) const {
    return kHeaderBytes + kWordBytes * WordsInNode(sub_log2);
  }

  // Base pages one word of a node with 2^sub_log2 pages per word translates.
  std::uint64_t WordTranslations(MappingWord w, unsigned sub_log2) const;
  // Base pages this node currently translates.  Only whole-node unlinks
  // (and the auditor) recount a node; every single-word write goes through
  // StoreWord.
  std::uint64_t NodeTranslations(const ClusteredNode& n) const;
  // Stores `w` at `word_idx`, adjusting live_translations_ by the word it
  // replaces.
  void StoreWord(ClusteredNode& n, unsigned word_idx, MappingWord w);
  bool NodeEmpty(const ClusteredNode& n) const;

  // The node of block `tag` with 2^sub_log2 pages per word whose first word
  // has format `kind0`: a format is the node's identity on a shared chain.
  static auto NodeMatch(Vpbn tag, unsigned sub_log2, MappingKind kind0) {
    return [=](const ClusteredNode& n) {
      return n.tag == tag && n.sub_log2 == sub_log2 && n.words[0].load().kind() == kind0;
    };
  }
  std::int32_t* LinkOf(Vpbn tag, unsigned sub_log2, MappingKind kind0) {
    return FindLink(BucketOf(tag), NodeMatch(tag, sub_log2, kind0));
  }
  const ClusteredNode* NodeOf(Vpbn tag, unsigned sub_log2, MappingKind kind0) const {
    return Find(BucketOf(tag), NodeMatch(tag, sub_log2, kind0));
  }
  ClusteredNode& GetOrCreateNode(Vpbn tag, unsigned sub_log2, MappingKind kind0);
  // Unlinks a node after settling the translations it held.
  void RemoveNode(std::int32_t* link);
  pt::TlbFill FillFromNode(const ClusteredNode& n, unsigned word_idx) const;
  // The one match of Lookup and UpdateAttrFlags: the fill node `n` holds
  // for the page at block offset `boff` of block `vpbn`, or nullopt on a
  // tag mismatch.
  std::optional<pt::TlbFill> Match(const ClusteredNode& n, Vpbn vpbn, unsigned boff) const;

  unsigned factor_;
  unsigned block_log2_;
};

}  // namespace cpt::core
