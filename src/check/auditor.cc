#include "check/auditor.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "check/audit_visitor.h"
#include "common/pte.h"
#include "common/types.h"
#include "core/adaptive.h"
#include "core/clustered.h"
#include "core/multi_size.h"
#include "mem/reservation.h"
#include "pt/forward.h"
#include "pt/hashed.h"
#include "pt/linear.h"
#include "pt/multi_hashed.h"
#include "pt/software_tlb.h"
#include "tlb/complete_subblock.h"
#include "tlb/dual_size_setassoc.h"
#include "tlb/partial_subblock.h"
#include "tlb/single_page.h"
#include "tlb/superpage.h"

namespace cpt::check {

void AuditReport::Merge(const AuditReport& other, std::string_view prefix) {
  for (const std::string& d : other.defects) {
    std::string merged(prefix);
    merged += ": ";
    merged += d;
    defects.push_back(std::move(merged));
  }
}

std::string AuditReport::Summary() const {
  std::string out;
  for (const std::string& d : defects) {
    if (!out.empty()) {
      out += '\n';
    }
    out += d;
  }
  return out;
}

namespace {

std::string Str(std::uint64_t v) { return std::to_string(v); }
// Diagnostic formatting is a sanctioned serialization boundary: report
// strings carry the raw frame number.
std::string Str(Ppn ppn) { return std::to_string(ppn.raw()); }

// One collected node: the view metadata plus a copy of its word array (the
// view's `words` pointer is only valid during the walk).
struct CollectedNode {
  PtNodeView meta;
  std::vector<MappingWord> words;
};

class NodeCollector final : public PtAuditVisitor {
 public:
  void OnNode(const PtNodeView& node) override {
    CollectedNode cn;
    cn.meta = node;
    cn.words.reserve(node.num_words);
    for (unsigned i = 0; i < node.num_words; ++i) {
      cn.words.push_back(node.words[i].load());
    }
    cn.meta.words = nullptr;
    nodes.push_back(std::move(cn));
  }
  void OnChainCycle(std::uint32_t bucket) override { cycles.push_back(bucket); }

  std::vector<CollectedNode> nodes;
  std::vector<std::uint32_t> cycles;
};

// Tracks which base pages are covered by a valid translation, to catch two
// nodes translating the same page.
class CoverageMap {
 public:
  void Add(Vpn vpn) {
    if (++count_[vpn] == 2 && examples_.size() < 4) {
      examples_.push_back(vpn);
    }
  }
  void Report(AuditReport& report) const {
    std::uint64_t dups = 0;
    for (const auto& [vpn, n] : count_) {
      if (n > 1) {
        ++dups;
      }
    }
    if (dups == 0) {
      return;
    }
    std::ostringstream os;
    os << dups << " base page(s) covered by more than one valid mapping; e.g. vpn";
    for (const Vpn vpn : examples_) {
      os << " 0x" << std::hex << vpn;
    }
    report.Add(os.str());
  }

 private:
  std::unordered_map<Vpn, unsigned> count_;
  std::vector<Vpn> examples_;
};

struct WordCheckParams {
  unsigned psb_factor = 16;      // Pages per partial-subblock valid vector.
  bool uniform_kind = false;     // Multi-word nodes must not mix formats.
  bool check_nonempty = false;   // Chain nodes must translate >= 1 page
                                 // (empty PSB nodes tolerated).
  bool superpage_full_claim = false;  // Org counts a superpage word's full
                                      // 2^SZ pages even beyond its slot.
};

std::string NodeId(const CollectedNode& cn) {
  std::ostringstream os;
  os << "node tag=0x" << std::hex << cn.meta.tag << " base_vpn=0x" << cn.meta.base_vpn
     << std::dec << " bucket=" << cn.meta.bucket;
  return os.str();
}

// Verifies one node's mapping words (format discrimination, alignment, PSB
// vector bounds), adds its valid translations to `coverage`, and returns how
// many base pages the node translates under the organization's own counting
// rules.
std::uint64_t CheckNodeWords(const CollectedNode& cn, const WordCheckParams& p,
                             CoverageMap& coverage, AuditReport& report) {
  const PtNodeView& m = cn.meta;
  const std::uint64_t span = std::uint64_t{1} << m.sub_log2;
  std::uint64_t translations = 0;
  bool have_kind = false;
  MappingKind kind0 = MappingKind::kBase;
  bool any_valid = false;

  for (unsigned i = 0; i < cn.words.size(); ++i) {
    const MappingWord& w = cn.words[i];
    const Vpn slot_base = m.base_vpn + std::uint64_t{i} * span;
    switch (w.kind()) {
      case MappingKind::kBase:
        if (!w.valid()) {
          continue;  // Empty slot.
        }
        if (span > 1) {
          report.Add(NodeId(cn) + ": base word in a slot spanning " + Str(span) + " pages");
        }
        coverage.Add(slot_base);
        ++translations;
        break;
      case MappingKind::kSuperpage: {
        if (!w.valid()) {
          continue;  // Empty slot of a sub-size node.
        }
        const unsigned sz = w.page_size().size_log2;
        const std::uint64_t claim = std::uint64_t{1} << sz;
        // Hashed tables (superpage_full_claim) store one node per superpage:
        // the word's own 2^SZ-page claim is the coverage, and claims smaller
        // than the keying span are legitimate (an 8KB superpage in a
        // block-keyed table).  Clustered-family tables instead store replica
        // slices: every slot of span 2^S is covered by its word, and a word
        // claiming less than its slot would leave pages untranslated.
        if (claim < span && !p.superpage_full_claim) {
          report.Add(NodeId(cn) + ": superpage word (SZ=" + Str(sz) +
                     ") smaller than its slot span " + Str(span));
        }
        if (!IsSuperpageAligned(w.ppn(), PageSize{sz})) {
          report.Add(NodeId(cn) + ": superpage PPN " + Str(w.ppn()) + " not aligned to 2^" +
                     Str(sz) + " pages");
        }
        const std::uint64_t cover = p.superpage_full_claim ? claim : span;
        for (std::uint64_t j = 0; j < cover; ++j) {
          coverage.Add(slot_base + j);
        }
        translations += cover;
        break;
      }
      case MappingKind::kPartialSubblock: {
        const unsigned factor = p.psb_factor;
        const std::uint64_t mask =
            factor >= 16 ? 0xFFFFu : ((std::uint64_t{1} << factor) - 1);
        const std::uint16_t vec = w.valid_vector();
        if ((vec & ~mask) != 0) {
          report.Add(NodeId(cn) + ": PSB valid bits beyond subblock factor " + Str(factor));
        }
        if (vec != 0 && !IsSuperpageAligned(w.ppn(), PageSize{Log2(factor)})) {
          report.Add(NodeId(cn) + ": PSB block PPN " + Str(w.ppn()) +
                     " not aligned to factor " + Str(factor));
        }
        if (vec == 0) {
          continue;  // Empty PSB word.
        }
        const Vpn block_base = SuperpageBaseVpn(slot_base, PageSize{Log2(factor)});
        for (unsigned j = 0; j < factor; ++j) {
          const Vpn page = block_base + j;
          if (((vec >> j) & 1u) != 0 && page >= slot_base && page < slot_base + span) {
            coverage.Add(page);
            ++translations;
          }
        }
        break;
      }
    }
    // The word provided at least one translation; enforce one format per
    // multi-word node (the S-field discrimination).
    any_valid = true;
    if (!have_kind) {
      have_kind = true;
      kind0 = w.kind();
    } else if (p.uniform_kind && w.kind() != kind0) {
      report.Add(NodeId(cn) + ": mixed mapping formats within one node");
    }
  }

  if (p.check_nonempty && !any_valid &&
      (cn.words.empty() || cn.words[0].kind() != MappingKind::kPartialSubblock)) {
    report.Add(NodeId(cn) + ": live node translates nothing");
  }
  return translations;
}

// What the audit of a chained table expects beyond its words' own checks.
struct ChainRules {
  WordCheckParams words;
  unsigned tag_shift = 0;     // Invariant: tag == base_vpn >> tag_shift.
  bool paper_bytes = false;   // Recount the paper size as 16 + 8 * words per node.
};

// Clustered and adaptive tables key by VPBN and keep one format per node.
// (An adaptive single-page node's base VPN carries its block offset, which
// the tag shift drops.)
template <typename Table>
ChainRules RulesFor(const Table& table) {
  return {.words = {.psb_factor = table.subblock_factor(),
                    .uniform_kind = true,
                    .check_nonempty = true},
          .tag_shift = Log2(table.subblock_factor()),
          .paper_bytes = true};
}
ChainRules RulesFor(const pt::HashedPageTable& table) {
  // A hashed superpage word claims its full 2^SZ pages (TranslationsOf); a
  // PSB word is one key span.
  return {.words = {.psb_factor = 1u << table.tag_shift(), .superpage_full_claim = true},
          .tag_shift = table.tag_shift()};
}

// The one audit of a pt::ChainArena table: bucket membership, tags, cycles,
// each node's words, duplicate coverage and the table's own counters.
template <typename Table>
AuditReport AuditChains(const Table& table) {
  const ChainRules rules = RulesFor(table);
  NodeCollector c;
  table.AuditVisit(c);
  AuditReport report;
  CoverageMap coverage;
  for (const std::uint32_t b : c.cycles) {
    report.Add("hash chain at bucket " + Str(b) + " is cyclic or has an out-of-range index");
  }
  std::uint64_t translations = 0;
  std::uint64_t bytes = 0;
  for (const CollectedNode& cn : c.nodes) {
    const std::uint32_t bucket = table.BucketOf(cn.meta.tag);
    if (bucket != cn.meta.bucket) {
      report.Add(NodeId(cn) + ": hangs on bucket " + Str(cn.meta.bucket) +
                 " but its tag hashes to bucket " + Str(bucket));
    }
    // View tags are domain-erased chain keys; recompute the key the same way.
    if ((cn.meta.base_vpn.raw() >> rules.tag_shift) != cn.meta.tag) {
      report.Add(NodeId(cn) + ": tag inconsistent with base VPN (misaligned tag)");
    }
    translations += CheckNodeWords(cn, rules.words, coverage, report);
    bytes += 16 + 8ull * cn.words.size();
  }
  if (c.nodes.size() != table.node_count()) {
    report.Add("walk saw " + Str(c.nodes.size()) + " nodes but the table counts " +
               Str(table.node_count()));
  }
  if (translations != table.live_translations()) {
    report.Add("walk recounted " + Str(translations) + " translations but the table counts " +
               Str(table.live_translations()));
  }
  if (rules.paper_bytes && bytes != table.SizeBytesPaperModel()) {
    report.Add("walk recounted " + Str(bytes) + " paper-model bytes but the table counts " +
               Str(table.SizeBytesPaperModel()));
  }
  coverage.Report(report);
  return report;
}

}  // namespace

AuditReport StructuralAuditor::Audit(const core::ClusteredPageTable& table) {
  return AuditChains(table);
}

AuditReport StructuralAuditor::Audit(const core::AdaptiveClusteredPageTable& table) {
  return AuditChains(table);
}

AuditReport StructuralAuditor::Audit(const pt::HashedPageTable& table) {
  return AuditChains(table);
}

AuditReport StructuralAuditor::Audit(const pt::MultiTableHashed& table) {
  AuditReport report;
  report.Merge(Audit(table.base_table()), "base table");
  report.Merge(Audit(table.block_table()), "block table");
  // Cross-table duplicate coverage: the OS keeps the two tables disjoint
  // (PSB vector bits for placed pages, base PTEs for the rest).
  CoverageMap coverage;
  AuditReport scratch;  // Per-table defects were already reported above.
  for (const pt::HashedPageTable* t : {&table.base_table(), &table.block_table()}) {
    NodeCollector c;
    t->AuditVisit(c);
    const WordCheckParams wcp = RulesFor(*t).words;
    for (const CollectedNode& cn : c.nodes) {
      CheckNodeWords(cn, wcp, coverage, scratch);
    }
  }
  coverage.Report(report);
  return report;
}

namespace {

// The linear and forward-mapped trees: Replicate-PTE leaves (bucket 1) whose
// `index` carries the live-slot counter, plus, in forward-mapped tables,
// intermediate-superpage words whose `bucket` is their level.  Level l's
// node prefix is the VPN above the bits levels 1..l consume, so the prefixes
// the walked nodes imply must match the table's per-level node counts.
template <typename Table>
AuditReport AuditLeafTree(const Table& table) {
  std::array<unsigned, Table::kNumLevels + 1> prefix_shift{};
  for (unsigned level = 1; level <= Table::kNumLevels; ++level) {
    prefix_shift[level] = prefix_shift[level - 1] + Table::kLevelBits[level - 1];
  }
  NodeCollector c;
  table.AuditVisit(c);
  AuditReport report;
  CoverageMap coverage;
  WordCheckParams wcp;  // Leaves mix formats (Replicate-PTEs); all defaults.
  std::uint64_t translations = 0;
  std::uint64_t leaves = 0;
  std::array<std::unordered_set<std::uint64_t>, Table::kNumLevels + 1> prefixes;
  for (const CollectedNode& cn : c.nodes) {
    translations += CheckNodeWords(cn, wcp, coverage, report);
    const unsigned level = cn.meta.bucket;
    if (level == 1) {
      ++leaves;
      unsigned occupied = 0;
      for (const MappingWord& w : cn.words) {
        if (w != MappingWord::Invalid()) {
          ++occupied;
        }
      }
      if (occupied != static_cast<unsigned>(cn.meta.index)) {
        report.Add(NodeId(cn) + ": leaf live counter " + Str(cn.meta.index) + " but " +
                   Str(occupied) + " occupied slots");
      }
    }
    // Every node keeps its ancestors alive.  Tree prefixes are domain-erased
    // keys.
    for (unsigned l = std::max(level, 2u); l <= Table::kNumLevels; ++l) {
      prefixes[l].insert(cn.meta.base_vpn.raw() >> prefix_shift[l]);
    }
  }
  // Replicate-PTE slots are distinct VPNs, so duplicate coverage here always
  // means corruption.
  coverage.Report(report);
  if (translations != table.live_translations()) {
    report.Add("walk recounted " + Str(translations) + " translations but the table counts " +
               Str(table.live_translations()));
  }
  const auto counts = table.ActiveNodesPerLevel();
  if (counts[0] != leaves) {
    report.Add("table counts " + Str(counts[0]) + " leaves but the walk saw " + Str(leaves));
  }
  for (unsigned level = 2; level <= Table::kNumLevels; ++level) {
    if (counts[level - 1] != prefixes[level].size()) {
      report.Add("level " + Str(level) + " counts " + Str(counts[level - 1]) +
                 " active nodes; the walked nodes imply " + Str(prefixes[level].size()));
    }
  }
  return report;
}

}  // namespace

AuditReport StructuralAuditor::Audit(const pt::LinearPageTable& table) {
  return AuditLeafTree(table);
}

AuditReport StructuralAuditor::Audit(const pt::ForwardMappedPageTable& table) {
  return AuditLeafTree(table);
}

AuditReport StructuralAuditor::AuditPageTable(const pt::PageTable& table) {
  if (const auto* t = dynamic_cast<const pt::SoftwareTlb*>(&table)) {
    AuditReport report;
    report.Merge(AuditPageTable(t->backing()), "swtlb backing");
    return report;
  }
  if (const auto* t = dynamic_cast<const core::ClusteredPageTable*>(&table)) {
    return Audit(*t);
  }
  if (const auto* t = dynamic_cast<const core::AdaptiveClusteredPageTable*>(&table)) {
    return Audit(*t);
  }
  if (const auto* t = dynamic_cast<const core::MultiSizeClustered*>(&table)) {
    AuditReport report;
    report.Merge(Audit(t->small_table()), "small table");
    report.Merge(Audit(t->large_table()), "large table");
    return report;
  }
  if (const auto* t = dynamic_cast<const pt::MultiTableHashed*>(&table)) {
    return Audit(*t);
  }
  if (const auto* t = dynamic_cast<const pt::HashedPageTable*>(&table)) {
    return Audit(*t);
  }
  if (const auto* t = dynamic_cast<const pt::LinearPageTable*>(&table)) {
    return Audit(*t);
  }
  if (const auto* t = dynamic_cast<const pt::ForwardMappedPageTable*>(&table)) {
    return Audit(*t);
  }
  return AuditReport{};  // Unknown organization: nothing to check.
}

// ---------------------------------------------------------------------------
// TLBs
// ---------------------------------------------------------------------------

namespace {

class EntryCollector final : public TlbAuditVisitor {
 public:
  void OnEntry(const TlbEntryView& entry) override { entries.push_back(entry); }
  std::vector<TlbEntryView> entries;
};

std::string EntryId(const TlbEntryView& e) {
  std::ostringstream os;
  os << "entry asid=" << e.asid << " base_vpn=0x" << std::hex << e.base_vpn;
  return os.str();
}

void CheckNoDuplicateTags(const std::vector<TlbEntryView>& entries, AuditReport& report) {
  std::unordered_set<std::uint64_t> seen;
  for (const TlbEntryView& e : entries) {
    if (!e.valid) {
      continue;
    }
    // Tag identity: (asid, base_vpn, block form).  Hash them together; the
    // VPN occupies at most 52 bits.
    const std::uint64_t key =
        (e.base_vpn.raw() << 1 | (e.block_entry ? 1u : 0u)) ^ (std::uint64_t{e.asid} << 54);
    if (!seen.insert(key).second) {
      report.Add(EntryId(e) + ": duplicate TLB tag");
    }
  }
}

}  // namespace

AuditReport StructuralAuditor::AuditTlb(const tlb::Tlb& t) {
  AuditReport report;
  EntryCollector c;
  if (const auto* tlb = dynamic_cast<const tlb::SinglePageTlb*>(&t)) {
    tlb->AuditVisit(c);
    CheckNoDuplicateTags(c.entries, report);
    return report;
  }
  if (const auto* tlb = dynamic_cast<const tlb::SuperpageTlb*>(&t)) {
    tlb->AuditVisit(c);
    for (const TlbEntryView& e : c.entries) {
      if (!e.valid) {
        continue;
      }
      const PageSize size{e.pages_log2};
      if (!IsSuperpageAligned(e.base_vpn, size)) {
        report.Add(EntryId(e) + ": VPN not aligned to its 2^" + Str(e.pages_log2) +
                   "-page size");
      }
      if (!IsSuperpageAligned(e.base_ppn, size)) {
        report.Add(EntryId(e) + ": PPN not aligned to its 2^" + Str(e.pages_log2) +
                   "-page size");
      }
    }
    // No overlap check: without TLB shootdown, stale-but-consistent entries
    // may legitimately overlap newer ones.
    return report;
  }
  if (const auto* tlb = dynamic_cast<const tlb::PartialSubblockTlb*>(&t)) {
    tlb->AuditVisit(c);
    const unsigned factor = tlb->subblock_factor();
    const std::uint64_t mask =
        factor >= 16 ? 0xFFFFu : ((std::uint64_t{1} << factor) - 1);
    for (const TlbEntryView& e : c.entries) {
      if (!e.valid || !e.block_entry) {
        continue;
      }
      if ((e.valid_vector & ~mask) != 0) {
        report.Add(EntryId(e) + ": valid bits beyond subblock factor " + Str(factor));
      }
      if (e.valid_vector == 0) {
        report.Add(EntryId(e) + ": block entry with empty valid vector");
      }
      if (!IsSuperpageAligned(e.base_ppn, PageSize{Log2(factor)})) {
        report.Add(EntryId(e) + ": block PPN not aligned to factor " + Str(factor));
      }
      if (BoffOf(e.base_vpn, factor) != 0) {
        report.Add(EntryId(e) + ": block VPN not aligned to factor " + Str(factor));
      }
    }
    CheckNoDuplicateTags(c.entries, report);
    return report;
  }
  if (const auto* tlb = dynamic_cast<const tlb::CompleteSubblockTlb*>(&t)) {
    tlb->AuditVisit(c);
    const unsigned factor = tlb->subblock_factor();
    const std::uint64_t mask =
        factor >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << factor) - 1);
    for (const TlbEntryView& e : c.entries) {
      if (!e.valid) {
        continue;
      }
      if ((e.valid_vector & ~mask) != 0) {
        report.Add(EntryId(e) + ": valid bits beyond subblock factor " + Str(factor));
      }
      if (BoffOf(e.base_vpn, factor) != 0) {
        report.Add(EntryId(e) + ": block VPN not aligned to factor " + Str(factor));
      }
      if (e.translations.size() !=
          static_cast<std::size_t>(std::popcount(e.valid_vector & mask))) {
        report.Add(EntryId(e) + ": translation count disagrees with the valid vector");
      }
    }
    CheckNoDuplicateTags(c.entries, report);
    return report;
  }
  if (const auto* tlb = dynamic_cast<const tlb::DualSizeSetAssocTlb*>(&t)) {
    tlb->AuditVisit(c);
    const unsigned super_log2 = tlb->superpage_log2();
    std::uint64_t invalid = 0;
    for (const TlbEntryView& e : c.entries) {
      if (!e.valid) {
        ++invalid;
        continue;
      }
      // Recompute the superpage-index set the same way the TLB does.
      const unsigned expected_set =
          static_cast<unsigned>((e.base_vpn.raw() >> super_log2) & (tlb->num_sets() - 1));
      if (e.set != expected_set) {
        report.Add(EntryId(e) + ": stored in set " + Str(e.set) + " but indexes to set " +
                   Str(expected_set));
      }
      if (e.pages_log2 != 0 && e.pages_log2 != super_log2) {
        report.Add(EntryId(e) + ": page size 2^" + Str(e.pages_log2) +
                   " is neither base nor the superpage size");
      }
      const PageSize size{e.pages_log2};
      if (!IsSuperpageAligned(e.base_vpn, size) || !IsSuperpageAligned(e.base_ppn, size)) {
        report.Add(EntryId(e) + ": VPN/PPN not aligned to its page size");
      }
    }
    if (invalid != tlb->invalid_entries()) {
      report.Add("TLB counts " + Str(tlb->invalid_entries()) + " invalid entries but the walk saw " +
                 Str(invalid));
    }
    return report;
  }
  return report;  // Unknown TLB design: nothing to check.
}

// ---------------------------------------------------------------------------
// Reservation allocator
// ---------------------------------------------------------------------------

namespace {

// The allocator's state as its AuditVisit reports it.  A machine's default
// pool (2^22 frames) has 2^18 groups, so the audit keeps per-group state
// compact: each group's state and used mask in arrays sized up front, and an
// owner key for reserved groups only.  AuditVisit reports groups in ascending order, so a group's
// number is its index in `states`.
class ReservationCollector final : public ReservationAuditVisitor {
 public:
  explicit ReservationCollector(std::uint64_t num_groups) {
    states.reserve(num_groups);
    used_masks.reserve(num_groups);
    free_list.reserve(num_groups);
  }
  void OnGroup(const ReservationGroupView& group) override {
    if (group.state == GroupStateView::kReserved) {
      reserved.push_back({states.size(), group.owner_key});
    }
    states.push_back(group.state);
    used_masks.push_back(group.used_mask);
  }
  void OnFreeListGroup(std::uint64_t group) override { free_list.push_back(group); }
  void OnFragmentFrame(Ppn ppn) override { fragment_pool.push_back(ppn); }
  void OnGrant(Ppn ppn, std::uint64_t block_key, unsigned boff, bool properly_placed) override {
    grants.push_back({ppn, block_key, boff, properly_placed});
  }

  struct Reservation {
    std::uint64_t group;
    std::uint64_t owner_key;
  };
  struct Grant {
    Ppn ppn;
    std::uint64_t block_key;
    unsigned boff;
    bool properly_placed;
  };

  std::vector<GroupStateView> states;
  std::vector<std::uint32_t> used_masks;
  std::vector<Reservation> reserved;
  std::vector<std::uint64_t> free_list;
  std::vector<Ppn> fragment_pool;
  std::vector<Grant> grants;
};

}  // namespace

AuditReport StructuralAuditor::Audit(const mem::ReservationAllocator& alloc) {
  AuditReport report;
  const unsigned factor = alloc.subblock_factor();
  ReservationCollector c(alloc.num_frames() / factor);
  alloc.AuditVisit(c);
  const std::uint64_t num_groups = c.states.size();

  std::uint64_t used = 0;
  std::uint64_t free_groups = 0;
  for (std::uint64_t g = 0; g < num_groups; ++g) {
    used += std::popcount(c.used_masks[g]);
    switch (c.states[g]) {
      case GroupStateView::kFree:
        ++free_groups;
        if (c.used_masks[g] != 0) {
          report.Add("group " + Str(g) + " is free but has used frames");
        }
        break;
      case GroupStateView::kReserved:
        if (c.used_masks[g] == 0) {
          report.Add("group " + Str(g) + " is reserved but entirely unused");
        }
        break;
      case GroupStateView::kFragmented:
        break;
    }
  }
  if (used != alloc.frames_used()) {
    report.Add("group masks account for " + Str(used) + " used frames but the allocator counts " +
               Str(alloc.frames_used()));
  }

  // A reservation belongs to one virtual block: no two reserved groups
  // share an owner key.  `reserved` is in group order, which the stable
  // sort keeps among equal keys.
  std::stable_sort(c.reserved.begin(), c.reserved.end(),
                   [](const ReservationCollector::Reservation& x,
                      const ReservationCollector::Reservation& y) {
                     return x.owner_key < y.owner_key;
                   });
  for (std::size_t i = 1; i < c.reserved.size(); ++i) {
    if (c.reserved[i].owner_key == c.reserved[i - 1].owner_key) {
      report.Add("groups " + Str(c.reserved[i - 1].group) + " and " + Str(c.reserved[i].group) +
                 " are both reserved for owner " + Str(c.reserved[i].owner_key));
    }
  }

  // Free list: exact, duplicate-free, and only kFree groups.  A bit per
  // group marks the entries seen; entries past the last group, which only a
  // corrupt list holds, go in a set.
  std::vector<bool> on_free_list(num_groups);
  std::unordered_set<std::uint64_t> out_of_range;
  std::uint64_t free_listed = 0;
  for (const std::uint64_t g : c.free_list) {
    const bool in_range = g < num_groups;
    if (in_range ? on_free_list[g] : !out_of_range.insert(g).second) {
      report.Add("group " + Str(g) + " appears twice on the free list");
      continue;
    }
    if (in_range) {
      on_free_list[g] = true;
    }
    ++free_listed;
    if (!in_range || c.states[g] != GroupStateView::kFree) {
      report.Add("free list holds group " + Str(g) + " which is not free");
    }
  }
  if (free_listed != free_groups) {
    report.Add("free list holds " + Str(free_listed) + " groups but " + Str(free_groups) +
               " groups are free");
  }

  // Fragment pool entries may be stale (documented); only range-check them.
  for (const Ppn ppn : c.fragment_pool) {
    if (ppn.raw() >= alloc.num_frames()) {
      report.Add("fragment pool holds out-of-range frame " + Str(ppn));
    }
  }

  if (alloc.grant_log_enabled()) {
    for (const ReservationCollector::Grant& g : c.grants) {
      // Frame-group arithmetic unwraps the PPN, mirroring the allocator.
      const std::uint64_t group = g.ppn.raw() / factor;
      const unsigned slot = static_cast<unsigned>(g.ppn.raw() % factor);
      const std::uint32_t bit = 1u << slot;
      if (group >= num_groups || (c.used_masks[group] & bit) == 0) {
        report.Add("granted frame " + Str(g.ppn) + " is not marked used in its group");
      }
      if (g.properly_placed && slot != g.boff) {
        report.Add("grant for boff " + Str(g.boff) + " claims proper placement but sits at frame " +
                   Str(g.ppn));
      }
    }
    if (c.grants.size() != alloc.frames_used()) {
      report.Add("grant log holds " + Str(c.grants.size()) + " frames but the allocator counts " +
                 Str(alloc.frames_used()) + " used");
    }
  }
  return report;
}

}  // namespace cpt::check
