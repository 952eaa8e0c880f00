#include "check/auditor.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "check/audit_visitor.h"
#include "common/check.h"
#include "common/pte.h"
#include "common/types.h"
#include "mem/reservation.h"
#include "pt/page_table.h"
#include "tlb/tlb.h"

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
    const auto dups = std::count_if(count_.begin(), count_.end(),
                                    [](const auto& vpn_count) { return vpn_count.second > 1; });
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

std::string NodeId(const PtNodeView& n) {
  std::ostringstream os;
  os << "node tag=0x" << std::hex << n.tag << " base_vpn=0x" << n.base_vpn << std::dec
     << " bucket=" << n.bucket;
  return os.str();
}

// The page-table visitor: checks each node against its table's header as
// it arrives, and each table's counters when the next table starts or the
// visit ends.  One coverage map spans every table of the visit.
class PtAuditor final : public PtAuditVisitor {
 public:
  void OnTable(const PtTableView& table) override {
    CPT_CHECK(table.level_nodes.size() == table.level_bits.size(),
              "a tree header counts the nodes of every level it describes");
    FinishTable();
    table_ = table;
    seen_ = {};
    shift_.assign(1, table.tag_shift);
    for (unsigned l = 1; l < table.level_bits.size(); ++l) {
      shift_.push_back(shift_.back() + table.level_bits[l]);
    }
    prefixes_.assign(shift_.size(), {});
  }

  void OnNode(const PtNodeView& n) override {
    CPT_CHECK(n.level >= 1 && n.level <= shift_.size(), "a node view needs its table's header");
    words_.clear();
    for (unsigned i = 0; i < n.num_words; ++i) {
      words_.push_back(n.words[i].load());
    }
    if (n.bucket != n.home_bucket) {
      Add(NodeId(n) + ": hangs on bucket " + Str(n.bucket) + " but its tag hashes to bucket " +
          Str(n.home_bucket));
    }
    // View tags are domain-erased keys; recompute the key the same way.
    if ((n.base_vpn.raw() >> shift_[n.level - 1]) != n.tag) {
      Add(NodeId(n) + ": tag inconsistent with base VPN (misaligned tag)");
    }
    if (n.live_slots) {
      const auto occupied = static_cast<unsigned>(std::count_if(
          words_.begin(), words_.end(), [](MappingWord w) { return w != MappingWord::Invalid(); }));
      if (occupied != *n.live_slots) {
        Add(NodeId(n) + ": leaf live counter " + Str(*n.live_slots) + " but " + Str(occupied) +
            " occupied slots");
      }
    }
    // Every node keeps its ancestors alive.  Tree prefixes are domain-erased
    // keys.
    for (unsigned l = std::max(n.level, 2u); l <= shift_.size(); ++l) {
      prefixes_[l - 1].insert(n.base_vpn.raw() >> shift_[l - 1]);
    }
    seen_.nodes += n.level == 1 ? 1 : 0;
    seen_.translations += CheckWords(n);
    seen_.bytes += 16 + 8ull * n.num_words;
  }

  void OnChainCycle(std::uint32_t bucket) override {
    Add("hash chain at bucket " + Str(bucket) + " is cyclic or has an out-of-range index");
  }

  AuditReport Finish() && {
    FinishTable();
    coverage_.Report(report_);
    return std::move(report_);
  }

 private:
  void Add(std::string defect) { report_.Add(table_.name + ": " + std::move(defect)); }

  // Verifies one node's mapping words (format discrimination, alignment,
  // PSB vector bounds), adds its valid translations to the coverage map,
  // and returns how many base pages the node translates.
  std::uint64_t CheckWords(const PtNodeView& n) {
    const std::uint64_t span = std::uint64_t{1} << n.sub_log2;
    std::uint64_t translations = 0;
    std::optional<MappingKind> kind0;
    for (unsigned i = 0; i < words_.size(); ++i) {
      const MappingWord w = words_[i];
      const Vpn slot_base = n.base_vpn + std::uint64_t{i} * span;
      switch (w.kind()) {
        case MappingKind::kBase:
          if (!w.valid()) {
            continue;  // Empty slot.
          }
          if (span > 1) {
            Add(NodeId(n) + ": base word in a slot spanning " + Str(span) + " pages");
          }
          coverage_.Add(slot_base);
          ++translations;
          break;
        case MappingKind::kSuperpage: {
          if (!w.valid()) {
            continue;  // Empty slot of a sub-size node.
          }
          // A superpage word covers its whole slot: a word claiming less
          // would leave pages of the slot untranslated.
          const unsigned sz = w.page_size().size_log2;
          if ((std::uint64_t{1} << sz) < span) {
            Add(NodeId(n) + ": superpage word (SZ=" + Str(sz) + ") smaller than its slot span " +
                Str(span));
          }
          if (!IsSuperpageAligned(w.ppn(), PageSize{sz})) {
            Add(NodeId(n) + ": superpage PPN " + Str(w.ppn()) + " not aligned to 2^" + Str(sz) +
                " pages");
          }
          for (std::uint64_t j = 0; j < span; ++j) {
            coverage_.Add(slot_base + j);
          }
          translations += span;
          break;
        }
        case MappingKind::kPartialSubblock: {
          const unsigned factor = table_.psb_factor;
          const std::uint64_t mask =
              factor >= 16 ? 0xFFFFu : ((std::uint64_t{1} << factor) - 1);
          const std::uint16_t vec = w.valid_vector();
          if ((vec & ~mask) != 0) {
            Add(NodeId(n) + ": PSB valid bits beyond subblock factor " + Str(factor));
          }
          if (vec != 0 && !IsSuperpageAligned(w.ppn(), PageSize{Log2(factor)})) {
            Add(NodeId(n) + ": PSB block PPN " + Str(w.ppn()) + " not aligned to factor " +
                Str(factor));
          }
          if (vec == 0) {
            continue;  // Empty PSB word.
          }
          const Vpn block_base = SuperpageBaseVpn(slot_base, PageSize{Log2(factor)});
          for (unsigned j = 0; j < factor; ++j) {
            const Vpn page = block_base + j;
            if (((vec >> j) & 1u) != 0 && page >= slot_base && page < slot_base + span) {
              coverage_.Add(page);
              ++translations;
            }
          }
          break;
        }
      }
      // The word provided at least one translation; enforce one format per
      // multi-word node (the S-field discrimination).
      if (!kind0) {
        kind0 = w.kind();
      } else if (table_.uniform_kind && w.kind() != *kind0) {
        Add(NodeId(n) + ": mixed mapping formats within one node");
      }
    }
    if (table_.check_nonempty && !kind0 &&
        (words_.empty() || words_[0].kind() != MappingKind::kPartialSubblock)) {
      Add(NodeId(n) + ": live node translates nothing");
    }
    return translations;
  }

  // Compares the finished table's counters with the walk's recount.
  void FinishTable() {
    if (shift_.empty()) {
      return;  // No table yet.
    }
    if (seen_.nodes != table_.node_count) {
      Add("walk saw " + Str(seen_.nodes) + " nodes but the table counts " +
          Str(table_.node_count));
    }
    if (seen_.translations != table_.live_translations) {
      Add("walk recounted " + Str(seen_.translations) + " translations but the table counts " +
          Str(table_.live_translations));
    }
    if (table_.paper_bytes && seen_.bytes != *table_.paper_bytes) {
      Add("walk recounted " + Str(seen_.bytes) + " paper-model bytes but the table counts " +
          Str(*table_.paper_bytes));
    }
    for (unsigned l = 2; l <= table_.level_nodes.size(); ++l) {
      if (table_.level_nodes[l - 1] != prefixes_[l - 1].size()) {
        Add("level " + Str(l) + " counts " + Str(table_.level_nodes[l - 1]) +
            " active nodes; the walked nodes imply " + Str(prefixes_[l - 1].size()));
      }
    }
  }

  struct Recount {
    std::uint64_t nodes = 0;  // Level-1 nodes.
    std::uint64_t translations = 0;
    std::uint64_t bytes = 0;
  };

  PtTableView table_;
  Recount seen_;
  std::vector<unsigned> shift_;  // Level l's key is base_vpn >> shift_[l - 1].
  std::vector<std::unordered_set<std::uint64_t>> prefixes_;  // Keys seen per level.
  std::vector<MappingWord> words_;  // The current node's words, loaded once.
  CoverageMap coverage_;
  AuditReport report_;
};

std::string EntryId(const TlbEntryView& e) {
  std::ostringstream os;
  os << "entry asid=" << e.asid << " base_vpn=0x" << std::hex << e.base_vpn;
  return os.str();
}

// The TLB visitor: checks each entry against the TLB's geometry as it
// arrives, and the invalid-entry counter at the end.
class TlbAuditor final : public TlbAuditVisitor {
 public:
  void OnTlb(const TlbView& tlb) override { tlb_ = tlb; }

  void OnEntry(const TlbEntryView& e) override {
    if (!e.valid) {
      ++invalid_;
      return;
    }
    const unsigned k = e.pages_log2;
    if (((tlb_.page_sizes >> k) & 1u) == 0) {
      report_.Add(EntryId(e) + ": page size 2^" + Str(k) + " is not one the TLB holds");
    }
    // Set indexing unwraps the VPN, as the TLB's own index does.
    const auto set = static_cast<unsigned>((e.base_vpn.raw() >> tlb_.set_shift) &
                                           (tlb_.num_sets - 1));
    if (e.set != set) {
      report_.Add(EntryId(e) + ": stored in set " + Str(e.set) + " but indexes to set " +
                  Str(set));
    }
    if (!IsSuperpageAligned(e.base_vpn, PageSize{k})) {
      report_.Add(EntryId(e) + ": VPN not aligned to its 2^" + Str(k) + "-page span");
    }
    if (!IsSuperpageAligned(e.base_ppn, PageSize{k})) {
      report_.Add(EntryId(e) + ": PPN not aligned to its 2^" + Str(k) + "-page span");
    }
    const std::uint64_t pages = std::uint64_t{1} << k;
    const std::uint64_t mask = pages >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << pages) - 1;
    if ((e.valid_vector & ~mask) != 0) {
      report_.Add(EntryId(e) + ": valid bits beyond subblock factor " + Str(pages));
    }
    if (e.translations.empty()) {
      report_.Add(EntryId(e) + ": valid entry translates nothing (empty valid vector)");
    }
    if (!tags_.emplace(e.asid, e.base_vpn, k).second) {
      report_.Add(EntryId(e) + ": duplicate TLB tag");
    }
  }

  AuditReport Finish() && {
    if (tlb_.invalid_entries && *tlb_.invalid_entries != invalid_) {
      report_.Add("TLB counts " + Str(*tlb_.invalid_entries) +
                  " invalid entries but the walk saw " + Str(invalid_));
    }
    return std::move(report_);
  }

 private:
  TlbView tlb_;
  std::uint64_t invalid_ = 0;
  std::set<std::tuple<std::uint16_t, Vpn, unsigned>> tags_;
  AuditReport report_;
};

}  // namespace

AuditReport StructuralAuditor::Audit(const pt::PageTable& table) {
  PtAuditor auditor;
  table.AuditVisit(auditor);
  return std::move(auditor).Finish();
}

AuditReport StructuralAuditor::Audit(const tlb::Tlb& tlb) {
  TlbAuditor auditor;
  tlb.AuditVisit(auditor);
  return std::move(auditor).Finish();
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
