#include "obs/attribution.h"

#include <algorithm>

#include "common/check.h"
#include "obs/json_writer.h"

namespace cpt::obs {

const char* ToString(SegmentClass cls) {
  switch (cls) {
    case SegmentClass::kText:
      return "text";
    case SegmentClass::kHeap:
      return "heap";
    case SegmentClass::kData:
      return "data";
    case SegmentClass::kMmap:
      return "mmap";
    case SegmentClass::kStack:
      return "stack";
    case SegmentClass::kUnknown:
      return "unknown";
  }
  return "?";
}

void SegmentMap::Add(std::uint16_t asid, Vpn begin_vpn, Vpn end_vpn, SegmentClass cls) {
  CPT_CHECK(begin_vpn <= end_vpn);
  if (begin_vpn == end_vpn) {
    return;
  }
  ranges_.push_back({asid, begin_vpn, end_vpn, cls});
  sorted_ = false;
}

void SegmentMap::SortIfNeeded() const {
  if (sorted_) {
    return;
  }
  std::sort(ranges_.begin(), ranges_.end(), [](const Range& a, const Range& b) {
    return a.asid != b.asid ? a.asid < b.asid : a.begin < b.begin;
  });
  sorted_ = true;
}

SegmentClass SegmentMap::Classify(std::uint16_t asid, Vpn vpn) const {
  SortIfNeeded();
  // First range with (asid, begin) > (asid, vpn); the candidate is its
  // predecessor.  Ranges are disjoint in practice (segments do not overlap),
  // so one predecessor check suffices.
  auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), std::make_pair(asid, vpn),
      [](const std::pair<std::uint16_t, Vpn>& key, const Range& r) {
        return key.first != r.asid ? key.first < r.asid : key.second < r.begin;
      });
  if (it == ranges_.begin()) {
    return SegmentClass::kUnknown;
  }
  const Range& r = *std::prev(it);
  if (r.asid == asid && vpn >= r.begin && vpn < r.end) {
    return r.cls;
  }
  return SegmentClass::kUnknown;
}

namespace {

// Report labels of the outcome axis: fault, prefetch, swtlb, hit@1..hit@8,
// overflow — the index layout CommitWalk() computes.
constexpr const char* kOutcomeNames[] = {
    "fault",  "prefetch", "swtlb", "hit@1", "hit@2", "hit@3",
    "hit@4",  "hit@5",    "hit@6", "hit@7", "hit@8", "overflow",
};
static_assert(std::size(kOutcomeNames) == AttributionTracer::kOutcomeCount,
              "every outcome index needs a report label, in axis order");

const char* OutcomeName(std::size_t index) { return kOutcomeNames[index]; }

}  // namespace

void AttributionTracer::BeginWalk(const WalkEvent& event) {
  armed_ = true;
  faulted_ = false;
  block_ = false;
  have_hit_ = false;
  asid_ = event.asid;
  vpn_ = event.vpn;
  steps_ = 0;
  hit_value_ = 0;
  end_lines_ = 0;
}

void AttributionTracer::ResetWalk() {
  armed_ = false;
  pending_commit_ = false;
}

void AttributionTracer::CommitWalk() {
  // Segment dimension: the faulting VPN of the miss that opened the service.
  const SegmentClass seg =
      segments_ != nullptr ? segments_->Classify(asid_, vpn_) : SegmentClass::kUnknown;

  // Page-class dimension: the last structure hit of the service; a block
  // prefetch (one walk filling a whole TLB block) is its own class, and a
  // counted walk with no hit marker (possible only for prefetches through
  // organizations with adjacent-PTE block reads) falls back to `block` /
  // `unknown`.
  std::size_t cls;
  if (block_) {
    cls = kBlockClassIndex;
  } else if (have_hit_) {
    cls = static_cast<std::size_t>(WalkHitClassOf(hit_value_));
    CPT_DCHECK(cls < kWalkHitClassCount);
  } else {
    cls = kUnknownClassIndex;
  }

  // Outcome dimension.  Chain position uses the number of structure nodes
  // visited over the whole service (for multi-table organizations this spans
  // both tables — it is the true search depth of the miss handler).
  std::size_t out;
  if (faulted_) {
    out = 0;  // fault
  } else if (block_) {
    out = 1;  // prefetch
  } else if (steps_ == 0) {
    out = 2;  // swtlb (served without visiting a chain node)
  } else if (steps_ <= kMaxHitNode) {
    out = 2 + steps_;  // hit@k
  } else {
    out = kOutcomeCount - 1;  // overflow
  }

  for (Cell* cell : {&seg_[static_cast<std::size_t>(seg)], &cls_[cls], &out_[out]}) {
    ++cell->walks;
    cell->lines += end_lines_;
    cell->steps += steps_;
  }
  ++walks_;
  lines_total_ += end_lines_;
  steps_total_ += steps_;
  ResetWalk();
}

void AttributionTracer::Record(const WalkEvent& event) {
  // A kWalkEnd is committed one event late: the complete-subblock path
  // publishes its kBlockPrefetch marker after the walk ends, and that marker
  // decides the page-class/outcome of the walk it follows.
  if (pending_commit_) {
    if (event.kind == EventKind::kBlockPrefetch) {
      block_ = true;
      CommitWalk();
      if (forward_ != nullptr) {
        forward_->Record(event);
      }
      return;
    }
    CommitWalk();
  }

  // Only the walk-service protocol events drive the state machine; the
  // remaining kinds (promotions, grants, ...) are passed through untouched.
  switch (event.kind) {
    case EventKind::kTlbMiss:
    case EventKind::kTlbBlockMiss:
    case EventKind::kTlbSubblockMiss:
      BeginWalk(event);
      break;
    case EventKind::kWalkStep:
      if (armed_) {
        ++steps_;
      }
      break;
    case EventKind::kWalkHit:
      if (armed_) {
        have_hit_ = true;
        hit_value_ = event.value;
      }
      break;
    case EventKind::kWalkAbort:
      // Abort while a service is open is a page fault in that service;
      // aborts outside one are uncounted reference-TLB refills.
      if (armed_) {
        faulted_ = true;
      }
      break;
    case EventKind::kWalkEnd:
      if (armed_) {
        end_lines_ = event.lines;
        pending_commit_ = true;
      }
      break;
    case EventKind::kTlbHit:
    case EventKind::kPageFault:
    case EventKind::kPtePromotion:
    case EventKind::kBlockPrefetch:
    case EventKind::kReservationGrant:
    case EventKind::kSwTlbHit:
    case EventKind::kSwTlbMiss:
      break;
  }
  if (forward_ != nullptr) {
    forward_->Record(event);
  }
}

void AttributionTracer::RecordRepeat(const WalkEvent& event, std::uint64_t n) {
  if (event.kind != EventKind::kTlbHit || n == 0) {
    WalkTracer::RecordRepeat(event, n);
    return;
  }
  // A hit is neither a block-prefetch marker nor a walk-protocol event: the
  // first one commits a pending walk and the rest pass through.
  if (pending_commit_) {
    CommitWalk();
  }
  if (forward_ != nullptr) {
    forward_->RecordRepeat(event, n);
  }
}

AttributionResult AttributionTracer::Result() {
  if (pending_commit_) {
    CommitWalk();
  }
  AttributionResult r;
  r.walks = walks_;
  r.lines = lines_total_;
  r.steps = steps_total_;
  auto fill = [](std::vector<AttributionCell>& out, const Cell* cells, std::size_t n,
                 auto name_of) {
    for (std::size_t i = 0; i < n; ++i) {
      const Cell& c = cells[i];
      if (c.walks == 0 && c.lines == 0) {
        continue;
      }
      out.push_back({name_of(i), c.walks, c.lines, c.steps});
    }
  };
  fill(r.by_segment, seg_.data(), seg_.size(),
       [](std::size_t i) { return std::string(ToString(static_cast<SegmentClass>(i))); });
  fill(r.by_page_class, cls_.data(), cls_.size(), [](std::size_t i) {
    if (i == kBlockClassIndex) {
      return std::string("block");
    }
    if (i == kUnknownClassIndex) {
      return std::string("unknown");
    }
    return std::string(ToString(static_cast<WalkHitClass>(i)));
  });
  fill(r.by_outcome, out_.data(), out_.size(),
       [](std::size_t i) { return std::string(OutcomeName(i)); });
  // Each dimension partitions the counted walks, so its cells must add up
  // to the totals the report's lines-per-miss figure is built from.
  for (const std::vector<AttributionCell>* cells :
       {&r.by_segment, &r.by_page_class, &r.by_outcome}) {
    AttributionCell sum;
    for (const AttributionCell& c : *cells) {
      sum.walks += c.walks;
      sum.lines += c.lines;
      sum.steps += c.steps;
    }
    CPT_CHECK(sum.walks == r.walks && sum.lines == r.lines && sum.steps == r.steps,
              "attribution cells do not sum to the totals");
  }
  return r;
}

namespace {

void CellsToJson(JsonWriter& w, const std::vector<AttributionCell>& cells) {
  w.BeginArray();
  for (const AttributionCell& c : cells) {
    w.BeginObject();
    w.KV("label", c.label);
    w.KV("walks", c.walks);
    w.KV("lines", c.lines);
    w.KV("steps", c.steps);
    w.KV("lines_per_walk",
         c.walks == 0 ? 0.0 : static_cast<double>(c.lines) / static_cast<double>(c.walks));
    w.EndObject();
  }
  w.EndArray();
}

}  // namespace

void ToJson(JsonWriter& w, const AttributionResult& r) {
  w.BeginObject();
  w.KV("walks", r.walks);
  w.KV("lines", r.lines);
  w.KV("steps", r.steps);
  w.Key("by_segment");
  CellsToJson(w, r.by_segment);
  w.Key("by_page_class");
  CellsToJson(w, r.by_page_class);
  w.Key("by_outcome");
  CellsToJson(w, r.by_outcome);
  w.EndObject();
}

}  // namespace cpt::obs
