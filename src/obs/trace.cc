#include "obs/trace.h"

#include "common/check.h"
#include "obs/json_writer.h"

namespace cpt::obs {

const char* ToString(EventKind kind) {
  switch (kind) {
    case EventKind::kTlbHit:
      return "tlb_hit";
    case EventKind::kTlbMiss:
      return "tlb_miss";
    case EventKind::kTlbBlockMiss:
      return "tlb_block_miss";
    case EventKind::kTlbSubblockMiss:
      return "tlb_subblock_miss";
    case EventKind::kWalkStep:
      return "walk_step";
    case EventKind::kWalkHit:
      return "walk_hit";
    case EventKind::kWalkEnd:
      return "walk_end";
    case EventKind::kWalkAbort:
      return "walk_abort";
    case EventKind::kPageFault:
      return "page_fault";
    case EventKind::kPtePromotion:
      return "pte_promotion";
    case EventKind::kBlockPrefetch:
      return "block_prefetch";
    case EventKind::kReservationGrant:
      return "reservation_grant";
    case EventKind::kSwTlbHit:
      return "swtlb_hit";
    case EventKind::kSwTlbMiss:
      return "swtlb_miss";
  }
  return "?";
}

const char* ToString(WalkHitClass cls) {
  switch (cls) {
    case WalkHitClass::kBase:
      return "base";
    case WalkHitClass::kSuperpage:
      return "superpage";
    case WalkHitClass::kPartialSubblock:
      return "partial-subblock";
    case WalkHitClass::kSwTlb:
      return "swtlb";
  }
  return "?";
}

std::uint64_t EventCounts::total() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t c : counts_) {
    sum += c;
  }
  return sum;
}

std::uint64_t EventCounts::TlbMisses() const {
  return (*this)[EventKind::kTlbMiss] + (*this)[EventKind::kTlbBlockMiss] +
         (*this)[EventKind::kTlbSubblockMiss];
}

void WalkTracer::RecordRepeat(const WalkEvent& event, std::uint64_t n) {
  for (; n > 0; --n) {
    Record(event);
  }
}

RingBufferTracer::RingBufferTracer(std::size_t capacity) : capacity_(capacity) {
  CPT_CHECK(capacity_ > 0);
  buffer_.reserve(capacity_);
}

void RingBufferTracer::Record(const WalkEvent& event) {
  ++total_;
  ++counts_[event.kind];
  if (buffer_.size() < capacity_) {
    buffer_.push_back(event);
    return;
  }
  buffer_[next_] = event;
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

std::vector<WalkEvent> RingBufferTracer::Events() const {
  std::vector<WalkEvent> out;
  out.reserve(buffer_.size());
  // Once the ring has wrapped, next_ points at the oldest surviving event.
  for (std::size_t i = 0; i < buffer_.size(); ++i) {
    out.push_back(buffer_[(next_ + i) % buffer_.size()]);
  }
  return out;
}

void RingBufferTracer::WriteJsonl(std::ostream& os) const {
  for (const WalkEvent& e : Events()) {
    EventToJson(os, e);
    os << '\n';
  }
}

void RingBufferTracer::Clear() {
  buffer_.clear();
  next_ = 0;
  dropped_ = 0;
  total_ = 0;
  counts_ = EventCounts{};
}

void StatsTracer::Record(const WalkEvent& event) {
  ++counts_[event.kind];
  // Only walk-boundary events shape the histograms; every other kind is
  // counted above and forwarded below.
  switch (event.kind) {
    case EventKind::kWalkStep:
      ++pending_steps_;
      break;
    case EventKind::kWalkEnd:
      chain_length_.Add(pending_steps_);
      lines_per_walk_.Add(event.lines);
      pending_steps_ = 0;
      break;
    case EventKind::kWalkAbort:
      // Faulting or uncounted walk: its steps do not belong to any counted
      // walk, so drop them rather than fold them into the next one.
      pending_steps_ = 0;
      break;
    case EventKind::kTlbHit:
    case EventKind::kTlbMiss:
    case EventKind::kTlbBlockMiss:
    case EventKind::kTlbSubblockMiss:
    case EventKind::kWalkHit:
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

void StatsTracer::RecordRepeat(const WalkEvent& event, std::uint64_t n) {
  if (event.kind != EventKind::kTlbHit) {
    WalkTracer::RecordRepeat(event, n);
    return;
  }
  counts_[event.kind] += n;
  if (forward_ != nullptr) {
    forward_->RecordRepeat(event, n);
  }
}

void EventToJson(std::ostream& os, const WalkEvent& event) {
  JsonWriter w(os, /*pretty=*/false);
  w.BeginObject();
  w.KV("kind", ToString(event.kind));
  w.KV("asid", std::uint64_t{event.asid});
  w.KV("vpn", event.vpn);
  if (event.kind == EventKind::kWalkStep || event.kind == EventKind::kWalkHit) {
    w.KV("step", std::uint64_t{event.step});
  }
  if (event.kind == EventKind::kWalkStep || event.kind == EventKind::kWalkEnd) {
    w.KV("lines", std::uint64_t{event.lines});
  }
  // Kind-specific payload fields; kinds without one carry only the common
  // envelope emitted above.
  switch (event.kind) {
    case EventKind::kWalkHit:
      w.KV("class", ToString(WalkHitClassOf(event.value)));
      w.KV("pages_log2", std::uint64_t{WalkHitPagesLog2Of(event.value)});
      break;
    case EventKind::kBlockPrefetch:
      w.KV("fills", event.value);
      break;
    case EventKind::kReservationGrant:
      w.KV("properly_placed", event.value != 0);
      break;
    case EventKind::kTlbHit:
    case EventKind::kTlbMiss:
    case EventKind::kTlbBlockMiss:
    case EventKind::kTlbSubblockMiss:
    case EventKind::kWalkStep:
    case EventKind::kWalkEnd:
    case EventKind::kWalkAbort:
    case EventKind::kPageFault:
    case EventKind::kPtePromotion:
    case EventKind::kSwTlbHit:
    case EventKind::kSwTlbMiss:
      break;
  }
  w.EndObject();
}

}  // namespace cpt::obs
