#include "workload/workload.h"

#include <algorithm>

#include "common/check.h"

namespace cpt::workload {

const char* ToString(SegmentKind kind) {
  switch (kind) {
    case SegmentKind::kText:
      return "text";
    case SegmentKind::kHeap:
      return "heap";
    case SegmentKind::kData:
      return "data";
    case SegmentKind::kMmap:
      return "mmap";
    case SegmentKind::kStack:
      return "stack";
    case SegmentKind::kUnknown:
      return "unknown";
  }
  return "invalid";
}

std::uint64_t Snapshot::TotalPages() const {
  std::uint64_t total = 0;
  for (const auto& proc : pages) {
    for (const auto& seg : proc) {
      total += seg.size();
    }
  }
  return total;
}

std::uint64_t Snapshot::ProcessPages(std::size_t process) const {
  std::uint64_t total = 0;
  for (const auto& seg : pages[process]) {
    total += seg.size();
  }
  return total;
}

std::vector<Vpn> Snapshot::FlatProcess(std::size_t process) const {
  std::vector<Vpn> flat;
  flat.reserve(ProcessPages(process));
  for (const auto& seg : pages[process]) {
    flat.insert(flat.end(), seg.begin(), seg.end());
  }
  std::sort(flat.begin(), flat.end());
  return flat;
}

namespace {

// Lays out one segment's mapped pages as alternating mapped runs and gaps,
// with run lengths around burst_mean and gap lengths chosen so the overall
// mapped fraction approaches `density`.
std::vector<Vpn> LayoutSegment(const Segment& seg, Rng& rng) {
  CPT_CHECK(seg.density > 0.0 && seg.density <= 1.0);
  std::vector<Vpn> mapped;
  mapped.reserve(static_cast<std::size_t>(static_cast<double>(seg.span_pages) * seg.density) + 8);
  const Vpn first = VpnOf(seg.base);
  const double gap_mean = seg.burst_mean * (1.0 - seg.density) / seg.density;
  std::uint64_t pos = 0;
  while (pos < seg.span_pages) {
    std::uint64_t run = rng.BurstLength(seg.burst_mean);
    run = std::min(run, seg.span_pages - pos);
    for (std::uint64_t i = 0; i < run; ++i) {
      mapped.push_back(first + pos + i);
    }
    pos += run;
    if (gap_mean > 0.0) {
      pos += rng.BurstLength(gap_mean);
    }
  }
  return mapped;
}

}  // namespace

Snapshot BuildSnapshot(const WorkloadSpec& spec) {
  Rng rng(spec.seed);
  Snapshot snap;
  snap.pages.resize(spec.processes.size());
  for (std::size_t p = 0; p < spec.processes.size(); ++p) {
    const ProcessSpec& proc = spec.processes[p];
    snap.pages[p].reserve(proc.segments.size());
    for (const Segment& seg : proc.segments) {
      snap.pages[p].push_back(LayoutSegment(seg, rng));
    }
  }
  return snap;
}

TraceGenerator::TraceGenerator(const WorkloadSpec& spec, const Snapshot& snapshot)
    : spec_(spec), rng_(spec.seed ^ 0x9E3779B97F4A7C15ull), slice_left_(spec.timeslice) {
  procs_.resize(spec.processes.size());
  for (std::size_t p = 0; p < spec.processes.size(); ++p) {
    ProcessState& ps = procs_[p];
    const auto& segs = spec.processes[p].segments;
    ps.segments.resize(segs.size());
    double cum = 0.0;
    for (std::size_t s = 0; s < segs.size(); ++s) {
      SegmentState& st = ps.segments[s];
      st.spec = &segs[s];
      st.pages = &snapshot.pages[p][s];
      st.write_threshold = Rng::ChanceThreshold(segs[s].write_fraction);
      st.sojourn_threshold = Rng::BurstThreshold(segs[s].sojourn_mean);
      cum += segs[s].weight;
      ps.cumulative_weight.push_back(cum);
    }
    ps.total_weight = cum;
  }
  if (spec.sequential_processes && !procs_.empty()) {
    slice_left_ = std::max<std::uint64_t>(1, spec.default_trace_length / procs_.size());
  }
}

void TraceGenerator::PickNewPage(ProcessState& p) {
  // Choose a segment in proportion to its weight.
  const double r = rng_.NextDouble() * p.total_weight;
  std::size_t si = 0;
  while (si + 1 < p.segments.size() && p.cumulative_weight[si] <= r) {
    ++si;
  }
  SegmentState& st = p.segments[si];
  const auto& pages = *st.pages;
  if (pages.empty()) {
    p.current_page = VpnOf(st.spec->base);
    return;
  }
  const std::uint64_t n = pages.size();
  switch (st.spec->pattern) {
    case AccessPattern::kSequential:
      st.cursor = (st.cursor + 1) % n;
      break;
    case AccessPattern::kStrided:
      // A +/-1 jitter breaks exact stride resonance with the TLB capacity
      // (real loop nests have prologues, remainders and neighbours).
      st.cursor = (st.cursor + st.spec->stride_pages + rng_.Below(3) + n - 1) % n;
      break;
    case AccessPattern::kRandom:
      st.cursor = rng_.Below(n);
      break;
    case AccessPattern::kPointerChase: {
      if (st.chase_perm.empty()) {
        // One fixed random cyclic permutation: every access chases to a new,
        // unpredictable page, like traversing a linked heap.
        st.chase_perm.resize(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          st.chase_perm[i] = i;
        }
        // Sattolo's algorithm: a single n-cycle.
        for (std::uint64_t i = n - 1; i > 0; --i) {
          const std::uint64_t j = rng_.Below(i);
          std::swap(st.chase_perm[i], st.chase_perm[j]);
        }
      }
      st.cursor = st.chase_perm[st.cursor % n];
      break;
    }
  }
  p.current_segment = &st;
  p.current_page = pages[st.cursor];
}

Run TraceGenerator::BeginRun(std::uint64_t max_refs) {
  CPT_DCHECK(max_refs >= 1);
  // Several processes take turns in slices: round-robin timeslices, or
  // equal shares of the default trace length one after another.
  const bool sliced = spec_.sequential_processes || procs_.size() > 1;
  if (sliced && slice_left_ == 0) {
    active_proc_ = (active_proc_ + 1) % procs_.size();
    slice_left_ = std::max<std::uint64_t>(
        1, spec_.sequential_processes ? spec_.default_trace_length / procs_.size()
                                      : spec_.timeslice);
  }
  ProcessState& p = procs_[active_proc_];
  if (p.sojourn_left == 0 || p.current_segment == nullptr) {
    PickNewPage(p);
    p.sojourn_left = rng_.BurstLengthBelow(
        p.current_segment != nullptr ? p.current_segment->sojourn_threshold : Rng::kSingleBurst);
  }
  std::uint64_t count = std::min(std::min<std::uint64_t>(kMaxRunRefs, max_refs), p.sojourn_left);
  if (sliced) {
    count = std::min(count, slice_left_);
    slice_left_ -= count;
  }
  p.sojourn_left -= count;

  // Each reference draws a pseudo-random offset within the page, then its
  // store bit; the TLB only sees the VPN, so only the first offset is kept.
  return Run{.asid = static_cast<tlb::Asid>(active_proc_),
             .va = VaOf(p.current_page) + (rng_.Next() & 0xFF8),
             .count = static_cast<std::uint32_t>(count),
             .store_rng = {},
             .store_threshold =
                 p.current_segment != nullptr ? p.current_segment->write_threshold : 0};
}

// A full run skips exactly one table jump of draws.
static_assert(2 * std::uint64_t{kMaxRunRefs} - 1 == Rng::kJumpDraws);

Run TraceGenerator::NextRun(std::uint64_t max_refs) {
  Run run = BeginRun(max_refs);
  run.store_rng = rng_;
  // Reference 0's store draw, then an offset and a store draw per reference.
  if (run.count == kMaxRunRefs) {
    rng_.Jump();
  } else {
    rng_.Skip(2 * std::uint64_t{run.count} - 1);
  }
  return run;
}

// Flattened so the per-reference API pays no call into BeginRun.
[[gnu::flatten]] Reference TraceGenerator::Next() {
  const Run run = BeginRun(1);
  return Reference{run.asid, run.va, rng_.ChanceBelow(run.store_threshold)};
}

std::uint64_t Run::StoreBits() const {
  Rng rng = store_rng;
  std::uint64_t bits = rng.ChanceBelow(store_threshold) ? 1 : 0;
  for (std::uint32_t i = 1; i < count; ++i) {
    (void)rng.Next();  // Reference i's page offset.
    bits |= std::uint64_t{rng.ChanceBelow(store_threshold)} << i;
  }
  return bits;
}

}  // namespace cpt::workload
