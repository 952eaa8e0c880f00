// Synthetic workloads standing in for the paper's ten traced programs.
//
// The paper drove its simulators with trap-driven traces of real programs on
// Solaris (Section 6.2, Table 1).  Without those traces, each workload here
// is a generator with two faces:
//
//   1. an address-space *snapshot* — which virtual pages are mapped at peak
//      memory use.  Segment layout, density, and burstiness are calibrated
//      so the hashed-page-table footprint matches Table 1 column 5 and the
//      dense/sparse character matches Section 6.3's discussion.  Snapshots
//      drive the page-table *size* experiments (Figures 9 & 10).
//
//   2. a reference *trace* — a stream of (asid, va) touches whose spatial
//      locality class matches the program (strided FP loops, pointer-chasing
//      GC, sequential scans, multiprogrammed mixes).  Traces drive the
//      *access-time* experiments (Figure 11, Table 1 miss counts).
//
// Everything is deterministic given the spec's seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "tlb/tlb.h"

namespace cpt::workload {

enum class AccessPattern : std::uint8_t {
  kSequential,    // March through mapped pages in order (scans, streaming FP).
  kStrided,       // Fixed large stride through mapped pages (matrix columns).
  kRandom,        // Uniform over the segment's mapped pages (hash tables).
  kPointerChase,  // Fixed random permutation cycle (linked structures, GC).
};

// Logical role of a segment within its process's address space.  Carried on
// the spec (rather than re-derived from raw addresses downstream) because
// per-process layout offsets make address-based classification ambiguous.
enum class SegmentKind : std::uint8_t {
  kText,
  kHeap,
  kData,
  kMmap,
  kStack,
  kUnknown,
};
inline constexpr std::size_t kSegmentKindCount = 6;
static_assert(static_cast<std::size_t>(SegmentKind::kUnknown) + 1 == kSegmentKindCount,
              "kSegmentKindCount must track the last SegmentKind enumerator");

const char* ToString(SegmentKind kind);

struct Segment {
  VirtAddr base{};          // Page-aligned start of the virtual span.
  std::uint64_t span_pages = 0;  // Virtual span length.
  double density = 1.0;       // Fraction of span pages actually mapped.
  double burst_mean = 16.0;   // Mean mapped-run length (spatial burstiness).
  double weight = 1.0;        // Relative access frequency.
  AccessPattern pattern = AccessPattern::kSequential;
  std::uint64_t stride_pages = 1;  // For kStrided.
  double sojourn_mean = 8.0;  // Mean consecutive accesses to one page.
  double write_fraction = 0.3;  // Probability a reference is a store.
  SegmentKind kind = SegmentKind::kUnknown;
};

struct ProcessSpec {
  std::string name;
  std::vector<Segment> segments;
};

struct WorkloadSpec {
  std::string name;
  std::vector<ProcessSpec> processes;
  std::uint64_t default_trace_length = 2'000'000;
  std::uint64_t seed = 1;
  // Multiprogramming: references per scheduling slice (interleaved
  // round-robin).  Ignored when sequential_processes is set.
  std::uint64_t timeslice = 50'000;
  // Run processes one after another (gcc-style make pipelines) instead of
  // interleaving them.
  bool sequential_processes = false;
};

struct Reference {
  tlb::Asid asid = 0;
  VirtAddr va{};
  bool is_write = false;
};

// Consecutive references by one process to one page: what `count` calls of
// TraceGenerator::Next() return, in one value.  Only the first reference's
// address is kept whole; the others differ from it only in the page offset,
// which nothing below the generator reads (every layer keys on the VPN).
// The store bits are drawn on demand: the run keeps the generator state at
// its first store draw, and StoreBits() replays the run's draws from there.
// NextRun passes over those draws without computing them: a full run's
// 2 * kMaxRunRefs - 1 of them in one Rng::Jump(), a shorter run's by
// stepping the state.
inline constexpr std::uint32_t kMaxRunRefs = 64;
struct Run {
  tlb::Asid asid = 0;
  VirtAddr va{};            // The first reference's exact address.
  std::uint32_t count = 0;  // 1..kMaxRunRefs references.
  Rng store_rng;            // Generator state at reference 0's store draw.
  std::uint64_t store_threshold = 0;  // The segment's store ChanceThreshold.

  // Bit i set: reference i is a store, as Next() would have drawn it.
  // Reads nothing but the run, so calling it or not leaves every stream
  // unchanged.
  [[nodiscard]] std::uint64_t StoreBits() const;
};

// Which pages each process has mapped, per segment, in fault order.
struct Snapshot {
  // pages[process][segment] = mapped VPNs in ascending order.
  std::vector<std::vector<std::vector<Vpn>>> pages;

  std::uint64_t TotalPages() const;
  std::uint64_t ProcessPages(std::size_t process) const;
  // Flattened mapped VPNs of one process, ascending.
  std::vector<Vpn> FlatProcess(std::size_t process) const;
};

// Materializes the mapped-page sets of every segment.
Snapshot BuildSnapshot(const WorkloadSpec& spec);

// Generates the reference trace over a snapshot's mapped pages.
class TraceGenerator {
 public:
  TraceGenerator(const WorkloadSpec& spec, const Snapshot& snapshot);

  // Next reference; wraps process schedules indefinitely.
  Reference Next();

  // The next run of up to min(kMaxRunRefs, max_refs) references, cut where
  // the page's sojourn or the process's scheduling slice ends.  It advances
  // the RNG past the same draws as `count` calls of Next(), so runs and
  // single references can be mixed freely in one stream.  Only the first
  // page offset is drawn; the rest of the run's draws are jumped (a full
  // run) or stepped over, and its store bits are left to Run::StoreBits.
  Run NextRun(std::uint64_t max_refs);

 private:
  // Everything of NextRun(max_refs) but the store draws: schedules the run,
  // draws its first page offset and leaves the RNG at the first store draw.
  Run BeginRun(std::uint64_t max_refs);

  struct SegmentState {
    const Segment* spec = nullptr;
    const std::vector<Vpn>* pages = nullptr;
    std::uint64_t cursor = 0;
    std::vector<std::uint32_t> chase_perm;  // Lazy permutation for kPointerChase.
    // Rng thresholds of the segment's per-reference store bit and its
    // sojourn length, fixed at construction.
    std::uint64_t write_threshold = 0;
    std::uint64_t sojourn_threshold = 0;
  };
  struct ProcessState {
    std::vector<SegmentState> segments;
    std::vector<double> cumulative_weight;
    double total_weight = 0;
    Vpn current_page{};
    std::uint64_t sojourn_left = 0;
    SegmentState* current_segment = nullptr;
  };

  void PickNewPage(ProcessState& p);

  const WorkloadSpec& spec_;
  Rng rng_;
  std::vector<ProcessState> procs_;
  std::size_t active_proc_ = 0;
  std::uint64_t slice_left_;
};

// The paper's evaluation workloads (Table 1), plus the kernel address-space
// snapshot.  Names: coral, nasa7, compress, fftpde, wave5, mp3d, spice,
// pthor, ml, gcc, kernel.
const std::vector<WorkloadSpec>& PaperWorkloads();

// Finds a paper workload by name; aborts on unknown names.
const WorkloadSpec& GetPaperWorkload(const std::string& name);

// Table 1 reference values for EXPERIMENTS.md comparisons (bytes of hashed
// page table memory as published).
struct PaperReference {
  std::string name;
  std::uint64_t hashed_pt_bytes;  // Table 1 column 5.
  double pct_time_tlb;            // Table 1 column 4 (user time %).
};
const std::vector<PaperReference>& PaperTable1();

}  // namespace cpt::workload
