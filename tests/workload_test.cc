// Tests for the workload generators: determinism, calibration against
// Table 1, density/burstiness properties, and trace well-formedness.
#include "workload/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <vector>

namespace cpt::workload {
namespace {

TEST(SnapshotTest, DeterministicForSameSeed) {
  const WorkloadSpec& spec = GetPaperWorkload("coral");
  const Snapshot a = BuildSnapshot(spec);
  const Snapshot b = BuildSnapshot(spec);
  ASSERT_EQ(a.pages.size(), b.pages.size());
  EXPECT_EQ(a.pages, b.pages);
}

TEST(SnapshotTest, DifferentSeedsDiffer) {
  WorkloadSpec spec = GetPaperWorkload("coral");
  const Snapshot a = BuildSnapshot(spec);
  spec.seed ^= 0x5555;
  const Snapshot b = BuildSnapshot(spec);
  EXPECT_NE(a.pages, b.pages);
}

TEST(SnapshotTest, PagesAreSortedUniqueAndInSegment) {
  for (const WorkloadSpec& spec : PaperWorkloads()) {
    const Snapshot snap = BuildSnapshot(spec);
    ASSERT_EQ(snap.pages.size(), spec.processes.size()) << spec.name;
    for (std::size_t p = 0; p < snap.pages.size(); ++p) {
      ASSERT_EQ(snap.pages[p].size(), spec.processes[p].segments.size());
      for (std::size_t s = 0; s < snap.pages[p].size(); ++s) {
        const auto& pages = snap.pages[p][s];
        const Segment& seg = spec.processes[p].segments[s];
        EXPECT_TRUE(std::is_sorted(pages.begin(), pages.end()));
        EXPECT_TRUE(std::adjacent_find(pages.begin(), pages.end()) == pages.end())
            << "duplicates in " << spec.name;
        if (!pages.empty()) {
          EXPECT_GE(pages.front(), VpnOf(seg.base));
          EXPECT_LE(pages.back(), VpnOf(seg.base) + seg.span_pages);
        }
      }
    }
  }
}

TEST(SnapshotTest, DensityRoughlyHonored) {
  for (const WorkloadSpec& spec : PaperWorkloads()) {
    const Snapshot snap = BuildSnapshot(spec);
    for (std::size_t p = 0; p < snap.pages.size(); ++p) {
      for (std::size_t s = 0; s < snap.pages[p].size(); ++s) {
        const Segment& seg = spec.processes[p].segments[s];
        const double got =
            static_cast<double>(snap.pages[p][s].size()) / static_cast<double>(seg.span_pages);
        EXPECT_NEAR(got, seg.density, 0.25) << spec.name << " proc " << p << " seg " << s;
      }
    }
  }
}

TEST(CalibrationTest, HashedPtBytesMatchTable1Within10Percent) {
  for (const PaperReference& ref : PaperTable1()) {
    const WorkloadSpec& spec = GetPaperWorkload(ref.name);
    const Snapshot snap = BuildSnapshot(spec);
    const std::uint64_t hashed_bytes = snap.TotalPages() * 24;
    const double rel = static_cast<double>(hashed_bytes) /
                       static_cast<double>(ref.hashed_pt_bytes);
    EXPECT_GT(rel, 0.90) << ref.name;
    EXPECT_LT(rel, 1.10) << ref.name;
  }
}

TEST(TraceTest, DeterministicForSameSeed) {
  const WorkloadSpec& spec = GetPaperWorkload("mp3d");
  const Snapshot snap = BuildSnapshot(spec);
  TraceGenerator g1(spec, snap);
  TraceGenerator g2(spec, snap);
  for (int i = 0; i < 10000; ++i) {
    const Reference a = g1.Next();
    const Reference b = g2.Next();
    ASSERT_EQ(a.asid, b.asid);
    ASSERT_EQ(a.va, b.va);
  }
}

TEST(TraceTest, ReferencesStayOnMappedPages) {
  for (const char* name : {"coral", "gcc", "compress", "ml"}) {
    const WorkloadSpec& spec = GetPaperWorkload(name);
    const Snapshot snap = BuildSnapshot(spec);
    std::vector<std::set<Vpn>> mapped(snap.pages.size());
    for (std::size_t p = 0; p < snap.pages.size(); ++p) {
      const auto flat = snap.FlatProcess(p);
      mapped[p].insert(flat.begin(), flat.end());
    }
    TraceGenerator gen(spec, snap);
    for (int i = 0; i < 20000; ++i) {
      const Reference r = gen.Next();
      ASSERT_LT(r.asid, mapped.size()) << name;
      EXPECT_TRUE(mapped[r.asid].count(VpnOf(r.va)) == 1)
          << name << ": reference to unmapped page at step " << i;
    }
  }
}

TEST(TraceTest, MultiprogrammedWorkloadsInterleaveAsids) {
  const WorkloadSpec& spec = GetPaperWorkload("compress");
  const Snapshot snap = BuildSnapshot(spec);
  TraceGenerator gen(spec, snap);
  std::set<tlb::Asid> seen;
  for (int i = 0; i < 100000; ++i) {
    seen.insert(gen.Next().asid);
  }
  EXPECT_EQ(seen.size(), 2u);
}

TEST(TraceTest, SequentialProcessesRunInTurn) {
  const WorkloadSpec& spec = GetPaperWorkload("gcc");
  const Snapshot snap = BuildSnapshot(spec);
  TraceGenerator gen(spec, snap);
  // Within the first share, only asid 0 runs.
  const std::uint64_t share = spec.default_trace_length / spec.processes.size();
  for (std::uint64_t i = 0; i + 1 < share; ++i) {
    ASSERT_EQ(gen.Next().asid, 0u) << "step " << i;
  }
  // Across the full schedule every process appears.
  std::set<tlb::Asid> seen;
  for (std::uint64_t i = 0; i < spec.default_trace_length; ++i) {
    seen.insert(gen.Next().asid);
  }
  EXPECT_EQ(seen.size(), spec.processes.size());
}

TEST(TraceTest, SojournControlsPageChangeRate) {
  // Two otherwise-identical single-segment workloads: the one with the
  // larger sojourn must change pages less often.
  auto make = [](double sojourn) {
    WorkloadSpec w;
    w.name = "test";
    w.seed = 9;
    ProcessSpec p;
    p.name = "p";
    Segment seg;
    seg.base = VirtAddr{0x10000000};
    seg.span_pages = 1000;
    seg.density = 1.0;
    seg.pattern = AccessPattern::kRandom;
    seg.sojourn_mean = sojourn;
    p.segments = {seg};
    w.processes = {p};
    return w;
  };
  auto page_changes = [](const WorkloadSpec& spec) {
    const Snapshot snap = BuildSnapshot(spec);
    TraceGenerator gen(spec, snap);
    Vpn last{~std::uint64_t{0}};
    std::uint64_t changes = 0;
    for (int i = 0; i < 50000; ++i) {
      const Vpn vpn = VpnOf(gen.Next().va);
      changes += vpn != last;
      last = vpn;
    }
    return changes;
  };
  const auto fast = page_changes(make(4));
  const auto slow = page_changes(make(64));
  EXPECT_GT(fast, slow * 5);
}

// How a run stream was cut, for checking that every cut reason occurred.
struct RunCuts {
  std::uint64_t full = 0;           // Runs of kMaxRunRefs references.
  std::uint64_t one_short = 0;      // Runs of kMaxRunRefs - 1 references.
  std::uint64_t asid_switches = 0;  // Run boundaries that switch process.
};

// Expands `n` references of NextRun output, with each run's max_refs taken
// in turn from `caps`, and checks it against an independent Next() stream:
// the same asid, page and store bit for every reference, and the exact
// address for each run's first one.
RunCuts ExpectRunsMatchNext(const WorkloadSpec& spec, std::uint64_t n,
                            const std::vector<std::uint64_t>& caps) {
  const Snapshot snap = BuildSnapshot(spec);
  TraceGenerator runs(spec, snap);
  TraceGenerator refs(spec, snap);
  RunCuts cuts;
  tlb::Asid last_asid = 0;
  std::uint64_t done = 0;
  for (std::size_t k = 0; done < n; ++k) {
    const std::uint64_t cap = std::min(caps[k % caps.size()], n - done);
    const Run run = runs.NextRun(cap);
    EXPECT_GE(run.count, 1u);
    EXPECT_LE(run.count, std::min<std::uint64_t>(cap, kMaxRunRefs));
    const std::uint64_t writes = run.StoreBits();
    for (std::uint32_t i = 0; i < run.count; ++i) {
      const Reference ref = refs.Next();
      const bool is_write = ((writes >> i) & 1) != 0;
      if (ref.asid != run.asid || VpnOf(ref.va) != VpnOf(run.va) || ref.is_write != is_write ||
          (i == 0 && ref.va != run.va)) {
        ADD_FAILURE() << spec.name << ": run " << k << " reference " << i << " (stream position "
                      << done + i << ") differs from Next()";
        return cuts;
      }
    }
    if (run.count < kMaxRunRefs) {
      EXPECT_EQ(writes >> run.count, 0u) << "store bits past the run's end";
    }
    cuts.full += run.count == kMaxRunRefs;
    cuts.one_short += run.count == kMaxRunRefs - 1;
    cuts.asid_switches += k > 0 && run.asid != last_asid;
    last_asid = run.asid;
    done += run.count;
  }
  return cuts;
}

// The ten traced paper workloads (the kernel is a snapshot only).
const char* const kTracedWorkloads[] = {"coral", "nasa7", "compress", "fftpde", "wave5",
                                        "mp3d",  "spice", "pthor",    "ml",     "gcc"};

// References to replay so the stream crosses slice ends: gcc's first process
// runs for a whole share of the default length, so go past it.
std::uint64_t CrossingLength(const WorkloadSpec& spec) {
  return spec.sequential_processes
             ? spec.default_trace_length / spec.processes.size() + 50'000
             : 200'000;
}

TEST(TraceRunTest, RunsReproduceTheNextStreamForEveryWorkload) {
  // Caps mix unbounded runs, single references, and cuts inside a run.
  const std::vector<std::uint64_t> caps = {1'000'000, 1, 5, 64, 2, 100, 63};
  std::uint64_t full = 0;
  for (const char* name : kTracedWorkloads) {
    const WorkloadSpec& spec = GetPaperWorkload(name);
    const RunCuts cuts = ExpectRunsMatchNext(spec, CrossingLength(spec), caps);
    full += cuts.full;
    if (spec.processes.size() > 1) {
      EXPECT_GT(cuts.asid_switches, 0u) << name << ": no slice cut was exercised";
    }
  }
  EXPECT_GT(full, 0u) << "no sojourn longer than a run was exercised";
}

// A full run jumps the RNG and a shorter one steps it: caps just below, at
// and above kMaxRunRefs put runs of 63 and 64 references, and runs cut
// shorter by sojourn and slice ends, side by side in one stream.
TEST(TraceRunTest, RunsAroundTheJumpMatchTheNextStream) {
  const std::vector<std::uint64_t> caps = {kMaxRunRefs - 1, kMaxRunRefs, kMaxRunRefs + 1};
  RunCuts total;
  for (const char* name : kTracedWorkloads) {
    const WorkloadSpec& spec = GetPaperWorkload(name);
    const RunCuts cuts = ExpectRunsMatchNext(spec, CrossingLength(spec), caps);
    if (spec.processes.size() > 1) {
      EXPECT_GT(cuts.asid_switches, 0u) << name << ": no slice cut was exercised";
    }
    total.full += cuts.full;
    total.one_short += cuts.one_short;
  }
  EXPECT_GT(total.full, 0u) << "no run was jumped";
  EXPECT_GT(total.one_short, 0u) << "no run one short of a jump was stepped";
}

// StoreBits() only reads its run: a stream whose store bits were drawn for
// every run continues exactly like one whose store bits were never drawn.
TEST(TraceRunTest, StoreBitsLeaveTheStreamUnchanged) {
  for (const char* name : {"mp3d", "gcc", "ml"}) {
    const WorkloadSpec& spec = GetPaperWorkload(name);
    const Snapshot snap = BuildSnapshot(spec);
    TraceGenerator read(spec, snap);
    TraceGenerator unread(spec, snap);
    std::uint64_t stores = 0;
    for (int k = 0; k < 20000; ++k) {
      const workload::Run run = read.NextRun(kMaxRunRefs);
      stores += static_cast<std::uint64_t>(std::popcount(run.StoreBits()));
      EXPECT_EQ(run.StoreBits(), run.StoreBits());
      (void)unread.NextRun(kMaxRunRefs);
    }
    EXPECT_GT(stores, 0u) << name;
    for (int k = 0; k < 1000; ++k) {
      const workload::Run a = read.NextRun(kMaxRunRefs);
      const workload::Run b = unread.NextRun(kMaxRunRefs);
      ASSERT_TRUE(a.asid == b.asid && a.va == b.va && a.count == b.count &&
                  a.StoreBits() == b.StoreBits())
          << name << ": run " << k << " after the first 20000 differs";
      const Reference ra = read.Next();
      const Reference rb = unread.Next();
      ASSERT_TRUE(ra.asid == rb.asid && ra.va == rb.va && ra.is_write == rb.is_write)
          << name << ": reference " << k << " after the first 20000 runs differs";
    }
  }
}

TEST(PaperWorkloadsTest, AllElevenPresent) {
  EXPECT_EQ(PaperWorkloads().size(), 11u);
  for (const char* name : {"coral", "nasa7", "compress", "fftpde", "wave5", "mp3d", "spice",
                           "pthor", "ml", "gcc", "kernel"}) {
    EXPECT_EQ(GetPaperWorkload(name).name, name);
  }
}

TEST(PaperWorkloadsTest, MultiprogrammedShapesMatchPaper) {
  EXPECT_EQ(GetPaperWorkload("compress").processes.size(), 2u);
  EXPECT_EQ(GetPaperWorkload("gcc").processes.size(), 5u);
  EXPECT_TRUE(GetPaperWorkload("gcc").sequential_processes);
  EXPECT_FALSE(GetPaperWorkload("compress").sequential_processes);
}

}  // namespace
}  // namespace cpt::workload
