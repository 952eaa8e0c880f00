// The hot-path allocation check (common/hotguard.h): a HotPathScope makes
// any heap allocation on its thread abort with an attributable message, and
// a preloaded replay of a paper workload runs its steady state under the
// guard without tripping, for every supported (PtKind, TlbKind) pair.
#include "common/hotguard.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <vector>

#include "collect_chain.h"
#include "machine_combos.h"
#include "sim/machine.h"
#include "workload/workload.h"

namespace cpt {
namespace {

TEST(HotGuardTest, InactiveByDefault) {
  EXPECT_FALSE(HotPathScope::ActiveOnThisThread());
  std::vector<int> v;
  v.push_back(1);  // Allocates through the replaced operator new; legal here.
  EXPECT_EQ(v.size(), 1u);
}

TEST(HotGuardTest, ScopeNestsAndUnwinds) {
  {
    HotPathScope outer("outer");
    EXPECT_TRUE(HotPathScope::ActiveOnThisThread());
    {
      HotPathScope inner("inner");
      EXPECT_TRUE(HotPathScope::ActiveOnThisThread());
    }
    EXPECT_TRUE(HotPathScope::ActiveOnThisThread());
  }
  EXPECT_FALSE(HotPathScope::ActiveOnThisThread());
}

TEST(HotGuardTest, FreeingInsideScopeIsLegal) {
  // Deletes never trip: releasing memory is not the failure mode the guard
  // hunts, and steady-state code may legitimately return nodes to pools.
  void* p = ::operator new(64);
  {
    HotPathScope guard("free-only");
    ::operator delete(p);
  }
}

TEST(HotGuardDeathTest, AllocationInsideScopeTrips) {
  // A direct operator-new call cannot be elided, unlike a new-expression.
  EXPECT_DEATH(
      {
        HotPathScope guard("hotguard_test.deliberate_alloc");
        void* p = ::operator new(16);
        ::operator delete(p);  // Unreachable; silences the unused result.
      },
      "HotPathScope violation: .*hotguard_test.deliberate_alloc");
}

TEST(HotGuardDeathTest, ContainerGrowthInsideScopeTrips) {
  std::vector<int> v;
  EXPECT_DEATH(
      {
        HotPathScope guard("hotguard_test.container_growth");
        for (int i = 0; i < 1024; ++i) {
          v.push_back(i);
        }
      },
      "HotPathScope violation");
}

// After Preload() and a warm-up replay has grown every pool and scratch
// buffer to its high-water mark, a further replay slice performs zero heap
// allocations — on the conventional hashed organization and on the paper's
// clustered table.
TEST(HotGuardTest, SteadyStateReplayDoesNotAllocate) {
  for (const sim::PtKind pt : {sim::PtKind::kHashed, sim::PtKind::kClustered}) {
    SCOPED_TRACE(sim::ToString(pt));
    sim::MachineOptions opts;
    opts.pt_kind = pt;
    const auto& spec = workload::GetPaperWorkload("mp3d");
    const auto snap = workload::BuildSnapshot(spec);
    sim::Machine m(opts, 1);
    m.Preload(snap);
    workload::TraceGenerator gen(spec, snap);
    for (int i = 0; i < 30000; ++i) {
      const auto r = gen.Next();
      m.Access(r.asid, r.va);
    }
    // Steady state: the guard aborts the test on the first allocation.
    HotPathScope guard("hotguard_test.steady_state_replay");
    for (int i = 0; i < 30000; ++i) {
      const auto r = gen.Next();
      m.Access(r.asid, r.va);
    }
  }
}

// The same proof for run-length replay (Machine::AccessRun) over every
// supported (PtKind, TlbKind) pair: each TLB design's probe and fill, each
// organization's counted walk, and the linear tables' reference TLB.
TEST(HotGuardTest, SteadyStateRunReplayDoesNotAllocate) {
  const auto& spec = workload::GetPaperWorkload("mp3d");
  const auto snap = workload::BuildSnapshot(spec);
  int pairs = 0;
  for (const sim::PtKind pt : testutil::kAllPtKinds) {
    for (const sim::TlbKind tlb : testutil::kAllTlbKinds) {
      if (!testutil::CombinationSupported(pt, tlb)) {
        continue;
      }
      SCOPED_TRACE(sim::ToString(pt) + " / " + sim::ToString(tlb));
      ++pairs;
      sim::MachineOptions opts;
      opts.pt_kind = pt;
      opts.tlb_kind = tlb;
      sim::Machine m(opts, 1);
      m.Preload(snap);
      workload::TraceGenerator gen(spec, snap);
      const auto replay = [&](std::uint64_t n) {
        for (std::uint64_t done = 0; done < n;) {
          const workload::Run run = gen.NextRun(n - done);
          m.AccessRun(run);
          done += run.count;
        }
      };
      replay(30000);
      HotPathScope guard("hotguard_test.steady_state_run_replay");
      replay(30000);
    }
  }
  EXPECT_EQ(pairs, 36);
}

// The same replay with the collect chain attached (attribution ->
// histograms -> ring buffer): a settled run tail is one batched kTlbHit,
// and neither the batch nor the walks between runs may allocate.
TEST(HotGuardTest, SteadyStateCollectRunReplayDoesNotAllocate) {
  for (const sim::PtKind pt : {sim::PtKind::kClustered, sim::PtKind::kLinear1}) {
    SCOPED_TRACE(sim::ToString(pt));
    sim::MachineOptions opts;
    opts.pt_kind = pt;
    const auto& spec = workload::GetPaperWorkload("mp3d");
    const auto snap = workload::BuildSnapshot(spec);
    sim::Machine m(opts, 1);
    m.Preload(snap);
    testutil::CollectChain chain(spec, opts.shared_page_table, /*ring_capacity=*/4096);
    m.AttachTracer(chain.head());
    workload::TraceGenerator gen(spec, snap);
    const auto replay = [&](std::uint64_t n) {
      for (std::uint64_t done = 0; done < n;) {
        const workload::Run run = gen.NextRun(n - done);
        m.AccessRun(run);
        done += run.count;
      }
    };
    // Warm-up fills the ring past a wrap and sizes the histograms.
    replay(30000);
    ASSERT_GT(chain.ring.dropped(), 0u);
    HotPathScope guard("hotguard_test.steady_state_collect_run_replay");
    replay(30000);
  }
}

}  // namespace
}  // namespace cpt
