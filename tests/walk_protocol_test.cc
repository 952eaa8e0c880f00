// The walk-event protocol every page table publishes through
// pt::WalkRecorder: one kWalkStep{step, lines so far} per node or level a
// probe reads, numbered from 1 in each probe, and at most one kWalkHit at
// the step that produced the fill (step 0 for a software-TLB hit).
// Attribution and the baselines count these events but never read their
// `step` or `lines`, so these tests pin the fields themselves: a property
// over every organization and TLB design, and exact sequences for
// hand-built chains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>

#include "core/adaptive.h"
#include "core/clustered.h"
#include "machine_combos.h"
#include "mem/cache_model.h"
#include "obs/trace.h"
#include "pt/hashed.h"
#include "pt/multi_hashed.h"
#include "sim/machine.h"
#include "workload/workload.h"

namespace cpt {
namespace {

// --- The property, over every organization and TLB design ----------------

// (page table, TLB, software-TLB backing).
using ProtocolParam = std::tuple<sim::PtKind, sim::TlbKind, bool>;

class WalkProtocolTest : public ::testing::TestWithParam<ProtocolParam> {};

// Replays the start of coral's trace twice on 64-bucket tables, so chains
// run several nodes long: the first pass faults every page in (nothing is
// preloaded), the second walks the populated tables.  R/M-bit maintenance
// adds uncounted walks.  Then checks every event of the stream:
//   - a kWalkStep's step is 1 (a probe starts) or the previous step + 1;
//   - its lines never fall within a probe, and no step's lines exceed the
//     kWalkEnd total of its walk;
//   - a kWalkHit's step is that of the kWalkStep just before it, or 0 right
//     after a kSwTlbHit.
TEST_P(WalkProtocolTest, StepsCountUpPerProbeAndHitsNameTheirStep) {
  const auto [pt, tlb, swtlb] = GetParam();
  if (!testutil::CombinationSupported(pt, tlb)) {
    GTEST_SKIP() << "combination not supported by design";
  }
  sim::MachineOptions opts;
  opts.pt_kind = pt;
  opts.tlb_kind = tlb;
  opts.maintain_ref_bits = true;
  opts.swtlb_sets = swtlb ? 16 : 0;
  opts.num_buckets = 64;
  const auto& spec = workload::GetPaperWorkload("coral");
  const workload::Snapshot snap = workload::BuildSnapshot(spec);
  sim::Machine machine(opts, static_cast<unsigned>(spec.processes.size()));
  obs::RingBufferTracer ring(1 << 18);
  machine.AttachTracer(&ring);
  for (int pass = 0; pass < 2; ++pass) {
    workload::TraceGenerator gen(spec, snap);
    for (int i = 0; i < 20000; ++i) {
      const workload::Reference r = gen.Next();
      machine.Access(r.asid, r.va, r.is_write);
    }
  }
  ASSERT_EQ(ring.dropped(), 0u) << "the ring must hold the whole stream";
  ASSERT_GT(machine.TotalPageFaults(), 0u);

  std::uint64_t steps = 0;
  std::uint64_t hits = 0;
  std::uint32_t walk_max_lines = 0;  // Over the open walk's steps.
  std::optional<obs::WalkEvent> prev;
  for (const obs::WalkEvent& e : ring.Events()) {
    switch (e.kind) {
      case obs::EventKind::kWalkStep: {
        ++steps;
        const bool continues = prev && prev->kind == obs::EventKind::kWalkStep;
        if (e.step != 1) {
          ASSERT_TRUE(continues && e.step == prev->step + 1)
              << "step " << e.step << " of vpn " << e.vpn.raw() << " does not follow step "
              << (continues ? prev->step : 0);
          EXPECT_GE(e.lines, prev->lines) << "lines fell within a probe";
        }
        EXPECT_GE(e.lines, 1u) << "a step reads a line";
        walk_max_lines = std::max(walk_max_lines, e.lines);
        break;
      }
      case obs::EventKind::kWalkHit:
        ++hits;
        ASSERT_TRUE(prev.has_value());
        if (prev->kind == obs::EventKind::kSwTlbHit) {
          EXPECT_EQ(e.step, 0u) << "a TSB hit reads no structure";
          EXPECT_EQ(obs::WalkHitClassOf(e.value), obs::WalkHitClass::kSwTlb);
        } else {
          ASSERT_EQ(prev->kind, obs::EventKind::kWalkStep) << "a hit follows its step";
          EXPECT_EQ(e.step, prev->step) << "vpn " << e.vpn.raw();
        }
        break;
      case obs::EventKind::kWalkEnd:
        EXPECT_LE(walk_max_lines, e.lines) << "a step saw more lines than its walk";
        walk_max_lines = 0;
        break;
      case obs::EventKind::kWalkAbort:
        walk_max_lines = 0;
        break;
      case obs::EventKind::kTlbHit:
      case obs::EventKind::kTlbMiss:
      case obs::EventKind::kTlbBlockMiss:
      case obs::EventKind::kTlbSubblockMiss:
      case obs::EventKind::kPageFault:
      case obs::EventKind::kPtePromotion:
      case obs::EventKind::kBlockPrefetch:
      case obs::EventKind::kReservationGrant:
      case obs::EventKind::kSwTlbHit:
      case obs::EventKind::kSwTlbMiss:
        break;
    }
    prev = e;
  }
  EXPECT_GT(steps, 0u);
  EXPECT_GT(hits, 0u);
}

std::string ProtocolName(const ::testing::TestParamInfo<ProtocolParam>& info) {
  std::string name = sim::ToString(std::get<0>(info.param)) + "_" +
                     sim::ToString(std::get<1>(info.param)) +
                     (std::get<2>(info.param) ? "_swtlb" : "");
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, WalkProtocolTest,
                         ::testing::Combine(::testing::ValuesIn(testutil::kAllPtKinds),
                                            ::testing::ValuesIn(testutil::kAllTlbKinds),
                                            ::testing::Bool()),
                         ProtocolName);

// --- Exact sequences for hand-built chains -------------------------------
//
// One bucket, so every node shares one chain, and 64-byte lines; every
// node starts on a line and a new node goes on at the head of its chain.
// The chain's first node is charged at the bucket's embedded head slot.

constexpr std::uint32_t kLine = 64;

// One counted walk of `table` for `vpn`, as "step<k>@<lines>" per
// kWalkStep, "hit<k>" per kWalkHit and "end<lines>" for kWalkEnd.
std::string WalkEvents(pt::PageTable& table, Vpn vpn) {
  obs::RingBufferTracer ring;
  table.cache().set_tracer(&ring);
  {
    mem::WalkScope scope(table.cache());
    (void)table.Lookup(VaOf(vpn));
  }
  table.cache().set_tracer(nullptr);
  std::string out;
  for (const obs::WalkEvent& e : ring.Events()) {
    if (e.kind == obs::EventKind::kWalkStep) {
      out += "step" + std::to_string(e.step) + "@" + std::to_string(e.lines) + " ";
    } else if (e.kind == obs::EventKind::kWalkHit) {
      out += "hit" + std::to_string(e.step) + " ";
    } else if (e.kind == obs::EventKind::kWalkEnd) {
      out += "end" + std::to_string(e.lines);
    }
  }
  return out;
}

TEST(WalkProtocolSequenceTest, HashedTwoNodeChain) {
  mem::CacheTouchModel cache(kLine);
  pt::HashedPageTable t(cache, {.num_buckets = 1});
  t.InsertBase(Vpn{0x100}, Ppn{1}, Attr::ReadWrite());
  t.InsertBase(Vpn{0x200}, Ppn{2}, Attr::ReadWrite());
  // 0x200 sits in the head slot; 0x100 is the second node, on its own line.
  EXPECT_EQ(WalkEvents(t, Vpn{0x200}), "step1@1 hit1 end1");
  EXPECT_EQ(WalkEvents(t, Vpn{0x100}), "step1@1 step2@2 hit2 end2");
  EXPECT_EQ(WalkEvents(t, Vpn{0x300}), "step1@1 step2@2 end2") << "a miss walks the chain";
}

TEST(WalkProtocolSequenceTest, InvertedHashedTwoNodeChain) {
  // The head slot is a pointer on its own line: every node costs one more.
  mem::CacheTouchModel cache(kLine);
  pt::HashedPageTable t(cache, {.num_buckets = 1, .inverted = true});
  t.InsertBase(Vpn{0x100}, Ppn{1}, Attr::ReadWrite());
  t.InsertBase(Vpn{0x200}, Ppn{2}, Attr::ReadWrite());
  EXPECT_EQ(WalkEvents(t, Vpn{0x200}), "step1@2 hit1 end2");
  EXPECT_EQ(WalkEvents(t, Vpn{0x100}), "step1@2 step2@3 hit2 end3");
}

TEST(WalkProtocolSequenceTest, SuperpageIndexTwoNodeChain) {
  // Two base pages of one block share the block's bucket.
  mem::CacheTouchModel cache(kLine);
  pt::HashedPageTable t(cache, {.num_buckets = 1, .tag_shift = 4});
  t.InsertBase(Vpn{0x4001}, Ppn{1}, Attr::ReadWrite());
  t.InsertBase(Vpn{0x4002}, Ppn{2}, Attr::ReadWrite());
  EXPECT_EQ(WalkEvents(t, Vpn{0x4002}), "step1@1 hit1 end1");
  EXPECT_EQ(WalkEvents(t, Vpn{0x4001}), "step1@1 step2@2 hit2 end2");
}

TEST(WalkProtocolSequenceTest, ClusteredTwoNodeChain) {
  // A 16-page node is 144 bytes: word 15 lies on the node's third line,
  // which the walk reads after its last step.
  mem::CacheTouchModel cache(kLine);
  core::ClusteredPageTable t(cache, {.num_buckets = 1, .subblock_factor = 16});
  t.InsertBase(Vpn{0x40F}, Ppn{1}, Attr::ReadWrite());
  t.InsertBase(Vpn{0x800}, Ppn{2}, Attr::ReadWrite());
  EXPECT_EQ(WalkEvents(t, Vpn{0x800}), "step1@1 hit1 end1");
  EXPECT_EQ(WalkEvents(t, Vpn{0x40F}), "step1@1 step2@2 hit2 end3");
}

TEST(WalkProtocolSequenceTest, AdaptiveTwoNodeChain) {
  // Two single-page nodes of one block: the head's tag matches but its
  // page does not, so the walk goes on to the second node.
  mem::CacheTouchModel cache(kLine);
  core::AdaptiveClusteredPageTable t(cache, {.num_buckets = 1, .subblock_factor = 16});
  t.InsertBase(Vpn{0x401}, Ppn{1}, Attr::ReadWrite());
  t.InsertBase(Vpn{0x402}, Ppn{2}, Attr::ReadWrite());
  EXPECT_EQ(WalkEvents(t, Vpn{0x402}), "step1@1 hit1 end1");
  EXPECT_EQ(WalkEvents(t, Vpn{0x401}), "step1@1 step2@2 hit2 end2");
}

TEST(WalkProtocolSequenceTest, MultiTableHashedRestartsItsCountPerTable) {
  // Base-first: the superpage misses the base table (one node) and hits the
  // block table, whose steps count from 1 again.  Block-first reverses it.
  for (const auto order : {pt::MultiTableHashed::SearchOrder::kBaseFirst,
                           pt::MultiTableHashed::SearchOrder::kBlockFirst}) {
    mem::CacheTouchModel cache(kLine);
    pt::MultiTableHashed t(cache, {.num_buckets = 1, .order = order});
    t.InsertBase(Vpn{0x9000}, Ppn{0x1}, Attr::ReadWrite());
    t.InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x100}, Attr::ReadWrite());
    const bool base_first = order == pt::MultiTableHashed::SearchOrder::kBaseFirst;
    SCOPED_TRACE(base_first ? "base-first" : "block-first");
    EXPECT_EQ(WalkEvents(t, Vpn{0x4005}), base_first ? "step1@1 step1@2 hit1 end2"
                                                     : "step1@1 hit1 end1");
    EXPECT_EQ(WalkEvents(t, Vpn{0x9000}), base_first ? "step1@1 hit1 end1"
                                                     : "step1@1 step1@2 hit1 end2");
  }
}

}  // namespace
}  // namespace cpt
