// The traced run: per-layer host time and counts, measured from outside the
// simulator by replaying each cell through its layers one at a time.
//
// For a replay cell it
//   1. buffers the cell's references (workload),
//   2. replays them through sim::Machine::Access (sim),
//   3. replays them through a standalone TLB of the same kind and size, with
//      every fill resolved in advance (tlb),
//   4. replays the captured miss stream through a standalone preloaded page
//      table and CacheTouchModel (pt, mem),
//   5. repeats the Machine replay with the `collect` tracers attached (obs),
//   6. calls MeasureAccessTime untraced, for the end-to-end reference time.
// Steps 3 and 4 must reproduce the Machine's miss and line counts, and the
// Machine's outputs must equal the untraced ones; otherwise the run fails,
// so the per-layer numbers always describe the program the end-to-end
// metrics measured.  Spans are kept in memory and written out at the end.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string_view>

#include "obs/attribution.h"
#include "perfbench/perfbench.h"
#include "tlb/complete_subblock.h"
#include "tlb/partial_subblock.h"
#include "tlb/single_page.h"
#include "tlb/superpage.h"

namespace cpt::perfbench {
namespace {

// Spans around the benchmark's own calls into each layer: name, start,
// end, parent span and cell id, plus the work units the span covered.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    int cell;
    std::uint64_t work;
  };
  struct Total {
    double ns = 0.0;
    std::uint64_t work = 0;
    std::uint64_t count = 0;
  };

  void Begin(const char* name, int cell) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, Now(), 0, open_.empty() ? -1 : open_.back(), cell, 0});
    open_.push_back(id);
  }
  // Closes the innermost open span and returns its duration in ns.
  double End(std::uint64_t work) {
    Span& s = spans_[open_.back()];
    open_.pop_back();
    s.end_ns = Now();
    s.work = work;
    return static_cast<double>(s.end_ns - s.start_ns);
  }

  Total Sum(std::string_view name) const {
    Total t;
    for (const Span& s : spans_) {
      if (name == s.name) {
        t.ns += static_cast<double>(s.end_ns - s.start_ns);
        t.work += s.work;
        ++t.count;
      }
    }
    return t;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"cell\":" << s.cell
          << ",\"work\":" << s.work << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Runs `fn` inside a span and returns the span's duration in ns.
template <typename Fn>
double Timed(SpanLog& log, const char* name, int cell, std::uint64_t work, Fn&& fn) {
  log.Begin(name, cell);
  fn();
  return log.End(work);
}

// The OS and page-table layers of a Machine without the Machine: one frame
// pool, one cache model, and a table plus address space per process, built
// in Machine's order so frames, PTEs and walk lines come out identical.
struct Stack {
  mem::CacheTouchModel cache;
  mem::ReservationAllocator frames;
  std::vector<std::unique_ptr<pt::PageTable>> tables;
  std::vector<std::unique_ptr<os::AddressSpace>> spaces;

  Stack(const sim::MachineOptions& opts, os::PteStrategy strategy, unsigned num_processes)
      : cache(opts.line_size), frames(opts.phys_frames, opts.subblock_factor) {
    for (unsigned p = 0; p < num_processes; ++p) {
      tables.push_back(sim::MakePageTable(opts.pt_kind, cache, opts));
      spaces.push_back(std::make_unique<os::AddressSpace>(
          p, *tables.back(), frames,
          os::AddressSpaceOptions{.strategy = strategy, .subblock_factor = opts.subblock_factor}));
    }
  }

  // The loop Machine::Preload runs.
  void TouchAll(const workload::Snapshot& snapshot) {
    for (std::size_t p = 0; p < snapshot.pages.size(); ++p) {
      for (const auto& seg_pages : snapshot.pages[p]) {
        for (const Vpn vpn : seg_pages) {
          spaces[p]->TouchPage(VaOf(vpn));
        }
      }
    }
  }
};

bool IsLinear(sim::PtKind kind) {
  return kind == sim::PtKind::kLinear6 || kind == sim::PtKind::kLinear1 ||
         kind == sim::PtKind::kLinearHashed;
}

std::unique_ptr<tlb::Tlb> MakeTlb(const sim::MachineOptions& opts, unsigned entries) {
  switch (opts.tlb_kind) {
    case sim::TlbKind::kSinglePage:
      return std::make_unique<tlb::SinglePageTlb>(entries);
    case sim::TlbKind::kSuperpage:
      return std::make_unique<tlb::SuperpageTlb>(entries);
    case sim::TlbKind::kPartialSubblock:
      return std::make_unique<tlb::PartialSubblockTlb>(entries, opts.subblock_factor);
    case sim::TlbKind::kCompleteSubblock:
      return std::make_unique<tlb::CompleteSubblockTlb>(entries, opts.subblock_factor);
  }
  return nullptr;
}

// What a standalone TLB replay inserts, in insert order, and the walks the
// effective TLB's misses cost.
struct TlbPlan {
  struct Miss {
    tlb::Asid asid;
    VirtAddr va;
    bool block;  // Complete-subblock block miss served by a block prefetch.
  };
  std::vector<pt::TlbFill> fills;
  std::vector<pt::TlbFill> block_fills;
  std::vector<std::size_t> block_ends;  // End offset of each prefetch in block_fills.
  std::vector<Miss> misses;
};

// Resolves fills by uncounted walks of a preloaded stack, recording the plan.
class Resolver {
 public:
  Resolver(Stack& stack, unsigned factor, TlbPlan& plan)
      : stack_(stack), factor_(factor), plan_(plan) {}
  bool ok() const { return ok_; }

  pt::TlbFill Uncounted(const workload::Reference& r) {
    stack_.cache.BeginWalk();
    const std::optional<pt::TlbFill> fill = stack_.tables[r.asid]->Lookup(r.va);
    stack_.cache.AbortWalk();
    ok_ &= fill.has_value();
    plan_.fills.push_back(fill.value_or(pt::TlbFill{}));
    return plan_.fills.back();
  }
  pt::TlbFill Counted(const workload::Reference& r) {
    plan_.misses.push_back({r.asid, r.va, false});
    return Uncounted(r);
  }
  std::span<const pt::TlbFill> Block(const workload::Reference& r) {
    plan_.misses.push_back({r.asid, r.va, true});
    block_buf_.clear();
    stack_.cache.BeginWalk();
    stack_.tables[r.asid]->LookupBlock(r.va, factor_, block_buf_);
    stack_.cache.AbortWalk();
    ok_ &= !block_buf_.empty();
    const std::size_t begin = plan_.block_fills.size();
    plan_.block_fills.insert(plan_.block_fills.end(), block_buf_.begin(), block_buf_.end());
    plan_.block_ends.push_back(plan_.block_fills.size());
    return std::span<const pt::TlbFill>(plan_.block_fills).subspan(begin);
  }

 private:
  Stack& stack_;
  unsigned factor_;
  TlbPlan& plan_;
  std::vector<pt::TlbFill> block_buf_;
  bool ok_ = true;
};

// Replays a recorded plan: every fill is already resolved.
class Replayer {
 public:
  explicit Replayer(const TlbPlan& plan) : plan_(plan) {}
  const pt::TlbFill& Uncounted(const workload::Reference&) { return plan_.fills[fill_++]; }
  const pt::TlbFill& Counted(const workload::Reference&) { return plan_.fills[fill_++]; }
  std::span<const pt::TlbFill> Block(const workload::Reference&) {
    const std::size_t begin = block_ == 0 ? 0 : plan_.block_ends[block_ - 1];
    const std::size_t end = plan_.block_ends[block_++];
    return std::span<const pt::TlbFill>(plan_.block_fills).subspan(begin, end - begin);
  }

 private:
  const TlbPlan& plan_;
  std::size_t fill_ = 0;
  std::size_t block_ = 0;
};

// Drives the effective TLB (and, for linear tables, the full-size reference
// TLB) through `refs` with the same calls Machine::Access makes.
template <typename Fills>
void DriveTlbs(tlb::Tlb& tlb, tlb::Tlb* ref_tlb, bool prefetch,
               const std::vector<workload::Reference>& refs, Fills& fills) {
  for (const workload::Reference& r : refs) {
    const Vpn vpn = VpnOf(r.va);
    const bool ref_missed = ref_tlb != nullptr && tlb::IsMiss(ref_tlb->Lookup(r.asid, vpn));
    const tlb::LookupOutcome outcome = tlb.Lookup(r.asid, vpn);
    if (!tlb::IsMiss(outcome)) {
      if (ref_missed) {
        ref_tlb->Insert(r.asid, vpn, fills.Uncounted(r));
      }
      continue;
    }
    if (prefetch && outcome == tlb::LookupOutcome::kBlockMiss) {
      const std::span<const pt::TlbFill> block = fills.Block(r);
      static_cast<tlb::CompleteSubblockTlb&>(tlb).InsertBlock(r.asid, vpn, block);
      if (ref_missed) {
        static_cast<tlb::CompleteSubblockTlb&>(*ref_tlb).InsertBlock(r.asid, vpn, block);
      }
      continue;
    }
    const pt::TlbFill fill = fills.Counted(r);
    tlb.Insert(r.asid, vpn, fill);
    if (ref_missed) {
      ref_tlb->Insert(r.asid, vpn, fill);
    }
  }
}

obs::SegmentClass SegmentClassOf(workload::SegmentKind kind) {
  switch (kind) {
    case workload::SegmentKind::kText:
      return obs::SegmentClass::kText;
    case workload::SegmentKind::kHeap:
      return obs::SegmentClass::kHeap;
    case workload::SegmentKind::kData:
      return obs::SegmentClass::kData;
    case workload::SegmentKind::kMmap:
      return obs::SegmentClass::kMmap;
    case workload::SegmentKind::kStack:
      return obs::SegmentClass::kStack;
    case workload::SegmentKind::kUnknown:
      return obs::SegmentClass::kUnknown;
  }
  return obs::SegmentClass::kUnknown;
}

// The segment map MeasureAccessTime gives its attribution tracer (per-process
// page tables, so segment bases are not salted).
obs::SegmentMap SegmentMapOf(const workload::WorkloadSpec& spec) {
  obs::SegmentMap map;
  for (std::size_t p = 0; p < spec.processes.size(); ++p) {
    for (const workload::Segment& seg : spec.processes[p].segments) {
      const Vpn begin = VpnOf(seg.base);
      map.Add(static_cast<std::uint16_t>(p), begin, begin + seg.span_pages,
              SegmentClassOf(seg.kind));
    }
  }
  return map;
}

// References per traced chunk: 1.5 MiB of buffered references.
constexpr std::uint64_t kChunk = 1 << 16;

// Exact per-layer counts, taken from the first pass only (every pass
// repeats them).
struct Counts {
  std::uint64_t refs = 0;
  std::uint64_t same_page = 0;
  tlb::TlbStats tlb;
  std::uint64_t walks = 0;
  std::uint64_t lines = 0;
  CellHealth health;
  std::uint64_t grants = 0;
  std::uint64_t placed_grants = 0;
  std::uint64_t reservations_broken = 0;
  std::uint64_t pt_bytes = 0;
  std::uint64_t events = 0;

  void AddMachine(const sim::Machine& m, const CellHealth& h) {
    health.Add(h);
    grants += m.frames().grants();
    placed_grants += m.frames().properly_placed_grants();
    reservations_broken += m.frames().reservations_broken();
    pt_bytes += m.TotalPtBytesPaperModel();
  }
};

class TracedRun {
 public:
  TracedRun(const Args& args, const Workload& w, const References& refs, Result& result)
      : args_(args), w_(w), refs_(refs), result_(result) {}

  void Run() {
    const Clock::time_point t0 = Clock::now();
    for (pass_ = 0; pass_ == 0 || SecondsSince(t0) < args_.seconds; ++pass_) {
      log_.Begin("pass", -1);
      for (std::size_t i = 0; i < w_.replays.size(); ++i) {
        ReplayCellTraced(static_cast<int>(i), w_.replays[i]);
      }
      for (std::size_t i = 0; i < w_.sizes.size(); ++i) {
        SizeCellTraced(static_cast<int>(i), w_.sizes[i]);
      }
      log_.End(0);
    }
    const std::string path = args_.out_dir + "/spans-" + w_.name + "-seed" +
                             std::to_string(args_.seed) + ".jsonl";
    if (!log_.Write(path)) {
      Fail("cannot write spans to " + path);
    }
    std::printf("spans: %s (%d passes)\n", path.c_str(), pass_);
    Report();
  }

 private:
  void Fail(const std::string& what) {
    std::cerr << "perfbench: traced run: " << what << "\n";
    result_.correct = false;
    cell_ok_ = false;
  }
  void Expect(bool ok, const std::string& key, const char* what) {
    if (!ok) {
      Fail(key + ": " + what);
    }
  }
  void Close(std::uint64_t work) {
    result_.attempted += work;
    if (!cell_ok_) {
      result_.failed += work;
    }
  }

  // Replays the cell chunk by chunk, so the buffered references stay in
  // cache; every layer's span covers one chunk.
  void ReplayCellTraced(int id, const ReplayCell& c) {
    cell_ok_ = true;
    const std::uint64_t n = c.trace_len;
    const auto nproc = static_cast<unsigned>(c.spec->processes.size());
    log_.Begin("cell", id);

    // Untraced end-to-end call first, while no traced objects hold memory:
    // the outputs every step below must agree with.
    sim::AccessMeasurement measured;
    const double measure_ns = Timed(log_, "sim.measure", id, n, [&] {
      measured = sim::MeasureAccessTime(*c.spec, c.opts, n, {.collect = c.collect});
    });

    workload::Snapshot snap;
    const double snapshot_ns = Timed(log_, "workload.snapshot", id, 1, [&] {
      snap = workload::BuildSnapshot(*c.spec);
    });
    const std::uint64_t pages = snap.TotalPages();
    std::unique_ptr<sim::Machine> m;
    const double preload_ns = Timed(log_, "sim.preload", id, 1, [&] {
      m = std::make_unique<sim::Machine>(c.opts, nproc);
      m->Preload(snap);
    });

    // Standalone OS + page-table stack, preloaded through TouchPage.
    Stack stack(c.opts, m->address_space(0).strategy(), nproc);
    const double touch_ns = Timed(log_, "os.touch", id, pages, [&] { stack.TouchAll(snap); });
    InsertBaseAll(id, c.opts, snap);

    // The same Machine with the collect tracers attached.
    sim::Machine mc(c.opts, nproc);
    mc.Preload(snap);
    const obs::SegmentMap segments = SegmentMapOf(*c.spec);
    obs::StatsTracer stats;
    obs::AttributionTracer attribution(&segments, &stats);
    mc.AttachTracer(&attribution);

    // Two standalone TLB sets: one resolves each chunk's fills, the other
    // replays the chunk with the fills already resolved.
    const bool prefetch =
        c.opts.tlb_kind == sim::TlbKind::kCompleteSubblock && c.opts.prefetch_on_block_miss;
    const unsigned entries = m->tlb().num_entries();
    const bool linear = IsLinear(c.opts.pt_kind);
    auto resolve_tlb = MakeTlb(c.opts, entries);
    auto resolve_ref = linear ? MakeTlb(c.opts, c.opts.tlb_entries) : nullptr;
    auto tlb = MakeTlb(c.opts, entries);
    auto ref_tlb = linear ? MakeTlb(c.opts, c.opts.tlb_entries) : nullptr;

    workload::TraceGenerator gen(*c.spec, snap);
    std::vector<workload::Reference> refs;
    std::vector<pt::TlbFill> block;
    block.reserve(c.opts.subblock_factor);
    TlbPlan plan;
    double gen_ns = 0.0;
    double access_ns = 0.0;
    double probe_ns = 0.0;
    double walk_ns = 0.0;
    double collect_ns = 0.0;
    workload::Reference prev{.asid = tlb::Asid(~0)};
    for (std::uint64_t done = 0; done < n; done += refs.size()) {
      refs.resize(std::min<std::uint64_t>(kChunk, n - done));
      gen_ns += Timed(log_, "workload.gen", id, refs.size(), [&] {
        for (workload::Reference& r : refs) {
          r = gen.Next();
        }
      });
      access_ns += Timed(log_, "sim.access", id, refs.size(), [&] {
        for (const workload::Reference& r : refs) {
          m->Access(r.asid, r.va, r.is_write);
        }
      });

      plan = TlbPlan{};
      Resolver resolver(stack, c.opts.subblock_factor, plan);
      DriveTlbs(*resolve_tlb, resolve_ref.get(), prefetch, refs, resolver);
      Expect(resolver.ok(), c.key, "a TLB fill did not resolve in the preloaded table");
      Replayer replayer(plan);
      probe_ns += Timed(log_, "tlb.probe", id, refs.size(), [&] {
        DriveTlbs(*tlb, ref_tlb.get(), prefetch, refs, replayer);
      });

      // The chunk's miss stream, walked through the standalone table.
      walk_ns += Timed(log_, "pt.walk", id, plan.misses.size(), [&] {
        for (const TlbPlan::Miss& miss : plan.misses) {
          stack.cache.BeginWalk();
          if (miss.block) {
            block.clear();
            stack.tables[miss.asid]->LookupBlock(miss.va, c.opts.subblock_factor, block);
          } else {
            static_cast<void>(stack.tables[miss.asid]->Lookup(miss.va));
          }
          stack.cache.EndWalk();
        }
      });

      collect_ns += Timed(log_, "obs.collect", id, refs.size(), [&] {
        for (const workload::Reference& r : refs) {
          mc.Access(r.asid, r.va, r.is_write);
        }
      });

      if (pass_ == 0) {
        for (const workload::Reference& r : refs) {
          counts_.same_page += r.asid == prev.asid && VpnOf(r.va) == VpnOf(prev.va);
          prev = r;
        }
      }
    }

    // Layer isolation: every standalone replay must reproduce the Machine.
    const std::string line = ReplayLine(c.key, *m, n);
    Expect(m->TotalPageFaults() == pages, c.key, "the trace faulted on a page the snapshot lacks");
    const tlb::TlbStats& ts = tlb->stats();
    const tlb::TlbStats& ms = m->tlb().stats();
    Expect(ts.accesses == ms.accesses && ts.misses == ms.misses &&
               ts.block_misses == ms.block_misses && ts.subblock_misses == ms.subblock_misses,
           c.key, "standalone TLB misses differ from the Machine's");
    Expect((ref_tlb ? ref_tlb->stats().misses : ts.misses) == m->DenominatorMisses(), c.key,
           "standalone reference-TLB misses differ from the Machine's");
    Expect(stack.cache.total_lines() == m->cache().total_lines() &&
               stack.cache.total_walks() == m->cache().total_walks(),
           c.key, "miss-stream walk lines differ from Machine::cache()");
    static_cast<void>(attribution.Result());
    Expect(ReplayLine(c.key, mc, n) == line, c.key, "collect tracers changed simulated counts");
    const CellHealth health = HealthOf(*m);
    Expect(health.ok(), c.key, "references dropped or audit defects");

    Expect(ReplayLine(c.key, measured) == line, c.key,
           "traced replay (with is_write) differs from untraced MeasureAccessTime");
    Expect(MatchesReference(refs_, c.key, line), c.key, "output differs from its reference");

    if (pass_ == 0) {
      counts_.refs += n;
      counts_.tlb.accesses += ms.accesses;
      counts_.tlb.hits += ms.hits;
      counts_.tlb.misses += ms.misses;
      counts_.tlb.block_misses += ms.block_misses;
      counts_.tlb.subblock_misses += ms.subblock_misses;
      counts_.walks += m->cache().total_walks();
      counts_.lines += m->cache().total_lines();
      counts_.events += stats.counts().total();
      counts_.AddMachine(*m, health);
    }

    const double collect_extra = c.collect ? collect_ns - access_ns : 0.0;
    traced_ns_ += snapshot_ns + preload_ns + gen_ns + (c.collect ? collect_ns : access_ns);
    isolated_ns_ += snapshot_ns + touch_ns + gen_ns + probe_ns + walk_ns + collect_extra;
    measure_ns_ += measure_ns;
    log_.End(n);
    Close(n);
  }

  void SizeCellTraced(int id, const SizeCell& c) {
    cell_ok_ = true;
    log_.Begin("cell", id);
    sim::SizeMeasurement measured;
    const double measure_ns = Timed(log_, "sim.measure", id, 0, [&] {
      measured = sim::MeasurePtSize(*c.spec, c.config);
    });

    workload::Snapshot snap;
    const double snapshot_ns = Timed(log_, "workload.snapshot", id, 1, [&] {
      snap = workload::BuildSnapshot(*c.spec);
    });
    const std::uint64_t pages = snap.TotalPages();
    const auto nproc = static_cast<unsigned>(c.spec->processes.size());

    // The two builds MeasurePtSize makes, one after the other, each followed
    // by the same TouchPage loop on a standalone stack.
    sim::SizeMeasurement traced;
    double preload_ns = 0.0;
    double touch_ns = 0.0;
    for (const bool baseline : {false, true}) {
      const sim::PtKind kind = baseline ? sim::PtKind::kHashed : c.config.pt_kind;
      const os::PteStrategy strategy = baseline ? os::PteStrategy::kBaseOnly : c.config.strategy;
      std::unique_ptr<sim::Machine> m;
      preload_ns += Timed(log_, "sim.preload", id, pages, [&] {
        m = std::make_unique<sim::Machine>(SizedOptions(kind, strategy), nproc);
        m->Preload(snap);
      });
      if (baseline) {
        traced.hashed_bytes = m->TotalPtBytesPaperModel();
      } else {
        ReadMeasured(*m, traced);
      }
      const CellHealth health = HealthOf(*m);
      Expect(health.ok(), c.key, "pages dropped or audit defects");
      if (pass_ == 0) {
        counts_.AddMachine(*m, health);
      }
      m.reset();
      Stack stack(SizedOptions(kind, strategy), strategy, nproc);
      touch_ns += Timed(log_, "os.touch", id, pages, [&] { stack.TouchAll(snap); });
    }
    InsertBaseAll(id, SizedOptions(c.config.pt_kind, c.config.strategy), snap);

    const std::string line = SizeLine(c.key, traced);
    Expect(SizeLine(c.key, measured) == line, c.key,
           "traced build differs from untraced MeasurePtSize");
    Expect(MatchesReference(refs_, c.key, line), c.key, "output differs from its reference");

    traced_ns_ += snapshot_ns + preload_ns;
    isolated_ns_ += snapshot_ns + touch_ns;
    measure_ns_ += measure_ns;
    log_.End(2 * pages);
    Close(2 * pages);
  }

  // Standalone pt::PageTable::InsertBase of every snapshot page, one table
  // per process, tables built before the span opens.
  void InsertBaseAll(int id, const sim::MachineOptions& opts, const workload::Snapshot& snap) {
    mem::CacheTouchModel cache(opts.line_size);
    std::vector<std::unique_ptr<pt::PageTable>> tables;
    for (std::size_t p = 0; p < snap.pages.size(); ++p) {
      tables.push_back(sim::MakePageTable(opts.pt_kind, cache, opts));
    }
    Timed(log_, "pt.insert", id, snap.TotalPages(), [&] {
      std::uint64_t frame = 0;
      for (std::size_t p = 0; p < snap.pages.size(); ++p) {
        for (const auto& seg_pages : snap.pages[p]) {
          for (const Vpn vpn : seg_pages) {
            tables[p]->InsertBase(vpn, Ppn{frame++}, Attr::ReadWrite());
          }
        }
      }
    });
  }

  void Report();

  const Args& args_;
  const Workload& w_;
  const References& refs_;
  Result& result_;
  SpanLog log_;
  Counts counts_;
  int pass_ = 0;
  bool cell_ok_ = true;
  double traced_ns_ = 0.0;
  double isolated_ns_ = 0.0;
  double measure_ns_ = 0.0;
};

void TracedRun::Report() {
  const auto per = [](double ns, double work) { return work > 0 ? ns / work : 0.0; };
  const SpanLog::Total gen = log_.Sum("workload.gen");
  const SpanLog::Total access = log_.Sum("sim.access");
  const SpanLog::Total probe = log_.Sum("tlb.probe");
  const SpanLog::Total walk = log_.Sum("pt.walk");
  const SpanLog::Total collect = log_.Sum("obs.collect");
  const SpanLog::Total snapshot = log_.Sum("workload.snapshot");
  const SpanLog::Total preload = log_.Sum("sim.preload");
  const SpanLog::Total touch = log_.Sum("os.touch");
  const SpanLog::Total insert = log_.Sum("pt.insert");
  const auto refs = static_cast<double>(access.work);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const Counts& c = counts_;
  const double access_ns = per(access.ns, refs);
  const double probe_ns = per(probe.ns, refs);
  result_.metrics = {
      {"workload.gen_ns_per_ref", per(gen.ns, d(gen.work)), "ns/ref"},
      {"workload.same_page_frac", per(d(c.same_page), d(c.refs)), "ratio"},
      {"workload.snapshot_ms", per(snapshot.ns, d(snapshot.count)) / 1e6, "ms"},
      {"tlb.probe_ns_per_ref", probe_ns, "ns/ref"},
      {"tlb.hit_ratio", per(d(c.tlb.hits), d(c.tlb.accesses)), "ratio"},
      {"tlb.lookups", d(c.tlb.accesses), "count"},
      {"tlb.misses", d(c.tlb.misses), "count"},
      {"tlb.block_misses", d(c.tlb.block_misses), "count"},
      {"tlb.subblock_misses", d(c.tlb.subblock_misses), "count"},
      {"pt.walk_ns", per(walk.ns, d(walk.work)), "ns/walk"},
      {"pt.walks", d(c.walks), "count"},
      {"mem.lines", d(c.lines), "count"},
      {"mem.lines_per_walk", per(d(c.lines), d(c.walks)), "lines/walk"},
      {"pt.insert_ns", per(insert.ns, d(insert.work)), "ns/page"},
      {"os.touch_ns", per(touch.ns, d(touch.work)), "ns/page"},
      {"os.faults", d(c.health.faults), "count"},
      {"os.promotions", d(c.health.promotions), "count"},
      {"os.psb_updates", d(c.health.psb_updates), "count"},
      {"os.placement_failures", d(c.health.placement_failures), "count"},
      {"os.oom_faults", d(c.health.oom_faults), "count"},
      {"mem.grants", d(c.grants), "count"},
      {"mem.placed_frac", per(d(c.placed_grants), d(c.grants)), "ratio"},
      {"mem.reservations_broken", d(c.reservations_broken), "count"},
      {"pt.bytes", d(c.pt_bytes), "B"},
      {"sim.access_ns_per_ref", access_ns, "ns/ref"},
      {"sim.self_ns_per_ref", refs > 0 ? access_ns - probe_ns - walk.ns / refs : 0.0, "ns/ref"},
      {"sim.preload_ms", per(preload.ns, d(preload.count)) / 1e6, "ms"},
      {"obs.collect_ns_per_ref", per(collect.ns - access.ns, refs), "ns/ref"},
      {"obs.events", d(c.events), "count"},
      {"check.defects", d(c.health.defects), "count"},
      {"check.failed_frac", per(d(result_.failed), d(result_.attempted)), "ratio"},
      {"trace.overhead_frac", measure_ns_ > 0 ? traced_ns_ / measure_ns_ - 1.0 : 0.0, "ratio"},
      {"trace.coverage", per(isolated_ns_, measure_ns_), "ratio"},
  };
}

}  // namespace

void RunTraced(const Args& args, const Workload& w, const References& refs, Result& result) {
  TracedRun(args, w, refs, result).Run();
}

}  // namespace cpt::perfbench
