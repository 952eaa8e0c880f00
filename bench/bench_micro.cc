// Wall-clock microbenchmarks of the page-table hot paths.
//
// The paper's metric is counted cache lines, not host nanoseconds, but the
// data-structure work itself (hash, chain walk, array index) is also worth
// tracking: it is the instruction overhead Section 6.1 argues is small on
// superscalar processors — and it is the quantity the CI throughput gate
// (tools/bench_diff.py --throughput-tol vs BENCH_throughput.json) watches.
//
// Harness: each benchmark runs CPT_MICRO_WARMUP discarded repetitions, then
// CPT_MICRO_REPS timed repetitions of CPT_MICRO_ITERS operations; the gate
// metric is the *median* refs/sec over the timed reps (medians shrug off
// one preempted rep, which on shared CI runners is the common noise mode).
// Each timed rep is bracketed by obs::HostPerfCounters, so the JSON report
// carries cycles/IPC/dTLB-miss context for every benchmark when the host
// allows perf_event_open — and the rusage fallback everywhere else.
//
//   --filter=<substr>      run only benchmarks whose name contains substr
//   CPT_MICRO_ITERS=<n>    operations per repetition (default per-bench)
//   CPT_MICRO_REPS=<n>     timed repetitions (default 5)
//   CPT_MICRO_WARMUP=<n>   discarded warmup repetitions (default 1)
//   CPT_MICRO_SLOWDOWN=<n> spin n empty loops per op inside the timed
//                          region — a deliberate slowdown so the throughput
//                          gate's red path is testable (default 0)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_flags.h"
#include "common/hotguard.h"
#include "common/rng.h"
#include "mem/cache_model.h"
#include "obs/perf.h"
#include "sim/experiments.h"
#include "sim/machine.h"
#include "workload/workload.h"

namespace {

using namespace cpt;

// Keeps `value` live without emitting memory traffic (the hand-rolled
// equivalent of google-benchmark's DoNotOptimize).
template <typename T>
inline void Keep(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  if (const char* env = std::getenv(name)) {
    const std::uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0 || std::strcmp(env, "0") == 0) {
      return v;
    }
  }
  return fallback;
}

// The CPT_MICRO_SLOWDOWN spin, inside the timed region on purpose.
inline void SlowdownSpin(std::uint64_t n) {
  for (std::uint64_t s = 0; s < n; ++s) {
    asm volatile("");
  }
}

std::unique_ptr<pt::PageTable> MakeLoaded(sim::PtKind kind, mem::CacheTouchModel& cache,
                                          unsigned npages) {
  sim::MachineOptions opts;
  auto table = sim::MakePageTable(kind, cache, opts);
  Rng rng(1);
  for (unsigned i = 0; i < npages; ++i) {
    // Bursty placement: runs of ~12 pages.
    const Vpn base{rng.Below(1 << 24) & ~0xFull};
    table->InsertBase(base + (i % 12), Ppn{i & kPpnMask}, Attr::ReadWrite());
  }
  return table;
}

// One registered benchmark: a setup closure returning the per-repetition
// body (ops count and slowdown bound at run time).
struct Micro {
  std::string name;
  std::uint64_t default_iters;
  std::function<std::function<void(std::uint64_t, std::uint64_t)>()> setup;
};

std::function<void(std::uint64_t, std::uint64_t)> LookupBody(sim::PtKind kind) {
  auto cache = std::make_shared<mem::CacheTouchModel>(256);
  std::shared_ptr<pt::PageTable> table = MakeLoaded(kind, *cache, 4096);
  // Collect the mapped VAs by replaying the loader's placement stream.
  auto vas = std::make_shared<std::vector<VirtAddr>>();
  Rng rng(1);
  for (unsigned i = 0; i < 4096; ++i) {
    const Vpn base{rng.Below(1 << 24) & ~0xFull};
    vas->push_back(VaOf(base + (i % 12)));
  }
  return [cache, table, vas](std::uint64_t iters, std::uint64_t slowdown) {
    std::size_t i = 0;
    for (std::uint64_t n = 0; n < iters; ++n) {
      cache->BeginWalk();
      auto fill = table->Lookup((*vas)[i++ % vas->size()]);
      cache->AbortWalk();
      Keep(fill);
      SlowdownSpin(slowdown);
    }
  };
}

std::function<void(std::uint64_t, std::uint64_t)> InsertRemoveBody(sim::PtKind kind) {
  auto cache = std::make_shared<mem::CacheTouchModel>(256);
  sim::MachineOptions opts;
  std::shared_ptr<pt::PageTable> table = sim::MakePageTable(kind, *cache, opts);
  auto rng = std::make_shared<Rng>(2);
  return [cache, table, rng](std::uint64_t iters, std::uint64_t slowdown) {
    for (std::uint64_t n = 0; n < iters; ++n) {
      const Vpn vpn{rng->Below(1 << 22)};
      table->InsertBase(vpn, Ppn{vpn.raw() & kPpnMask}, Attr::ReadWrite());
      table->RemoveBase(vpn);
      SlowdownSpin(slowdown);
    }
  };
}

// Replays coral on a preloaded clustered machine: one Access() call per
// reference, or (`by_run`) one AccessRun() call per same-page run.  With
// `collect` the machine publishes to the collect chain, as every --json
// figure bench does.
std::function<void(std::uint64_t, std::uint64_t)> MachineAccessBody(bool by_run,
                                                                   bool collect = false) {
  const auto& spec = workload::GetPaperWorkload("coral");
  // The generator keeps pointers into the snapshot's page lists, so the
  // snapshot must outlive the returned body — share both into the closure.
  auto snap = std::make_shared<workload::Snapshot>(workload::BuildSnapshot(spec));
  sim::MachineOptions opts;
  opts.pt_kind = sim::PtKind::kClustered;
  auto machine = std::make_shared<sim::Machine>(opts, 1);
  machine->Preload(*snap);
  std::shared_ptr<sim::CollectTracers> chain;
  if (collect) {
    chain = std::make_shared<sim::CollectTracers>(spec, opts.shared_page_table);
    machine->AttachTracer(chain->head());
  }
  auto gen = std::make_shared<workload::TraceGenerator>(spec, *snap);
  auto warmed = std::make_shared<bool>(false);
  return [machine, chain, gen, snap, warmed, by_run](std::uint64_t iters,
                                                     std::uint64_t slowdown) {
    auto replay = [&] {
      if (by_run) {
        for (std::uint64_t n = 0; n < iters;) {
          const workload::Run run = gen->NextRun(iters - n);
          machine->AccessRun(run);
          n += run.count;
          SlowdownSpin(slowdown * run.count);
        }
        return;
      }
      for (std::uint64_t n = 0; n < iters; ++n) {
        const auto r = gen->Next();
        machine->Access(r.asid, r.va);
        SlowdownSpin(slowdown);
      }
    };
    if (*warmed) {
      // Every repetition after the first runs under the allocation guard:
      // the bench doubles as a smoke assertion that the steady-state replay
      // is heap-free (common/hotguard.h).
      HotPathScope guard("bench_micro.machine_access");
      replay();
    } else {
      // The first (warm-up by default) repetition grows every pool and
      // scratch buffer to its high-water mark.
      *warmed = true;
      replay();
    }
  };
}

struct MicroResult {
  std::string name;
  std::uint64_t iterations = 0;
  std::uint64_t reps = 0;
  std::uint64_t warmup_reps = 0;
  std::uint64_t slowdown = 0;
  std::vector<double> rep_seconds;
  std::vector<double> rep_refs_per_sec;
  double median_refs_per_sec = 0.0;
  double best_refs_per_sec = 0.0;
  double worst_refs_per_sec = 0.0;
  double median_ns_per_op = 0.0;
  obs::HostPerfSample host;  // Accumulated over the timed reps.
};

MicroResult RunOne(const Micro& micro, std::uint64_t iters, std::uint64_t reps,
                   std::uint64_t warmup, std::uint64_t slowdown) {
  MicroResult r;
  r.name = micro.name;
  r.iterations = iters;
  r.reps = reps;
  r.warmup_reps = warmup;
  r.slowdown = slowdown;

  const auto body = micro.setup();
  obs::HostPerfCounters perf;
  for (std::uint64_t w = 0; w < warmup; ++w) {
    body(iters, slowdown);
  }
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    perf.Start();
    body(iters, slowdown);
    const obs::HostPerfSample sample = perf.Stop();
    r.rep_seconds.push_back(sample.wall_seconds);
    r.rep_refs_per_sec.push_back(
        sample.wall_seconds > 0.0 ? static_cast<double>(iters) / sample.wall_seconds : 0.0);
    r.host.Accumulate(sample);
  }

  std::vector<double> sorted = r.rep_refs_per_sec;
  std::sort(sorted.begin(), sorted.end());
  r.median_refs_per_sec = sorted[sorted.size() / 2];
  r.best_refs_per_sec = sorted.back();
  r.worst_refs_per_sec = sorted.front();
  r.median_ns_per_op =
      r.median_refs_per_sec > 0.0 ? 1e9 / r.median_refs_per_sec : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  cpt::bench::BenchIo io("bench_micro", &argc, argv);

  std::string filter;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--filter", 0) == 0 && (arg.size() == 8 || arg[8] == '=')) {
      const std::size_t eq = arg.find('=');
      if (eq == std::string_view::npos || eq + 1 == arg.size()) {
        std::fprintf(stderr, "usage: --filter=<substring>\n");
        return 2;
      }
      filter = std::string(arg.substr(eq + 1));
    } else {
      std::fprintf(stderr, "bench_micro: unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  const std::uint64_t env_iters = EnvU64("CPT_MICRO_ITERS", 0);
  const std::uint64_t reps = std::max<std::uint64_t>(1, EnvU64("CPT_MICRO_REPS", 5));
  const std::uint64_t warmup = EnvU64("CPT_MICRO_WARMUP", 1);
  const std::uint64_t slowdown = EnvU64("CPT_MICRO_SLOWDOWN", 0);

  std::vector<Micro> micros;
  const struct {
    const char* label;
    cpt::sim::PtKind kind;
  } kKinds[] = {
      {"clustered", cpt::sim::PtKind::kClustered},
      {"hashed", cpt::sim::PtKind::kHashed},
      {"linear", cpt::sim::PtKind::kLinear1},
      {"forward", cpt::sim::PtKind::kForward},
  };
  for (const auto& k : kKinds) {
    micros.push_back({std::string("lookup/") + k.label, 2'000'000,
                      [kind = k.kind] { return LookupBody(kind); }});
  }
  for (const auto& k : kKinds) {
    micros.push_back({std::string("insert_remove/") + k.label, 1'000'000,
                      [kind = k.kind] { return InsertRemoveBody(kind); }});
  }
  micros.push_back({"machine_access", 1'000'000, [] { return MachineAccessBody(false); }});
  micros.push_back({"machine_access_run", 1'000'000, [] { return MachineAccessBody(true); }});
  micros.push_back({"machine_access_run_collect", 1'000'000,
                    [] { return MachineAccessBody(true, /*collect=*/true); }});

  std::printf("%-28s %12s %5s %14s %14s %14s %10s\n", "benchmark", "iters", "reps",
              "median ref/s", "best ref/s", "worst ref/s", "ns/op");
  bool ran_any = false;
  for (const Micro& micro : micros) {
    if (!filter.empty() && micro.name.find(filter) == std::string::npos) {
      continue;
    }
    ran_any = true;
    const std::uint64_t iters = env_iters > 0 ? env_iters : micro.default_iters;
    const MicroResult r = RunOne(micro, iters, reps, warmup, slowdown);
    std::printf("%-28s %12llu %5llu %14.0f %14.0f %14.0f %10.2f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.iterations),
                static_cast<unsigned long long>(r.reps), r.median_refs_per_sec,
                r.best_refs_per_sec, r.worst_refs_per_sec, r.median_ns_per_op);

    double timed_seconds = 0.0;
    for (const double s : r.rep_seconds) {
      timed_seconds += s;
    }
    io.AddThroughput(r.iterations * r.reps, timed_seconds);
    io.RecordCustom("micro", r.name, [&](cpt::obs::JsonWriter& w) {
      w.KV("iterations", r.iterations);
      w.KV("reps", r.reps);
      w.KV("warmup_reps", r.warmup_reps);
      w.KV("slowdown", r.slowdown);
      w.Key("throughput");
      w.BeginObject();
      w.KV("median_refs_per_sec", r.median_refs_per_sec);
      w.KV("best_refs_per_sec", r.best_refs_per_sec);
      w.KV("worst_refs_per_sec", r.worst_refs_per_sec);
      w.KV("median_ns_per_op", r.median_ns_per_op);
      w.Key("rep_refs_per_sec");
      w.BeginArray();
      for (const double v : r.rep_refs_per_sec) {
        w.Double(v);
      }
      w.EndArray();
      w.Key("rep_seconds");
      w.BeginArray();
      for (const double v : r.rep_seconds) {
        w.Double(v);
      }
      w.EndArray();
      w.EndObject();
      w.Key("host_perf");
      cpt::obs::ToJson(w, r.host);
    });
  }
  if (!ran_any) {
    std::fprintf(stderr, "bench_micro: --filter=%s matched no benchmarks\n",
                 filter.c_str());
    return 2;
  }
  return 0;
}
