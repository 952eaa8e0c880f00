// perfbench: the simulator benchmark program.
//
//   perfbench --workload <fig11-suite|replay-local|build-sweep> --seed <n>
//             --seconds <s> --trace <0|1> --refs <dir> --out <dir> [--record]
//
// Untraced (--trace 0) it reports the end-to-end metrics, timed from
// outside the simulator's public entry points; traced (--trace 1) it
// reports the per-layer metrics (traced.cc).  Either way every simulated
// output is compared exactly with the reference lines in --refs, and the
// last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every output matched and nothing failed.
// --record writes the reference file from this run instead of checking it.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <thread>

#include "obs/perf.h"
#include "perfbench/cpu_picker.h"
#include "perfbench/perfbench.h"

namespace cpt::perfbench {
namespace {

// After each timed pass, set-up rounds run for this share of the pass's
// time (at least one round, at most kMaxSetupRoundsPerPass).
constexpr double kSetupShare = 0.1;
constexpr std::size_t kMaxSetupRoundsPerPass = 100;
// Timed passes continue until --seconds is spent, and at least this often.
constexpr std::size_t kMinPasses = 3;

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      a.record = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--refs") {
      a.refs_dir = v;
    } else if (flag == "--out") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  // Recording checks outputs against the run itself, which only the
  // untraced run does.
  return !a.workload.empty() && !a.refs_dir.empty() && !a.out_dir.empty() && a.seconds > 0 &&
         !(a.record && a.trace);
}

std::string RefPath(const Args& a, const Workload& w) {
  return a.refs_dir + "/" + w.name + ".set" + std::to_string(w.input_set) + ".txt";
}

// Prints a per-pass or per-round sample set's median and quartiles (a
// human-readable line; the JSON result carries the per-cell fastest figures).
void PrintSamples(const char* name, const char* unit, std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) { return v[static_cast<std::size_t>(q * (v.size() - 1) + 0.5)]; };
  std::printf("%-12s median %.6g %s  (q1 %.6g, q3 %.6g, n=%zu)\n", name, Median(v), unit,
              at(0.25), at(0.75), v.size());
}

// Marks the cells that break the cross-organization invariant: cells of one
// group (one figure panel and workload, non-linear tables) must see the same
// denominator and effective misses, since the miss stream depends on the TLB
// and the page-size policy, not on the page-table organization.
void CheckInvariant(const Workload& w, const std::vector<sim::AccessMeasurement>& ms,
                    std::vector<bool>& bad) {
  std::map<std::string, std::size_t> first;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const std::string& group = w.replays[i].invariant_group;
    if (group.empty()) {
      continue;
    }
    const auto [it, inserted] = first.emplace(group, i);
    const sim::AccessMeasurement& a = ms[it->second];
    if (!inserted && (a.denominator_misses != ms[i].denominator_misses ||
                      a.effective_misses != ms[i].effective_misses)) {
      std::cerr << "perfbench: cross-organization invariant broken: " << w.replays[i].key
                << " vs " << w.replays[it->second].key << "\n";
      bad[i] = true;
    }
  }
}

// The untraced run.  A check round first sets every cell up once and
// checks its outputs, drops and audit outside any timing.  Timed passes of
// the end-to-end calls follow until --seconds is spent; after each pass,
// set-up rounds run for a tenth of the pass's time, so set-up samples are
// spread over the run like the pass samples.
//
// Each call and each cell's set-up is timed on its own, on the CPU that is
// fastest at the moment (cpu_picker.h), and each metric is built from every
// cell's fastest time in the run, summed over the cells.  On a shared host
// a co-tenant only ever adds time, in spells that come and go; a cell's
// fastest time is the one no co-tenant slowed, so the per-cell minimum
// measures the program rather than its neighbours.  A slower program is
// slower in every call, so it still shows in full.  The per-pass and
// per-round samples are printed for reading.
class UntracedRun {
 public:
  UntracedRun(const Args& args, const Workload& w, const References& refs, Result& result)
      : args_(args), w_(w), refs_(refs), result_(result), replays_(!w.replays.empty()) {}

  void Run() {
    const std::size_t n = replays_ ? w_.replays.size() : w_.sizes.size();
    bad_.assign(n, false);
    check_lines_.assign(n, "");
    best_call_s_.assign(n, kNever);
    best_setup_s_.assign(n, kNever);
    best_preload_s_.assign(n, kNever);
    replays_ ? ReplayCheck() : SizeCheck();

    const Clock::time_point start = Clock::now();
    for (std::size_t passes = 0; passes < kMinPasses || SecondsSince(start) < args_.seconds;
         ++passes) {
      const double pass_s = replays_ ? ReplayPass() : SizePass();
      const Clock::time_point t0 = Clock::now();
      for (std::size_t round = 0; round < kMaxSetupRoundsPerPass; ++round) {
        replays_ ? ReplaySetup() : SizeSetup();
        if (SecondsSince(t0) >= kSetupShare * pass_s) {
          break;
        }
      }
    }
    const double refs_per_s = static_cast<double>(pass_work_) / Sum(best_call_s_);
    const double pages_per_s =
        replays_ ? static_cast<double>(round_pages_) / Sum(best_preload_s_) : refs_per_s;
    if (!replays_) {
      refs_per_s_ = pages_per_s_;
    }

    std::printf("drops: oom_faults=%" PRIu64 " placement_failures=%" PRIu64
                " audit_defects=%" PRIu64 "\n",
                health_.oom_faults, health_.placement_failures, health_.defects);
    PrintSamples("setup_s", "s", setup_s_);
    PrintSamples("pages_per_s", "pages/s", pages_per_s_);
    PrintSamples("refs_per_s", "refs/s", refs_per_s_);
    std::printf("per-cell fastest: refs_per_s %.6g, pages_per_s %.6g, setup_s %.6g\n",
                refs_per_s, pages_per_s, Sum(best_setup_s_));
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    result_.metrics = {
        {"refs_per_s", refs_per_s, "refs/s"},
        {"pages_per_s", pages_per_s, "pages/s"},
        {"setup_s", Sum(best_setup_s_), "s"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
    };
  }

  // The lines of the first timed pass, for --record.
  const std::vector<std::string>& lines() const { return recorded_; }

 private:
  // A cell's outputs against the reference (or, when recording, against
  // the first outputs seen for the cell).
  bool CheckLine(std::size_t i, const std::string& key, const std::string& line) {
    if (!args_.record) {
      return MatchesReference(refs_, key, line);
    }
    if (check_lines_[i].empty()) {
      check_lines_[i] = line;
    } else if (check_lines_[i] != line) {
      std::cerr << "perfbench: outputs differ between runs of " << key << "\n";
      return false;
    }
    return true;
  }
  bool CheckHealth(const std::string& key, sim::Machine& m) {
    const CellHealth h = HealthOf(m);
    health_.Add(h);
    if (!h.ok()) {
      std::cerr << "perfbench: " << key << ": " << h.oom_faults << " references dropped, "
                << h.defects << " audit defects\n";
    }
    return h.ok();
  }
  // Counts one pass's cells; `bad` marks the ones that failed.
  void Tally(const std::vector<bool>& bad, std::vector<std::string>& lines,
             const std::vector<std::uint64_t>& work) {
    for (std::size_t i = 0; i < bad.size(); ++i) {
      result_.attempted += work[i];
      result_.failed += bad[i] ? work[i] : 0;
    }
    if (recorded_.empty()) {
      recorded_ = std::move(lines);
    }
  }

  // The replay check round: every cell is set up, replayed on its own
  // machine, passing is_write, and checked for drops, audit and outputs.
  void ReplayCheck() {
    for (std::size_t i = 0; i < w_.replays.size(); ++i) {
      const ReplayCell& c = w_.replays[i];
      const workload::Snapshot snapshot = workload::BuildSnapshot(*c.spec);
      sim::Machine machine(c.opts, static_cast<unsigned>(c.spec->processes.size()));
      machine.Preload(snapshot);
      round_pages_ += snapshot.TotalPages();
      ReplayOn(machine, c, snapshot);
      const bool healthy = CheckHealth(c.key, machine);
      const bool match = CheckLine(i, c.key, ReplayLine(c.key, machine, c.trace_len));
      bad_[i] = !healthy || !match;
    }
  }

  // One replay set-up round: BuildSnapshot + Machine construction + Preload
  // for every cell.
  void ReplaySetup() {
    double setup = 0.0;
    double preload = 0.0;
    for (std::size_t i = 0; i < w_.replays.size(); ++i) {
      const ReplayCell& c = w_.replays[i];
      picker_.MaybeRepick();
      const Clock::time_point t0 = Clock::now();
      const workload::Snapshot snapshot = workload::BuildSnapshot(*c.spec);
      const Clock::time_point t1 = Clock::now();
      sim::Machine machine(c.opts, static_cast<unsigned>(c.spec->processes.size()));
      machine.Preload(snapshot);
      const Clock::time_point t2 = Clock::now();
      setup += KeepFastest(best_setup_s_[i], Seconds(t0, t2));
      preload += KeepFastest(best_preload_s_[i], Seconds(t1, t2));
    }
    setup_s_.push_back(setup);
    pages_per_s_.push_back(static_cast<double>(round_pages_) / preload);
  }

  // One timed pass of MeasureAccessTime calls; returns its time.
  double ReplayPass() {
    const std::size_t n = w_.replays.size();
    std::vector<sim::AccessMeasurement> ms(n);
    std::uint64_t refs = 0;
    double seconds = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const ReplayCell& c = w_.replays[i];
      picker_.MaybeRepick();
      const Clock::time_point t0 = Clock::now();
      ms[i] = sim::MeasureAccessTime(*c.spec, c.opts, c.trace_len, {.collect = c.collect});
      seconds += KeepFastest(best_call_s_[i], SecondsSince(t0));
      refs += c.trace_len;
    }
    pass_work_ = refs;
    refs_per_s_.push_back(static_cast<double>(refs) / seconds);

    std::vector<bool> bad = bad_;
    std::vector<std::string> lines(n);
    std::vector<std::uint64_t> work(n);
    for (std::size_t i = 0; i < n; ++i) {
      lines[i] = ReplayLine(w_.replays[i].key, ms[i]);
      bad[i] = !CheckLine(i, w_.replays[i].key, lines[i]) || bad[i];
      work[i] = w_.replays[i].trace_len;
    }
    CheckInvariant(w_, ms, bad);
    Tally(bad, lines, work);
    return seconds;
  }

  // The build-sweep check round: every cell gets the two machines
  // MeasurePtSize builds, preloaded and checked for drops, audit and
  // outputs.
  void SizeCheck() {
    for (std::size_t i = 0; i < w_.sizes.size(); ++i) {
      const SizeCell& c = w_.sizes[i];
      const auto nproc = static_cast<unsigned>(c.spec->processes.size());
      const workload::Snapshot snapshot = workload::BuildSnapshot(*c.spec);
      sim::Machine measured(SizedOptions(c.config.pt_kind, c.config.strategy), nproc);
      sim::Machine hashed(SizedOptions(sim::PtKind::kHashed, os::PteStrategy::kBaseOnly), nproc);
      spec_pages_[c.spec] = snapshot.TotalPages();
      measured.Preload(snapshot);
      hashed.Preload(snapshot);
      const bool healthy = CheckHealth(c.key, measured) && CheckHealth(c.key, hashed);
      sim::SizeMeasurement outputs;
      ReadMeasured(measured, outputs);
      outputs.hashed_bytes = hashed.TotalPtBytesPaperModel();
      const bool match = CheckLine(i, c.key, SizeLine(c.key, outputs));
      bad_[i] = !healthy || !match;
    }
  }

  // One build-sweep set-up round: what each MeasurePtSize call does before
  // mapping pages, for every cell: BuildSnapshot and the construction of
  // its two machines.
  void SizeSetup() {
    double setup = 0.0;
    for (std::size_t i = 0; i < w_.sizes.size(); ++i) {
      const SizeCell& c = w_.sizes[i];
      const auto nproc = static_cast<unsigned>(c.spec->processes.size());
      picker_.MaybeRepick();
      const Clock::time_point t0 = Clock::now();
      const workload::Snapshot snapshot = workload::BuildSnapshot(*c.spec);
      sim::Machine measured(SizedOptions(c.config.pt_kind, c.config.strategy), nproc);
      sim::Machine hashed(SizedOptions(sim::PtKind::kHashed, os::PteStrategy::kBaseOnly), nproc);
      setup += KeepFastest(best_setup_s_[i], SecondsSince(t0));
    }
    setup_s_.push_back(setup);
  }

  // One timed pass of MeasurePtSize calls; returns its time.  Each call
  // maps every snapshot page twice (measured table and hashed baseline); a
  // reference here is one such page, so refs_per_s equals pages_per_s.
  double SizePass() {
    const std::size_t n = w_.sizes.size();
    std::vector<sim::SizeMeasurement> ms(n);
    std::vector<std::uint64_t> work(n);
    std::uint64_t pages = 0;
    for (std::size_t i = 0; i < n; ++i) {
      work[i] = 2 * spec_pages_.at(w_.sizes[i].spec);
      pages += work[i];
    }
    double seconds = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      picker_.MaybeRepick();
      const Clock::time_point t0 = Clock::now();
      ms[i] = sim::MeasurePtSize(*w_.sizes[i].spec, w_.sizes[i].config);
      seconds += KeepFastest(best_call_s_[i], SecondsSince(t0));
    }
    pass_work_ = pages;
    pages_per_s_.push_back(static_cast<double>(pages) / seconds);

    std::vector<bool> bad = bad_;
    std::vector<std::string> lines(n);
    for (std::size_t i = 0; i < n; ++i) {
      lines[i] = SizeLine(w_.sizes[i].key, ms[i]);
      bad[i] = !CheckLine(i, w_.sizes[i].key, lines[i]) || bad[i];
    }
    Tally(bad, lines, work);
    return seconds;
  }

  const Args& args_;
  const Workload& w_;
  const References& refs_;
  Result& result_;
  const bool replays_;
  std::vector<bool> bad_;                 // Cells that failed the check round.
  std::vector<std::string> check_lines_;  // --record: the first outputs seen per cell.
  std::vector<std::string> recorded_;
  std::map<const workload::WorkloadSpec*, std::uint64_t> spec_pages_;
  CellHealth health_;
  // Returns `seconds` after folding it into a cell's fastest time.
  static double KeepFastest(double& fastest, double seconds) {
    fastest = std::min(fastest, seconds);
    return seconds;
  }
  static double Sum(const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) {
      sum += x;
    }
    return sum;
  }
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  CpuPicker picker_;
  std::uint64_t pass_work_ = 0;    // References (replays) or pages (build-sweep) of one pass.
  std::uint64_t round_pages_ = 0;  // Snapshot pages of one replay set-up round.
  // Per cell: the fastest end-to-end call, set-up and (replays) Machine
  // construction + Preload of the run.  The metrics come from these.
  std::vector<double> best_call_s_;
  std::vector<double> best_setup_s_;
  std::vector<double> best_preload_s_;
  std::vector<double> setup_s_;
  std::vector<double> pages_per_s_;
  std::vector<double> refs_per_s_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return out + "\"";
}

// Build and host provenance, printed before the result line.
void PrintStamp(const Args& a, const Workload& w) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef __clang__
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  obs::HostPerfCounters perf;
  perf.Start();
  const obs::HostPerfSample sample = perf.Stop();
  std::printf(
      "{\"stamp\": {\"workload\": %s, \"seed\": %" PRIu64 ", \"input_set\": %" PRIu64
      ", \"trace\": %d, \"ndebug\": %s, \"compiler\": %s, \"build_type\": %s, \"nproc\": %u, "
      "\"host_perf\": %s}}\n",
      JsonString(w.name).c_str(), a.seed, w.input_set, a.trace ? 1 : 0,
      ndebug ? "true" : "false", JsonString(compiler).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), std::thread::hardware_concurrency(),
      JsonString(sample.source).c_str());
}

void PrintResult(const Result& r) {
  std::string metrics;
  for (const Metric& m : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    metrics += (metrics.empty() ? "" : ", ") + JsonString(m.name) + ": {\"value\": " + value +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              r.correct ? "true" : "false", r.attempted, r.failed, metrics.c_str());
}

}  // namespace
}  // namespace cpt::perfbench

int main(int argc, char** argv) {
  using namespace cpt::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "--refs <dir> --out <dir> [--record]\n";
    return 2;
  }
  const std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (!w) {
    std::cerr << "perfbench: unknown workload " << args.workload << "\n";
    return 2;
  }
  References refs;
  if (!args.record && !LoadReferences(RefPath(args, *w), refs)) {
    return 2;
  }
  PrintStamp(args, *w);

  Result result;
  if (args.trace) {
    RunTraced(args, *w, refs, result);
  } else {
    UntracedRun run(args, *w, refs, result);
    run.Run();
    if (args.record && result.correct && result.failed == 0) {
      std::ofstream out(RefPath(args, *w));
      out << "# perfbench reference outputs: " << w->name << ", input set " << w->input_set
          << "\n";
      for (const std::string& line : run.lines()) {
        out << line << "\n";
      }
      std::printf("recorded %s\n", RefPath(args, *w).c_str());
    }
  }
  result.correct = result.correct && result.failed == 0;
  PrintResult(result);
  return result.correct ? 0 : 1;
}
