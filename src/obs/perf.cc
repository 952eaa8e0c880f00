#include "obs/perf.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "obs/json_writer.h"

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#define CPT_HAS_PERF_EVENT 1
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#define CPT_HAS_PERF_EVENT 0
#endif

#if __has_include(<sys/resource.h>)
#define CPT_HAS_RUSAGE 1
#include <sys/resource.h>
#else
#define CPT_HAS_RUSAGE 0
#endif

namespace cpt::obs {

namespace {

// The group layout, leader first.  Index order is load-bearing: it matches
// fds_/ids_ and the read-format parse below.
enum CounterIndex : std::size_t {
  kCycles = 0,
  kInstructions,
  kLlcMisses,
  kDtlbLoadMisses,
  kBranchMisses,
  kNumCounters,
};

double PerKiloInstructions(std::uint64_t count, std::uint64_t instructions) {
  return instructions == 0
             ? 0.0
             : 1000.0 * static_cast<double>(count) / static_cast<double>(instructions);
}

struct RusageSnap {
  double user_seconds = 0.0;
  double sys_seconds = 0.0;
  std::uint64_t max_rss_kb = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t voluntary_ctx_switches = 0;
  std::uint64_t involuntary_ctx_switches = 0;
};

RusageSnap TakeRusage() {
  RusageSnap snap;
#if CPT_HAS_RUSAGE
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    auto seconds = [](const struct timeval& tv) {
      return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
    };
    snap.user_seconds = seconds(ru.ru_utime);
    snap.sys_seconds = seconds(ru.ru_stime);
    snap.max_rss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
    snap.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
    snap.major_faults = static_cast<std::uint64_t>(ru.ru_majflt);
    snap.voluntary_ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw);
    snap.involuntary_ctx_switches = static_cast<std::uint64_t>(ru.ru_nivcsw);
  }
#endif
  return snap;
}

}  // namespace

double HostPerfSample::Ipc() const {
  return cycles == 0 ? 0.0
                     : static_cast<double>(instructions) / static_cast<double>(cycles);
}
double HostPerfSample::LlcMpki() const { return PerKiloInstructions(llc_misses, instructions); }
double HostPerfSample::DtlbMpki() const {
  return PerKiloInstructions(dtlb_load_misses, instructions);
}
double HostPerfSample::BranchMpki() const {
  return PerKiloInstructions(branch_misses, instructions);
}

void ToJson(JsonWriter& w, const HostPerfSample& s) {
  w.BeginObject();
  w.KV("available", s.available);
  w.KV("source", s.source.empty() ? "rusage" : s.source);
  w.KV("reason", s.reason);
  w.KV("wall_seconds", s.wall_seconds);
  w.KV("user_seconds", s.user_seconds);
  w.KV("sys_seconds", s.sys_seconds);
  w.KV("max_rss_kb", s.max_rss_kb);
  w.KV("minor_faults", s.minor_faults);
  w.KV("major_faults", s.major_faults);
  w.KV("voluntary_ctx_switches", s.voluntary_ctx_switches);
  w.KV("involuntary_ctx_switches", s.involuntary_ctx_switches);
  w.Key("counters");
  w.BeginObject();
  w.KV("cycles", s.cycles);
  w.KV("instructions", s.instructions);
  w.KV("llc_misses", s.llc_misses);
  w.KV("dtlb_load_misses", s.dtlb_load_misses);
  w.KV("branch_misses", s.branch_misses);
  w.KV("time_enabled_ns", s.time_enabled_ns);
  w.KV("time_running_ns", s.time_running_ns);
  w.EndObject();
  w.Key("derived");
  w.BeginObject();
  w.KV("ipc", s.Ipc());
  w.KV("llc_mpki", s.LlcMpki());
  w.KV("dtlb_mpki", s.DtlbMpki());
  w.KV("branch_mpki", s.BranchMpki());
  w.EndObject();
  w.EndObject();
}

// Start-of-region snapshot: wall clock, rusage, and (implicitly, via the
// RESET ioctl) zeroed counters.
struct HostPerfCounters::Baseline {
  std::chrono::steady_clock::time_point wall_start;
  RusageSnap rusage;
};

bool HostPerfCounters::ForcedOff() {
  const char* env = std::getenv("CPT_NO_HOST_PERF");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

#if CPT_HAS_PERF_EVENT

namespace {

int PerfEventOpen(std::uint32_t type, std::uint64_t config, int group_fd) {
  struct perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = type;
  attr.size = sizeof(attr);
  attr.config = config;
  attr.disabled = group_fd == -1 ? 1 : 0;  // Whole group toggles via leader.
  attr.exclude_kernel = 1;  // Self-measurement works under paranoid>=1.
  attr.exclude_hv = 1;
  attr.inherit = 0;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_ID |
                     PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(::syscall(__NR_perf_event_open, &attr, /*pid=*/0,
                                    /*cpu=*/-1, group_fd, /*flags=*/0UL));
}

constexpr std::uint64_t kDtlbLoadMissConfig =
    PERF_COUNT_HW_CACHE_DTLB | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
    (PERF_COUNT_HW_CACHE_RESULT_MISS << 16);

}  // namespace

HostPerfCounters::HostPerfCounters() {
  if (ForcedOff()) {
    reason_ = "disabled by CPT_NO_HOST_PERF";
    return;
  }
  struct Spec {
    std::uint32_t type;
    std::uint64_t config;
    const char* name;
  };
  static constexpr Spec kSpecs[kNumCounters] = {
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, "cycles"},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, "instructions"},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES, "llc_misses"},
      {PERF_TYPE_HW_CACHE, kDtlbLoadMissConfig, "dtlb_load_misses"},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, "branch_misses"},
  };

  group_fd_ = PerfEventOpen(kSpecs[kCycles].type, kSpecs[kCycles].config, -1);
  if (group_fd_ < 0) {
    reason_ = std::string("perf_event_open: ") + std::strerror(errno);
    return;
  }
  fds_[kCycles] = group_fd_;
  // The followers are best-effort: a CPU without a dTLB-miss event still
  // yields cycles/instructions, with the gap named in reason_.
  for (std::size_t i = 1; i < kNumCounters; ++i) {
    fds_[i] = PerfEventOpen(kSpecs[i].type, kSpecs[i].config, group_fd_);
    if (fds_[i] < 0) {
      if (!reason_.empty()) {
        reason_ += "; ";
      }
      reason_ += std::string(kSpecs[i].name) + ": " + std::strerror(errno);
    }
  }
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (fds_[i] >= 0) {
      std::uint64_t id = 0;
      if (::ioctl(fds_[i], PERF_EVENT_IOC_ID, &id) == 0) {
        ids_[i] = id;
      }
    }
  }
}

HostPerfCounters::~HostPerfCounters() {
  delete base_;
  for (int& fd : fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  group_fd_ = -1;
}

void HostPerfCounters::Start() {
  CPT_CHECK(base_ == nullptr, "HostPerfCounters::Start() without Stop()");
  base_ = new Baseline{std::chrono::steady_clock::now(), TakeRusage()};
  if (group_fd_ >= 0) {
    ::ioctl(group_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ::ioctl(group_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  }
}

HostPerfSample HostPerfCounters::Stop() {
  CPT_CHECK(base_ != nullptr, "HostPerfCounters::Stop() without Start()");
  if (group_fd_ >= 0) {
    ::ioctl(group_fd_, PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
  }

  HostPerfSample s;
  s.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - base_->wall_start)
          .count();
  const RusageSnap end = TakeRusage();
  s.user_seconds = end.user_seconds - base_->rusage.user_seconds;
  s.sys_seconds = end.sys_seconds - base_->rusage.sys_seconds;
  s.max_rss_kb = end.max_rss_kb;
  s.minor_faults = end.minor_faults - base_->rusage.minor_faults;
  s.major_faults = end.major_faults - base_->rusage.major_faults;
  s.voluntary_ctx_switches =
      end.voluntary_ctx_switches - base_->rusage.voluntary_ctx_switches;
  s.involuntary_ctx_switches =
      end.involuntary_ctx_switches - base_->rusage.involuntary_ctx_switches;
  delete base_;
  base_ = nullptr;

  if (group_fd_ < 0) {
    s.available = false;
    s.source = "rusage";
    s.reason = reason_;
    return s;
  }

  // PERF_FORMAT_GROUP read layout:
  //   { nr, time_enabled, time_running, { value, id } * nr }
  std::uint64_t buf[3 + 2 * kNumCounters] = {};
  const ssize_t n = ::read(group_fd_, buf, sizeof(buf));
  if (n < static_cast<ssize_t>(3 * sizeof(std::uint64_t))) {
    s.available = false;
    s.source = "rusage";
    s.reason = std::string("perf group read: ") + std::strerror(errno);
    return s;
  }
  s.available = true;
  s.source = "perf_event";
  s.reason = reason_;
  s.time_enabled_ns = buf[1];
  s.time_running_ns = buf[2];
  // Multiplexing scale: when the PMU rotated this group out part of the
  // time, extrapolate counts to the full enabled window.
  const bool ran = buf[2] != 0;
  const double scale =
      ran ? static_cast<double>(buf[1]) / static_cast<double>(buf[2]) : 1.0;
  const std::uint64_t nr = buf[0];
  std::uint64_t* out[kNumCounters] = {&s.cycles, &s.instructions, &s.llc_misses,
                                      &s.dtlb_load_misses, &s.branch_misses};
  for (std::uint64_t v = 0; v < nr && v < kNumCounters; ++v) {
    const std::uint64_t value = buf[3 + 2 * v];
    const std::uint64_t id = buf[3 + 2 * v + 1];
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      if (fds_[c] >= 0 && ids_[c] == id) {
        *out[c] = ran ? static_cast<std::uint64_t>(static_cast<double>(value) * scale)
                      : value;
        break;
      }
    }
  }
  return s;
}

#else  // !CPT_HAS_PERF_EVENT

HostPerfCounters::HostPerfCounters() {
  reason_ = ForcedOff() ? "disabled by CPT_NO_HOST_PERF"
                        : "perf_event_open unavailable on this platform";
}

HostPerfCounters::~HostPerfCounters() { delete base_; }

void HostPerfCounters::Start() {
  CPT_CHECK(base_ == nullptr, "HostPerfCounters::Start() without Stop()");
  base_ = new Baseline{std::chrono::steady_clock::now(), TakeRusage()};
}

HostPerfSample HostPerfCounters::Stop() {
  CPT_CHECK(base_ != nullptr, "HostPerfCounters::Stop() without Start()");
  HostPerfSample s;
  s.available = false;
  s.source = "rusage";
  s.reason = reason_;
  s.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - base_->wall_start)
          .count();
  const RusageSnap end = TakeRusage();
  s.user_seconds = end.user_seconds - base_->rusage.user_seconds;
  s.sys_seconds = end.sys_seconds - base_->rusage.sys_seconds;
  s.max_rss_kb = end.max_rss_kb;
  s.minor_faults = end.minor_faults - base_->rusage.minor_faults;
  s.major_faults = end.major_faults - base_->rusage.major_faults;
  s.voluntary_ctx_switches =
      end.voluntary_ctx_switches - base_->rusage.voluntary_ctx_switches;
  s.involuntary_ctx_switches =
      end.involuntary_ctx_switches - base_->rusage.involuntary_ctx_switches;
  delete base_;
  base_ = nullptr;
  return s;
}

#endif  // CPT_HAS_PERF_EVENT

}  // namespace cpt::obs
