// HostPerfCounters contract tests, centered on the degradation path.
//
// perf_event_open is routinely forbidden in containers and CI (EPERM under
// seccomp, EACCES under perf_event_paranoid, ENOSYS/ENOENT elsewhere), so
// the *degraded* mode is the one these tests pin hard: CPT_NO_HOST_PERF=1
// must force it deterministically, samples must still carry rusage and
// wall-clock data, and the JSON shape must be byte-layout identical to the
// available mode (counters read as zero).  Live-counter assertions are
// guarded on available() so the suite passes on perf-less hosts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "obs/json_writer.h"
#include "obs/perf.h"

namespace cpt::obs {
namespace {

// Scoped CPT_NO_HOST_PERF override; restores the prior value on exit so
// tests cannot leak mode changes into each other.
class ScopedForceOff {
 public:
  explicit ScopedForceOff(bool on) {
    const char* prev = std::getenv("CPT_NO_HOST_PERF");
    had_prev_ = prev != nullptr;
    if (had_prev_) {
      prev_ = prev;
    }
    if (on) {
      ::setenv("CPT_NO_HOST_PERF", "1", 1);
    } else {
      ::unsetenv("CPT_NO_HOST_PERF");
    }
  }
  ~ScopedForceOff() {
    if (had_prev_) {
      ::setenv("CPT_NO_HOST_PERF", prev_.c_str(), 1);
    } else {
      ::unsetenv("CPT_NO_HOST_PERF");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

std::string JsonOf(const HostPerfSample& s) {
  std::ostringstream os;
  JsonWriter w(os);
  ToJson(w, s);
  return os.str();
}

// Burns a little CPU so counters and rusage have something to measure.
volatile std::uint64_t g_sink = 0;
void Spin() {
  std::uint64_t acc = 1;
  for (int i = 0; i < 2'000'000; ++i) {
    acc = acc * 2862933555777941757ULL + 3037000493ULL;
  }
  g_sink = acc;
}

TEST(HostPerfTest, EnvVarForcesDegradedMode) {
  ScopedForceOff force(true);
  EXPECT_TRUE(HostPerfCounters::ForcedOff());

  HostPerfCounters pc;
  EXPECT_FALSE(pc.available());
  EXPECT_FALSE(pc.unavailable_reason().empty());
  EXPECT_NE(pc.unavailable_reason().find("CPT_NO_HOST_PERF"), std::string::npos);
}

TEST(HostPerfTest, DegradedSampleCarriesRusageFallback) {
  ScopedForceOff force(true);
  HostPerfCounters pc;
  pc.Start();
  Spin();
  const HostPerfSample s = pc.Stop();

  EXPECT_FALSE(s.available);
  EXPECT_EQ(s.source, "rusage");
  EXPECT_FALSE(s.reason.empty());

  // The wall clock and rusage side stays live in degraded mode.
  EXPECT_GT(s.wall_seconds, 0.0);
  EXPECT_GE(s.user_seconds + s.sys_seconds, 0.0);
  EXPECT_GT(s.max_rss_kb, 0u);

  // Counters and derived rates all read zero — never garbage.
  EXPECT_EQ(s.cycles, 0u);
  EXPECT_EQ(s.instructions, 0u);
  EXPECT_EQ(s.llc_misses, 0u);
  EXPECT_EQ(s.dtlb_load_misses, 0u);
  EXPECT_EQ(s.branch_misses, 0u);
  EXPECT_EQ(s.time_enabled_ns, 0u);
  EXPECT_EQ(s.time_running_ns, 0u);
  EXPECT_DOUBLE_EQ(s.Ipc(), 0.0);
  EXPECT_DOUBLE_EQ(s.LlcMpki(), 0.0);
  EXPECT_DOUBLE_EQ(s.DtlbMpki(), 0.0);
  EXPECT_DOUBLE_EQ(s.BranchMpki(), 0.0);
}

TEST(HostPerfTest, StartStopReusableAcrossBrackets) {
  ScopedForceOff force(true);
  HostPerfCounters pc;
  for (int i = 0; i < 3; ++i) {
    pc.Start();
    Spin();
    const HostPerfSample s = pc.Stop();
    EXPECT_GT(s.wall_seconds, 0.0) << "bracket " << i;
  }
}

TEST(HostPerfTest, JsonShapeIsAvailabilityInvariant) {
  // The degradation contract: a report from a perf-less host must be
  // schema-identical to one from bare metal.  Compare the emitted key
  // sequence of a degraded sample against a hand-built "available" one.
  ScopedForceOff force(true);
  HostPerfCounters pc;
  pc.Start();
  const HostPerfSample degraded = pc.Stop();

  HostPerfSample live;
  live.available = true;
  live.source = "perf_event";
  live.cycles = 12345;
  live.instructions = 23456;
  live.llc_misses = 7;
  live.wall_seconds = 0.5;

  // Strip values: keep only the quoted key names, in order.
  const auto keys = [](const std::string& json) {
    std::string out;
    bool in_string = false;
    std::string current;
    for (std::size_t i = 0; i < json.size(); ++i) {
      const char c = json[i];
      if (c == '"') {
        if (in_string) {
          // A key is a string immediately followed by ':'.
          if (i + 1 < json.size() && json[i + 1] == ':') {
            out += current;
            out += ',';
          }
          in_string = false;
        } else {
          in_string = true;
          current.clear();
        }
      } else if (in_string) {
        current += c;
      }
    }
    return out;
  };
  EXPECT_EQ(keys(JsonOf(degraded)), keys(JsonOf(live)));

  const std::string json = JsonOf(degraded);
  EXPECT_NE(json.find("\"available\": false"), std::string::npos);
  EXPECT_NE(json.find("\"source\": \"rusage\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"derived\""), std::string::npos);
}

TEST(HostPerfTest, LiveCountersAreMonotoneWhenAvailable) {
  ScopedForceOff force(false);
  HostPerfCounters pc;
  if (!pc.available()) {
    GTEST_SKIP() << "perf_event_open unavailable: " << pc.unavailable_reason();
  }
  pc.Start();
  Spin();
  const HostPerfSample s = pc.Stop();
  EXPECT_TRUE(s.available);
  EXPECT_EQ(s.source, "perf_event");
  EXPECT_TRUE(s.reason.empty());
  EXPECT_GT(s.cycles, 0u);
  EXPECT_GT(s.instructions, 0u);
  EXPECT_GT(s.Ipc(), 0.0);
}

TEST(HostPerfTest, DerivedRatesGuardZeroDenominators) {
  const HostPerfSample zero;
  EXPECT_DOUBLE_EQ(zero.Ipc(), 0.0);
  EXPECT_DOUBLE_EQ(zero.LlcMpki(), 0.0);
  EXPECT_DOUBLE_EQ(zero.DtlbMpki(), 0.0);
  EXPECT_DOUBLE_EQ(zero.BranchMpki(), 0.0);

  HostPerfSample s;
  s.instructions = 2000;
  s.llc_misses = 3;
  s.dtlb_load_misses = 4;
  s.branch_misses = 5;
  EXPECT_DOUBLE_EQ(s.LlcMpki(), 1.5);
  EXPECT_DOUBLE_EQ(s.DtlbMpki(), 2.0);
  EXPECT_DOUBLE_EQ(s.BranchMpki(), 2.5);
}

}  // namespace
}  // namespace cpt::obs
