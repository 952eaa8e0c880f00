// MetricRegistry: a flat namespace of named telemetry instruments.
//
// Four instrument types, mirroring what the evaluation actually reports:
//   counter — monotonically increasing u64 (misses, faults, grants)
//   gauge   — last-written double (load factor, normalized size)
//   histo   — cpt::Histogram over small integers (chain length, lines/miss)
//   stats   — cpt::RunningStats over doubles (wall seconds, refs/sec)
//
// Instruments are identified by name plus an optional ordered label list
// (e.g. {"workload","coral"}), so one registry can hold a whole bench run's
// per-workload series.  Lookup interns the instrument on first use and
// returns a reference with a stable address, so hot paths can resolve once
// and bump a plain integer thereafter.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace cpt::obs {

class JsonWriter;

class MetricRegistry {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  std::uint64_t& Counter(std::string_view name, const Labels& labels = {});
  double& Gauge(std::string_view name, const Labels& labels = {});
  Histogram& Histo(std::string_view name, const Labels& labels = {});
  RunningStats& Stats(std::string_view name, const Labels& labels = {});

  std::size_t size() const { return instruments_.size(); }
  bool empty() const { return instruments_.empty(); }

  // Visits every counter instrument in dump order (name, labels, value).
  // Used by IntervalSnapshotter to delta-sample a registry at window
  // boundaries without exposing the instrument map.
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    for (const auto& [key, inst] : instruments_) {
      if (inst.type == Type::kCounter) {
        fn(inst.name, inst.labels, inst.counter);
      }
    }
  }

  // Emits the registry as a JSON array of {name, labels, type, ...} objects,
  // ordered by (name, labels) for deterministic output.
  void ToJson(JsonWriter& w) const;

 private:
  enum class Type : std::uint8_t { kCounter, kGauge, kHisto, kStats };

  struct Instrument {
    std::string name;
    Labels labels;
    Type type = Type::kCounter;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    Histogram histo;
    RunningStats stats;
  };

  Instrument& Intern(std::string_view name, const Labels& labels, Type type);

  // Keyed by name + '\0' + label pairs; std::map keeps references stable
  // across inserts and the dump deterministically ordered.
  std::map<std::string, Instrument> instruments_;
};

// Shared histogram serialization: {"total","mean","overflow","counts":{...}}.
// Used by the registry dump and the bench JSON documents.
void HistogramToJson(JsonWriter& w, const Histogram& h);

// {"count","mean","min","max","stddev"}.
void RunningStatsToJson(JsonWriter& w, const RunningStats& s);

}  // namespace cpt::obs
