#include "obs/metrics.h"

#include "common/check.h"
#include "obs/json_writer.h"

namespace cpt::obs {

namespace {

std::string KeyOf(std::string_view name, const MetricRegistry::Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\0';
    key += k;
    key += '\0';
    key += v;
  }
  return key;
}

}  // namespace

MetricRegistry::Instrument& MetricRegistry::Intern(std::string_view name, const Labels& labels,
                                                   Type type) {
  auto [it, inserted] = instruments_.try_emplace(KeyOf(name, labels));
  Instrument& inst = it->second;
  if (inserted) {
    inst.name = std::string(name);
    inst.labels = labels;
    inst.type = type;
  } else {
    CPT_CHECK(inst.type == type, "metric re-registered with a different type");
  }
  return inst;
}

std::uint64_t& MetricRegistry::Counter(std::string_view name, const Labels& labels) {
  return Intern(name, labels, Type::kCounter).counter;
}

double& MetricRegistry::Gauge(std::string_view name, const Labels& labels) {
  return Intern(name, labels, Type::kGauge).gauge;
}

Histogram& MetricRegistry::Histo(std::string_view name, const Labels& labels) {
  return Intern(name, labels, Type::kHisto).histo;
}

RunningStats& MetricRegistry::Stats(std::string_view name, const Labels& labels) {
  return Intern(name, labels, Type::kStats).stats;
}

void MetricRegistry::ToJson(JsonWriter& w) const {
  w.BeginArray();
  for (const auto& [key, inst] : instruments_) {
    w.BeginObject();
    w.KV("name", inst.name);
    if (!inst.labels.empty()) {
      w.Key("labels");
      w.BeginObject();
      for (const auto& [k, v] : inst.labels) {
        w.KV(k, v);
      }
      w.EndObject();
    }
    switch (inst.type) {
      case Type::kCounter:
        w.KV("type", "counter");
        w.KV("value", inst.counter);
        break;
      case Type::kGauge:
        w.KV("type", "gauge");
        w.KV("value", inst.gauge);
        break;
      case Type::kHisto:
        w.KV("type", "histogram");
        w.Key("value");
        HistogramToJson(w, inst.histo);
        break;
      case Type::kStats:
        w.KV("type", "stats");
        w.Key("value");
        RunningStatsToJson(w, inst.stats);
        break;
    }
    w.EndObject();
  }
  w.EndArray();
}

void HistogramToJson(JsonWriter& w, const Histogram& h) {
  w.BeginObject();
  w.KV("total", h.total());
  w.KV("mean", h.mean());
  w.KV("overflow", h.overflow());
  w.Key("counts");
  w.BeginObject();
  for (std::size_t v = 0; v <= h.max_value(); ++v) {
    if (h.count(v) != 0) {
      w.KV(std::to_string(v), h.count(v));
    }
  }
  w.EndObject();
  w.EndObject();
}

void RunningStatsToJson(JsonWriter& w, const RunningStats& s) {
  w.BeginObject();
  w.KV("count", s.count());
  w.KV("mean", s.mean());
  w.KV("min", s.min());
  w.KV("max", s.max());
  w.KV("stddev", s.stddev());
  w.EndObject();
}

}  // namespace cpt::obs
