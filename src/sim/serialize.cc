#include "sim/serialize.h"

#include <string>

#include "common/stats.h"
#include "obs/json_writer.h"
#include "obs/perf.h"
#include "obs/trace.h"

namespace cpt::sim {
namespace {

// {"total","mean","overflow","counts":{...}}, zero buckets omitted.
void HistogramToJson(obs::JsonWriter& w, const Histogram& h) {
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

}  // namespace

void ToJson(obs::JsonWriter& w, const MachineOptions& opts) {
  w.BeginObject();
  w.KV("pt_kind", ToString(opts.pt_kind));
  w.KV("tlb_kind", ToString(opts.tlb_kind));
  w.KV("tlb_entries", opts.tlb_entries);
  w.KV("linear_reserved_entries", kLinearReservedTlbEntries);
  w.KV("subblock_factor", opts.subblock_factor);
  w.KV("num_buckets", opts.num_buckets);
  w.KV("line_size", opts.line_size);
  w.KV("prefetch_on_block_miss", opts.prefetch_on_block_miss);
  w.KV("hashed_block_first", opts.hashed_block_first);
  w.KV("swtlb_sets", opts.swtlb_sets);
  w.KV("swtlb_ways", kSwTlbWays);
  w.KV("swtlb_clustered_entries", opts.swtlb_clustered_entries);
  w.KV("shared_page_table", opts.shared_page_table);
  w.KV("maintain_ref_bits", opts.maintain_ref_bits);
  w.KV("phys_frames", opts.phys_frames);
  w.KV("audit", opts.audit);
  w.Key("strategy");
  if (opts.strategy) {
    switch (*opts.strategy) {
      case os::PteStrategy::kBaseOnly:
        w.String("base-only");
        break;
      case os::PteStrategy::kSuperpage:
        w.String("superpage");
        break;
      case os::PteStrategy::kPartialSubblock:
        w.String("partial-subblock");
        break;
    }
  } else {
    w.Null();  // Default: derived from the TLB kind.
  }
  w.EndObject();
}

void ToJson(obs::JsonWriter& w, const SizeMeasurement& m) {
  w.BeginObject();
  w.KV("workload", m.workload);
  w.KV("bytes", m.bytes);
  w.KV("hashed_bytes", m.hashed_bytes);
  w.KV("normalized", m.normalized);
  w.Key("census");
  w.BeginObject();
  w.KV("base_blocks", m.census.base_blocks);
  w.KV("super_blocks", m.census.super_blocks);
  w.KV("psb_blocks", m.census.psb_blocks);
  w.KV("mixed_blocks", m.census.mixed_blocks);
  w.EndObject();
  w.KV("rng_seed", m.rng_seed);
  w.KV("wall_seconds", m.wall_seconds);
  w.Key("host_perf");
  obs::ToJson(w, m.host_perf);
  w.Key("options");
  ToJson(w, m.options);
  w.EndObject();
}

void ToJson(obs::JsonWriter& w, const AccessMeasurement& m) {
  w.BeginObject();
  w.KV("workload", m.workload);
  w.KV("avg_lines_per_miss", m.avg_lines_per_miss);
  w.KV("denominator_misses", m.denominator_misses);
  w.KV("effective_misses", m.effective_misses);
  w.KV("block_misses", m.block_misses);
  w.KV("subblock_misses", m.subblock_misses);
  w.KV("trace_refs", m.trace_refs);
  w.KV("miss_ratio", m.miss_ratio);
  w.KV("pt_bytes", m.pt_bytes);
  w.KV("page_faults", m.page_faults);
  // Written only when nonzero, so a run with ample memory keeps the report
  // shape the committed baselines diff against.
  if (m.oom_faults != 0) {
    w.KV("oom_faults", m.oom_faults);
  }
  if (m.reservations_broken != 0) {
    w.KV("reservations_broken", m.reservations_broken);
  }
  w.KV("rng_seed", m.rng_seed);
  w.Key("timing");
  w.BeginObject();
  w.KV("wall_seconds", m.wall_seconds);
  w.KV("refs_per_sec", m.refs_per_sec);
  w.KV("misses_per_sec", m.misses_per_sec);
  w.Key("host_perf");
  obs::ToJson(w, m.host_perf);
  w.Key("phases");
  w.BeginArray();
  for (const PhasePerf& phase : m.phases) {
    w.BeginObject();
    w.KV("name", phase.name);
    w.KV("work", phase.work);
    w.KV("wall_seconds", phase.wall_seconds);
    w.KV("work_per_sec", phase.work_per_sec);
    w.Key("host_perf");
    obs::ToJson(w, phase.host);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  if (m.audit_defects != 0 || !m.audit_summary.empty()) {
    w.KV("audit_defects", m.audit_defects);
    w.KV("audit_summary", m.audit_summary);
  }
  if (m.telemetry_valid) {
    w.Key("histograms");
    w.BeginObject();
    w.Key("chain_length");
    HistogramToJson(w, m.chain_length);
    w.Key("lines_per_walk");
    HistogramToJson(w, m.lines_per_walk);
    w.EndObject();
    w.Key("events");
    w.BeginObject();
    for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
      const auto kind = static_cast<obs::EventKind>(k);
      if (const std::uint64_t n = m.events[kind]; n != 0) {
        w.KV(obs::ToString(kind), n);
      }
    }
    w.EndObject();
    if (!m.attribution.empty()) {
      w.Key("attribution");
      obs::ToJson(w, m.attribution);
    }
  }
  w.Key("options");
  ToJson(w, m.options);
  w.EndObject();
}

}  // namespace cpt::sim
