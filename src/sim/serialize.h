// JSON serialization of the experiment-layer value types (sim/experiments.h)
// via the telemetry writer (obs/json_writer.h).  Each ToJson emits one JSON
// object; the caller owns the surrounding document structure (the bench
// binaries wrap these in the schema-versioned envelope of bench/bench_flags.h).
#pragma once

#include "sim/experiments.h"

namespace cpt::obs {
class JsonWriter;
}  // namespace cpt::obs

namespace cpt::sim {

// The full machine configuration, so a JSON document identifies its run
// exactly (satellite requirement: every output is reproducible from it).
void ToJson(obs::JsonWriter& w, const MachineOptions& opts);

// Size experiment result: paper-model bytes, hashed baseline, normalized
// ratio, block census, seed, options, and wall-clock build time.
void ToJson(obs::JsonWriter& w, const SizeMeasurement& m);

// Access-time experiment result: the Figure 11 metric plus miss breakdown,
// throughput, seed, options, and (when collected) walk-shape histograms and
// per-kind event totals.
void ToJson(obs::JsonWriter& w, const AccessMeasurement& m);

}  // namespace cpt::sim
