// Dumps the simulator's contract enums — counts and wire names — as JSON,
// straight from the compiled binary.  tools/check_bench_json.py runs it
// (--dump-enums) to learn the EventKind wire names, so the validator checks
// traces against the table the C++ compiler actually built.
#include <cstddef>
#include <iostream>

#include "obs/attribution.h"
#include "obs/json_writer.h"
#include "obs/trace.h"
#include "workload/workload.h"

namespace {

template <typename Enum, typename NameFn>
void DumpEnum(cpt::obs::JsonWriter& w, const char* name, std::size_t count,
              NameFn name_of) {
  w.Key(name);
  w.BeginObject();
  w.KV("count", static_cast<std::uint64_t>(count));
  w.Key("names");
  w.BeginArray();
  for (std::size_t i = 0; i < count; ++i) {
    w.String(name_of(static_cast<Enum>(i)));
  }
  w.EndArray();
  w.EndObject();
}

}  // namespace

int main() {
  cpt::obs::JsonWriter w(std::cout, /*pretty=*/true);
  w.BeginObject();
  w.KV("schema", "cpt-dump-enums");
  w.KV("version", std::uint64_t{1});
  w.Key("enums");
  w.BeginObject();
  DumpEnum<cpt::obs::EventKind>(
      w, "EventKind", cpt::obs::kEventKindCount,
      [](cpt::obs::EventKind k) { return cpt::obs::ToString(k); });
  DumpEnum<cpt::obs::WalkHitClass>(
      w, "WalkHitClass", cpt::obs::kWalkHitClassCount,
      [](cpt::obs::WalkHitClass c) { return cpt::obs::ToString(c); });
  DumpEnum<cpt::obs::SegmentClass>(
      w, "SegmentClass", cpt::obs::kSegmentClassCount,
      [](cpt::obs::SegmentClass c) { return cpt::obs::ToString(c); });
  DumpEnum<cpt::workload::SegmentKind>(
      w, "SegmentKind", cpt::workload::kSegmentKindCount,
      [](cpt::workload::SegmentKind k) { return cpt::workload::ToString(k); });
  w.EndObject();
  w.EndObject();
  std::cout << '\n';
  return 0;
}
