#include "obs/perfetto.h"

#include "common/check.h"
#include "obs/json_writer.h"

namespace cpt::obs {

PerfettoExporter::PerfettoExporter(std::ostream& os, Options opts)
    : opts_(opts), writer_(std::make_unique<JsonWriter>(os, /*pretty=*/false)) {
  CPT_CHECK(opts_.counter_interval > 0);
  writer_->BeginObject();
  writer_->KV("displayTimeUnit", "ms");
  writer_->Key("traceEvents");
  writer_->BeginArray();
  EmitMeta("process_name", 0, "cpt-sim");
  EmitMeta("thread_name", kTrackTlb, "TLB");
  EmitMeta("thread_name", kTrackWalk, "PT walk");
  EmitMeta("thread_name", kTrackOs, "OS");
  EmitMeta("thread_name", kTrackAllocator, "allocator");
  EmitMeta("thread_name", kTrackSwTlb, "softTLB");
  EmitMeta("thread_name", kTrackSections, "sections");
}

PerfettoExporter::~PerfettoExporter() { Finish(); }

void PerfettoExporter::Finish() {
  if (finished_) {
    return;
  }
  // A trailing summary instant makes truncation visible in the UI.
  BeginEvent("i", "trace_end", kTrackSections, now_);
  writer_->KV("s", "g");  // Global-scope instant.
  writer_->Key("args");
  writer_->BeginObject();
  writer_->KV("events_written", events_written_);
  writer_->KV("events_dropped", events_dropped_);
  writer_->EndObject();
  EndEvent();
  writer_->EndArray();
  writer_->EndObject();
  CPT_CHECK(writer_->Complete());
  finished_ = true;
}

bool PerfettoExporter::Budget() {
  if (events_written_ < opts_.max_events) {
    return true;
  }
  ++events_dropped_;
  return false;
}

void PerfettoExporter::BeginEvent(const char* ph, std::string_view name, std::uint32_t tid,
                                  std::uint64_t ts) {
  writer_->BeginObject();
  writer_->KV("ph", ph);
  writer_->KV("name", name);
  writer_->KV("pid", std::uint64_t{0});
  writer_->KV("tid", std::uint64_t{tid});
  writer_->KV("ts", ts);
}

void PerfettoExporter::EndEvent() { writer_->EndObject(); }

void PerfettoExporter::EmitMeta(std::string_view name, std::uint32_t tid,
                                std::string_view value) {
  writer_->BeginObject();
  writer_->KV("ph", "M");
  writer_->KV("name", name);
  writer_->KV("pid", std::uint64_t{0});
  writer_->KV("tid", std::uint64_t{tid});
  writer_->Key("args");
  writer_->BeginObject();
  writer_->KV("name", value);
  writer_->EndObject();
  writer_->EndObject();
}

void PerfettoExporter::Instant(std::string_view name, std::uint32_t tid) {
  if (!Budget()) {
    return;
  }
  BeginEvent("i", name, tid, now_);
  writer_->KV("s", "t");  // Thread-scope instant.
  EndEvent();
  ++events_written_;
}

void PerfettoExporter::CounterSample() {
  if (!Budget()) {
    return;
  }
  BeginEvent("C", "tlb", kTrackTlb, now_);
  writer_->Key("args");
  writer_->BeginObject();
  writer_->KV("misses", misses_);
  writer_->KV("lines_per_miss",
              misses_ == 0 ? 0.0 : static_cast<double>(lines_) / static_cast<double>(misses_));
  writer_->EndObject();
  EndEvent();
  ++events_written_;
}

void PerfettoExporter::BeginSection(std::string_view label) {
  CPT_CHECK(!finished_);
  ++now_;
  if (!Budget()) {
    return;
  }
  BeginEvent("i", label, kTrackSections, now_);
  writer_->KV("s", "g");
  EndEvent();
  ++events_written_;
}

void PerfettoExporter::Record(const WalkEvent& event) {
  CPT_CHECK(!finished_);
  ++now_;
  switch (event.kind) {
    case EventKind::kTlbHit:
      if (opts_.include_hits) {
        Instant("tlb_hit", kTrackTlb);
      }
      break;

    case EventKind::kTlbMiss:
    case EventKind::kTlbBlockMiss:
    case EventKind::kTlbSubblockMiss:
      ++misses_;
      Instant(ToString(event.kind), kTrackTlb);
      walk_.open = true;
      walk_.faulted = false;
      walk_.start = now_;
      walk_.vpn = event.vpn;
      walk_.steps = 0;
      break;

    case EventKind::kWalkStep:
      if (walk_.open) {
        ++walk_.steps;
      }
      break;

    case EventKind::kWalkHit:
      break;  // Folded into the slice args via walk_.steps.

    case EventKind::kWalkAbort:
      if (walk_.open) {
        walk_.faulted = true;
      }
      break;

    case EventKind::kWalkEnd: {
      if (!walk_.open) {
        break;
      }
      walk_.open = false;
      lines_ += event.lines;
      ++walks_;
      if (Budget()) {
        BeginEvent("X", walk_.faulted ? "walk+fault" : "walk", kTrackWalk,
                   walk_.start);
        writer_->KV("dur", now_ - walk_.start + 1);
        writer_->Key("args");
        writer_->BeginObject();
        writer_->KV("vpn", walk_.vpn);
        writer_->KV("steps", std::uint64_t{walk_.steps});
        writer_->KV("lines", std::uint64_t{event.lines});
        writer_->KV("faulted", walk_.faulted);
        writer_->EndObject();
        EndEvent();
        ++events_written_;
      }
      if (walks_ % opts_.counter_interval == 0) {
        CounterSample();
      }
      break;
    }

    case EventKind::kPageFault:
      Instant("page_fault", kTrackOs);
      break;
    case EventKind::kPtePromotion:
      Instant("pte_promotion", kTrackOs);
      break;
    case EventKind::kBlockPrefetch:
      Instant("block_prefetch", kTrackTlb);
      break;
    case EventKind::kReservationGrant:
      Instant(event.value != 0 ? "grant" : "grant_misplaced", kTrackAllocator);
      break;
    case EventKind::kSwTlbHit:
      Instant("swtlb_hit", kTrackSwTlb);
      break;
    case EventKind::kSwTlbMiss:
      Instant("swtlb_miss", kTrackSwTlb);
      break;
  }
}

}  // namespace cpt::obs
