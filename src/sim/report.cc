#include "sim/report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/check.h"
#include "obs/json_writer.h"
#include "sim/experiments.h"

namespace cpt::sim {

Report::Report(std::vector<std::string> columns) : columns_(std::move(columns)) {}

void Report::AddRow(std::vector<std::string> cells) {
  CPT_CHECK(cells.size() == columns_.size(), "report row width differs from the header's");
  rows_.push_back(std::move(cells));
}

std::string Report::Num(std::uint64_t v) { return std::to_string(v); }

std::string Report::Fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string Report::Kb(std::uint64_t bytes) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0fKB", static_cast<double>(bytes) / 1024.0);
  return buf;
}

std::string LinesPerMissCell(const AccessMeasurement& m) {
  std::string cell = Report::Fixed(m.avg_lines_per_miss, 2);
  if (m.oom_faults > 0) {
    cell += '*';
  }
  return cell;
}

std::string Report::ToString() const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "" : "  ");
      os << cells[c];
      os << std::string(widths[c] - cells[c].size(), ' ');
    }
    os << "\n";
  };
  emit_row(columns_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c == 0 ? 0 : 2);
  }
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return os.str();
}

void Report::Print() const { std::fputs(ToString().c_str(), stdout); }

void Report::ToJson(obs::JsonWriter& w) const {
  w.BeginObject();
  w.Key("columns");
  w.BeginArray();
  for (const std::string& c : columns_) {
    w.String(c);
  }
  w.EndArray();
  w.Key("rows");
  w.BeginArray();
  for (const auto& row : rows_) {
    w.BeginArray();
    for (const std::string& cell : row) {
      w.String(cell);
    }
    w.EndArray();
  }
  w.EndArray();
  w.EndObject();
}

}  // namespace cpt::sim
