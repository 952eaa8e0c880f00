// Fixed-width text tables matching the paper's rows/series, used by the
// bench binaries to print each reproduced table and figure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cpt::obs {
class JsonWriter;
}  // namespace cpt::obs

namespace cpt::sim {

struct AccessMeasurement;

class Report {
 public:
  explicit Report(std::vector<std::string> columns);

  // Aborts unless the row has one cell per column.
  void AddRow(std::vector<std::string> cells);

  // Helpers for common cell formats.
  static std::string Num(std::uint64_t v);
  static std::string Fixed(double v, int decimals = 2);
  static std::string Kb(std::uint64_t bytes);

  std::string ToString() const;
  void Print() const;

  // Emits {"columns": [...], "rows": [[...], ...]} — the table's cells
  // verbatim, so a JSON consumer sees exactly what the text report printed.
  void ToJson(obs::JsonWriter& w) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

// A Figure 11 cell: average lines per miss to two decimals, marked with a
// trailing '*' when the run dropped references for lack of a free frame
// (AccessMeasurement::oom_faults > 0).  kDroppedRefsFootnote explains the
// mark under a table that has one.
std::string LinesPerMissCell(const AccessMeasurement& m);
inline constexpr const char* kDroppedRefsFootnote =
    "* the run dropped references for lack of a free frame (oom_faults > 0)";

}  // namespace cpt::sim
