#include "src/obs/timeseries.h"

#include <cmath>
#include <limits>

#include "src/common/file_util.h"
#include "src/common/flags.h"
#include "src/common/string_util.h"

namespace pdsp {
namespace obs {

namespace {

/// CSV cell for a sampled double: non-finite samples (a gauge that divided
/// by a zero interval, an unset watermark) serialize as an *empty* cell —
/// "nan"/"inf" literals break strict CSV parsers and the SVG charts.
std::string CsvCell(double v, const char* fmt) {
  if (!std::isfinite(v)) return "";
  return StrFormat(fmt, v);
}

/// Inverse of CsvCell: an empty cell parses back to quiet NaN; any other
/// cell must be a whole finite number.
bool ParseCell(const std::string& cell, double* out) {
  if (cell.empty()) {
    *out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  return ParseNumber(cell, out);
}

}  // namespace

const std::vector<std::string>& TimeSeries::Columns() {
  static const std::vector<std::string> kColumns = {
      "time_s",      "task",        "op",
      "instance",    "queue_tuples", "utilization",
      "in_rate_tps", "out_rate_tps", "watermark_lag_s",
      "in_flight_tuples", "backpressure",
  };
  return kColumns;
}

std::vector<double> TimeSeries::SampleTimes() const {
  std::vector<double> times;
  for (const TimeSeriesRow& row : rows_) {
    if (times.empty() || times.back() != row.time_s) {
      times.push_back(row.time_s);
    }
  }
  return times;
}

std::string TimeSeries::ToCsv() const {
  std::string out = Join(Columns(), ",") + "\n";
  for (const TimeSeriesRow& row : rows_) {
    out += CsvCell(row.time_s, "%.6f") +
           StrFormat(",%d,%s,%d,%lld,", row.task, row.op.c_str(),
                     row.instance, static_cast<long long>(row.queue_tuples)) +
           CsvCell(row.utilization, "%.4f") + "," +
           CsvCell(row.in_rate_tps, "%.1f") + "," +
           CsvCell(row.out_rate_tps, "%.1f") + "," +
           CsvCell(row.watermark_lag_s, "%.6f") +
           StrFormat(",%lld,%d\n",
                     static_cast<long long>(row.in_flight_tuples),
                     row.backpressure ? 1 : 0);
  }
  return out;
}

Result<TimeSeries> TimeSeries::FromCsv(const std::string& csv) {
  const std::vector<std::string> lines = Split(csv, '\n');
  if (lines.empty() || Trim(lines[0]) != Join(Columns(), ",")) {
    return Status::InvalidArgument("timeseries CSV: bad or missing header");
  }
  TimeSeries series;
  for (size_t n = 1; n < lines.size(); ++n) {
    const std::string line = Trim(lines[n]);
    if (line.empty()) continue;
    const std::vector<std::string> cells = Split(line, ',');
    if (cells.size() != Columns().size()) {
      return Status::InvalidArgument(
          StrFormat("timeseries CSV line %zu: %zu cells, expected %zu", n + 1,
                    cells.size(), Columns().size()));
    }
    auto malformed = [&](size_t c) {
      return Status::InvalidArgument(StrFormat(
          "timeseries CSV line %zu, column %s: malformed value '%s'", n + 1,
          Columns()[c].c_str(), cells[c].c_str()));
    };
    TimeSeriesRow row;
    if (!ParseCell(cells[0], &row.time_s)) return malformed(0);
    if (!ParseNumber(cells[1], &row.task)) return malformed(1);
    row.op = cells[2];
    if (!ParseNumber(cells[3], &row.instance)) return malformed(3);
    if (!ParseNumber(cells[4], &row.queue_tuples)) return malformed(4);
    if (!ParseCell(cells[5], &row.utilization)) return malformed(5);
    if (!ParseCell(cells[6], &row.in_rate_tps)) return malformed(6);
    if (!ParseCell(cells[7], &row.out_rate_tps)) return malformed(7);
    if (!ParseCell(cells[8], &row.watermark_lag_s)) return malformed(8);
    if (!ParseNumber(cells[9], &row.in_flight_tuples)) return malformed(9);
    if (cells[10] != "0" && cells[10] != "1") return malformed(10);
    row.backpressure = cells[10] == "1";
    series.Append(std::move(row));
  }
  return series;
}

Status TimeSeries::WriteCsv(const std::string& path) const {
  return WriteTextFileAtomic(path, ToCsv());
}

}  // namespace obs
}  // namespace pdsp
