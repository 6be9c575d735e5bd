// pdsp::obs time-series: per-operator-instance samples taken at a fixed
// virtual-time interval during a simulated run (queue depth, utilization,
// input/output rates, watermark lag) plus the global in-flight/backpressure
// state, in long format — one row per (sample time, task) — so a single CSV
// plots directly with pandas/gnuplot.

#ifndef PDSP_OBS_TIMESERIES_H_
#define PDSP_OBS_TIMESERIES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace pdsp {
namespace obs {

/// \brief One sampled row: the state of one operator instance (physical
/// task) at virtual time `time_s`, with rates/utilization computed over the
/// interval since the previous sample.
struct TimeSeriesRow {
  double time_s = 0.0;
  int task = 0;             ///< physical task id
  std::string op;           ///< logical operator name
  int instance = 0;         ///< instance index within the operator
  int64_t queue_tuples = 0; ///< input queue depth at the sample instant
  double utilization = 0.0; ///< busy fraction over the last interval
  double in_rate_tps = 0.0;
  double out_rate_tps = 0.0;
  /// Sample time minus the task's input watermark: how far event time lags
  /// behind virtual time at this task (watermark stalls show as growth).
  double watermark_lag_s = 0.0;
  /// Global pipeline state, repeated on every row of the sample.
  int64_t in_flight_tuples = 0;
  bool backpressure = false;
};

/// \brief Append-only collection of sampled rows, dumpable to CSV.
class TimeSeries {
 public:
  /// CSV header cells, in row-serialization order.
  static const std::vector<std::string>& Columns();

  void Append(TimeSeriesRow row) { rows_.push_back(std::move(row)); }
  const std::vector<TimeSeriesRow>& rows() const { return rows_; }
  bool empty() const { return rows_.empty(); }
  size_t NumRows() const { return rows_.size(); }

  /// Distinct sample timestamps, in order of first appearance.
  std::vector<double> SampleTimes() const;

  /// Serializes all rows. Non-finite samples become empty cells (never
  /// "nan"/"inf" literals, which break strict CSV parsers downstream).
  std::string ToCsv() const;

  /// Parses a ToCsv() document; empty numeric cells come back as NaN, so
  /// ToCsv(FromCsv(x)) == x. Rejects a bad header, ragged rows, and any
  /// cell that is not wholly a number of its column's type (or empty, for
  /// a double column; 0 or 1 for backpressure), naming line and column.
  static Result<TimeSeries> FromCsv(const std::string& csv);

  /// Writes ToCsv() to `path`, creating parent directories.
  Status WriteCsv(const std::string& path) const;

 private:
  std::vector<TimeSeriesRow> rows_;
};

}  // namespace obs
}  // namespace pdsp

#endif  // PDSP_OBS_TIMESERIES_H_
