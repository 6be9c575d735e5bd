#include "src/obs/timeseries.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/common/string_util.h"

namespace pdsp {
namespace obs {
namespace {

TimeSeriesRow Row(double t, int task, double util) {
  TimeSeriesRow row;
  row.time_s = t;
  row.task = task;
  row.op = "agg";
  row.instance = task;
  row.queue_tuples = 5;
  row.utilization = util;
  row.in_rate_tps = 100.0;
  row.out_rate_tps = 90.0;
  row.watermark_lag_s = 0.25;
  row.in_flight_tuples = 42;
  row.backpressure = task == 1;
  return row;
}

TEST(TimeSeriesCsvTest, NonFiniteSamplesSerializeAsEmptyCells) {
  TimeSeries series;
  TimeSeriesRow row = Row(1.0, 0, 0.5);
  row.utilization = std::nan("");
  row.in_rate_tps = std::numeric_limits<double>::infinity();
  row.out_rate_tps = -std::numeric_limits<double>::infinity();
  row.watermark_lag_s = std::nan("");
  series.Append(row);

  const std::string csv = series.ToCsv();
  EXPECT_EQ(csv.find("nan"), std::string::npos);
  EXPECT_EQ(csv.find("inf"), std::string::npos);
  // time,task,op,instance,queue,<empty util>,<empty in>,<empty out>,<empty
  // lag>,in_flight,backpressure
  EXPECT_NE(csv.find("agg,0,5,,,,,42,0"), std::string::npos) << csv;
}

TEST(TimeSeriesCsvTest, RoundTripsThroughFromCsv) {
  TimeSeries series;
  series.Append(Row(0.5, 0, 0.25));
  series.Append(Row(0.5, 1, 0.75));
  TimeSeriesRow gap = Row(1.0, 0, 0.5);
  gap.utilization = std::nan("");
  gap.watermark_lag_s = std::numeric_limits<double>::infinity();
  series.Append(gap);

  const std::string csv = series.ToCsv();
  auto parsed = TimeSeries::FromCsv(csv);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->NumRows(), 3u);
  // Exact round trip: serialize -> parse -> serialize is a fixed point.
  EXPECT_EQ(parsed->ToCsv(), csv);

  const TimeSeriesRow& back = parsed->rows()[2];
  EXPECT_TRUE(std::isnan(back.utilization));
  EXPECT_TRUE(std::isnan(back.watermark_lag_s));  // inf became an empty cell
  EXPECT_EQ(back.op, "agg");
  EXPECT_EQ(back.in_flight_tuples, 42);
  const TimeSeriesRow& second = parsed->rows()[1];
  EXPECT_TRUE(second.backpressure);
  EXPECT_DOUBLE_EQ(second.utilization, 0.75);
}

TEST(TimeSeriesCsvTest, RejectsBadHeaderAndRaggedRows) {
  auto bad_header = TimeSeries::FromCsv("time,task\n1,2\n");
  ASSERT_FALSE(bad_header.ok());
  EXPECT_TRUE(bad_header.status().IsInvalidArgument());

  const std::string header = Join(TimeSeries::Columns(), ",");
  auto ragged = TimeSeries::FromCsv(header + "\n1.0,0,agg\n");
  ASSERT_FALSE(ragged.ok());
  EXPECT_TRUE(ragged.status().IsInvalidArgument());

  // Header-only documents are a valid empty series.
  auto empty = TimeSeries::FromCsv(header + "\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(TimeSeriesCsvTest, RejectsMalformedNumericCells) {
  TimeSeries series;
  series.Append(Row(0.5, 3, 0.25));
  const std::string csv = series.ToCsv();
  ASSERT_TRUE(TimeSeries::FromCsv(csv).ok());
  const std::string header = Join(TimeSeries::Columns(), ",");
  const std::vector<std::string> good =
      Split(Trim(csv.substr(header.size() + 1)), ',');
  ASSERT_EQ(good.size(), TimeSeries::Columns().size());
  // One malformed cell at a time, in every numeric column; column 2 is the
  // operator name, which is free text.
  const struct {
    size_t column;
    const char* cell;
  } cases[] = {
      {0, "0.5s"},    {0, "nan"},  {1, "3x"},    {1, "abc"},
      {1, "1e3"},     {3, "abc"},  {3, "-"},     {3, "99999999999"},
      {4, "12junk"},  {4, " 5"},   {4, "5.0"},   {5, "0.25.1"},
      {5, "inf"},     {6, "1e"},   {7, "+-1"},   {8, "0x10"},
      {9, "7q"},      {9, ""},     {10, "2"},    {10, "true"},
      {10, ""},       {10, "01"},
  };
  for (const auto& c : cases) {
    std::vector<std::string> cells = good;
    cells[c.column] = c.cell;
    const auto parsed =
        TimeSeries::FromCsv(header + "\n" + Join(cells, ",") + "\n");
    ASSERT_FALSE(parsed.ok()) << "column " << c.column << " cell '" << c.cell
                              << "'";
    EXPECT_TRUE(parsed.status().IsInvalidArgument());
    const std::string message = parsed.status().ToString();
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
    EXPECT_NE(message.find("column " + TimeSeries::Columns()[c.column]),
              std::string::npos)
        << message;
  }
}

}  // namespace
}  // namespace obs
}  // namespace pdsp
