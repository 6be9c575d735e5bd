// Property test of the windowed join's columnar side store: it must emit
// exactly what a join that buffers one materialized row per input in a
// per-key std::vector emits, row for row, and hold the same state size
// after every input batch. The reference below is that join.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "src/runtime/keyed_state.h"
#include "src/runtime/operators.h"
#include "tests/testing/operator_driver.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace {

using testing::Row;

// Port 0 rows are (key:int, tag:string, val:double); port 1 rows are
// (val:double, key:int), so the two sides key on different fields.
const data::BatchLayout kLeftLayout(
    {DataType::kInt, DataType::kString, DataType::kDouble});
const data::BatchLayout kRightLayout({DataType::kDouble, DataType::kInt});
constexpr size_t kLeftKey = 0;
constexpr size_t kRightKey = 1;

StreamSpec StreamOf(const data::BatchLayout& layout) {
  StreamSpec spec;
  for (size_t c = 0; c < layout.NumColumns(); ++c) {
    (void)spec.schema.AddField({std::to_string(c), layout.column_type(c)});
    spec.specs.emplace_back();
  }
  return spec;
}

testing::OperatorDriver JoinUnderTest(const WindowSpec& win) {
  PlanBuilder b;
  auto left = b.Source("l", StreamOf(kLeftLayout), testing::PoissonArrival(1));
  auto right =
      b.Source("r", StreamOf(kRightLayout), testing::PoissonArrival(1));
  auto j = b.WindowJoin("j", left, right, kLeftKey, kRightKey, win);
  b.Sink("k", j);
  auto plan = b.Build();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  auto driver = testing::DriveOperator(*plan, "j");
  EXPECT_TRUE(driver.ok()) << driver.status().ToString();
  return std::move(*driver);
}

// The join as it was before its rows stayed columnar: every input row is
// materialized once and buffered in its key's vector, oldest first.
class ReferenceJoin {
 public:
  explicit ReferenceJoin(const WindowSpec& win)
      : win_(win), duration_(win.DurationSeconds()) {}

  void Push(const data::Batch& in, int port, std::vector<Row>* out) {
    const size_t key_field = port == 0 ? kLeftKey : kRightKey;
    Side& mine = sides_[port];
    Side& other = sides_[1 - port];
    for (size_t row = 0; row < in.NumRows(); ++row) {
      const Value key = in.ValueAt(row, key_field);
      const double t = in.event_time(row);
      Entry e{in.RowTuple(row), in.birth(row), in.attr_id(row)};
      if (std::vector<Entry>* probed = other.buffers.Find(key)) {
        if (win_.policy == WindowPolicy::kTime) {
          other.total -= EvictExpired(t, probed);
        }
        for (const Entry& match : *probed) {
          const Entry& left = port == 0 ? e : match;
          const Entry& right = port == 0 ? match : e;
          Row joined;
          joined.tuple.values = left.tuple.values;
          joined.tuple.values.insert(joined.tuple.values.end(),
                                     right.tuple.values.begin(),
                                     right.tuple.values.end());
          joined.tuple.event_time = std::max(t, match.tuple.event_time);
          joined.birth = std::min(e.birth, match.birth);
          joined.attr_id = e.birth <= match.birth ? e.attr_id : match.attr_id;
          out->push_back(std::move(joined));
        }
        if (probed->empty()) other.buffers.Erase(key);
      }
      std::vector<Entry>& own = mine.buffers.FindOrInsert(key);
      own.push_back(std::move(e));
      ++mine.total;
      if (win_.policy == WindowPolicy::kTime) {
        mine.total -= EvictExpired(t, &own);
      } else {
        const auto cap =
            static_cast<size_t>(std::max<int64_t>(1, win_.length_tuples));
        while (own.size() > cap) {
          own.erase(own.begin());
          --mine.total;
        }
      }
    }
  }

  size_t StateSize() const { return sides_[0].total + sides_[1].total; }
  size_t Live(int port) const { return sides_[port].total; }

 private:
  struct Entry {
    Tuple tuple;
    double birth;
    uint32_t attr_id;
  };
  struct Side {
    KeyedTable<std::vector<Entry>> buffers;
    size_t total = 0;
  };

  size_t EvictExpired(double t, std::vector<Entry>* buf) const {
    size_t expired = 0;
    while (expired < buf->size() &&
           (*buf)[expired].tuple.event_time < t - duration_) {
      ++expired;
    }
    buf->erase(buf->begin(), buf->begin() + static_cast<int64_t>(expired));
    return expired;
  }

  WindowSpec win_;
  double duration_;
  Side sides_[2];
};

// Same type and same bits (NaN included), not just Value::operator==.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kInt:
      return a.AsInt() == b.AsInt();
    case DataType::kDouble: {
      const double x = a.AsDouble();
      const double y = b.AsDouble();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case DataType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

void ExpectSameRows(const std::vector<Row>& want, const std::vector<Row>& got,
                    size_t from, int step) {
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (size_t r = from; r < want.size(); ++r) {
    const Tuple& w = want[r].tuple;
    const Tuple& g = got[r].tuple;
    ASSERT_EQ(g.values.size(), w.values.size()) << "step " << step;
    for (size_t c = 0; c < w.values.size(); ++c) {
      ASSERT_TRUE(SameValue(g.values[c], w.values[c]))
          << "step " << step << " row " << r << " col " << c << ": "
          << g.values[c].ToString() << " vs " << w.values[c].ToString();
    }
    ASSERT_EQ(g.event_time, w.event_time) << "step " << step << " row " << r;
    ASSERT_EQ(got[r].birth, want[r].birth) << "step " << step << " row " << r;
    ASSERT_EQ(got[r].attr_id, want[r].attr_id)
        << "step " << step << " row " << r;
  }
}

// Tags of every length class the batch stores differently: empty, short
// (interned) and longer than Batch::kInternMaxBytes.
std::string RandomTag(Rng* rng) {
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return "";
    case 1:
      return DictionaryWord(rng->UniformInt(0, 50));
    default:
      return std::string(
          data::Batch::kInternMaxBytes + static_cast<size_t>(
                                             rng->UniformInt(1, 16)),
          static_cast<char>('a' + rng->UniformInt(0, 25)));
  }
}

struct Workload {
  WindowSpec win;
  int batches;
};

// Drives the join under test and the reference with one deterministic
// stream: batches of 1-48 rows on a random port, Zipf-skewed keys over
// 10^4 values, event times a little out of order, births a short random
// lag before them and a fresh attribution id per row. Batch 100 carries a
// promoted key column (a string key among ints) on port 0, batch 200 a
// double-typed key column on port 1.
void RunAgainstReference(const Workload& w, uint64_t seed) {
  testing::OperatorDriver join = JoinUnderTest(w.win);
  ReferenceJoin reference(w.win);
  std::vector<Row> want;
  Rng rng(seed);
  // Times are whole ticks of 1/1024 s, exact in binary, so rows sit
  // exactly on a window boundary (t - duration) and births tie.
  constexpr double kTick = 1.0 / 1024;
  int64_t clock = 0;
  uint32_t attr = 1;
  // Mirrors the side store's compaction rule (rows held versus live rows,
  // floor 64) to show the stream is long enough to compact both sides.
  size_t held[2] = {0, 0};
  int compactions[2] = {0, 0};
  for (int step = 0; step < w.batches; ++step) {
    const bool promoted_key = step == 100;
    const bool double_key = step == 200;
    int port = static_cast<int>(rng.UniformInt(0, 1));
    if (promoted_key) port = 0;
    if (double_key) port = 1;
    std::vector<DataType> types = (port == 0 ? kLeftLayout : kRightLayout)
                                      .types();
    if (port == 1 && double_key) types[kRightKey] = DataType::kDouble;
    data::Batch in{data::BatchLayout(types)};
    const auto rows = static_cast<size_t>(rng.UniformInt(1, 48));
    for (size_t r = 0; r < rows; ++r) {
      clock += rng.UniformInt(0, 2);
      const int64_t key = rng.Zipf(10000, 1.1);
      const double t =
          static_cast<double>(clock - rng.UniformInt(0, 4)) * kTick;
      const double birth =
          t - static_cast<double>(rng.UniformInt(0, 8)) * kTick;
      if (port == 0) {
        if (promoted_key && r % 3 == 1) {
          in.AppendValue(0, Value(std::to_string(key % 4).append("k")));
        } else {
          in.AppendValue(0, Value(key));
        }
        in.AppendString(1, RandomTag(&rng));
        in.AppendDouble(2, rng.Uniform(-1.0, 1.0));
      } else {
        in.AppendDouble(0, rng.Uniform(-1.0, 1.0));
        if (double_key) {
          in.AppendDouble(1, static_cast<double>(key));
        } else {
          in.AppendInt(1, key);
        }
      }
      in.FinishRow(t, birth, attr++);
    }
    ASSERT_EQ(in.column_promoted(0), promoted_key && port == 0);

    const size_t from = want.size();
    reference.Push(in, port, &want);
    ASSERT_TRUE(join.Push(in, port, static_cast<double>(clock) * kTick).ok())
        << "step " << step;
    ExpectSameRows(want, join.out(), from, step);
    ASSERT_EQ(join.op()->StateSize(), reference.StateSize())
        << "step " << step;

    held[port] += rows;
    for (const int side : {port, 1 - port}) {
      const size_t live = reference.Live(side);
      if (held[side] - live > std::max<size_t>(live, 64)) {
        held[side] = live;
        ++compactions[side];
      }
    }
  }
  EXPECT_GE(compactions[0], 3);
  EXPECT_GE(compactions[1], 3);
}

TEST(WindowJoinPropertyTest, TimePolicyMatchesMaterializedReference) {
  Workload w;
  w.win.policy = WindowPolicy::kTime;
  w.win.duration_ms = 250.0;
  w.batches = 3000;
  RunAgainstReference(w, 42);
  RunAgainstReference(w, 1009);
}

TEST(WindowJoinPropertyTest, CountPolicyMatchesMaterializedReference) {
  Workload w;
  w.win.policy = WindowPolicy::kCount;
  w.win.length_tuples = 3;
  w.batches = 3000;
  RunAgainstReference(w, 42);
  RunAgainstReference(w, 1009);
}

}  // namespace
}  // namespace pdsp
