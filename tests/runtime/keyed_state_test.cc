#include "src/runtime/keyed_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace pdsp {
namespace {

// Same type and same bits: the table must keep the very key the map keeps
// (the first of its class), not just an equivalent one.
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

std::string Describe(const Value& v) {
  return std::string(DataTypeToString(v.type())) + ":" + v.ToString();
}

// The table holds exactly the reference's keys and values, and its entries
// sorted by KeyLess are the reference's iteration order.
void ExpectSameAsMap(KeyedTable<int>* table, const std::map<Value, int>& ref,
                     const std::vector<Value>& universe) {
  ASSERT_EQ(table->size(), ref.size());
  for (const Value& key : universe) {
    const auto it = ref.find(key);
    const int* got = table->Find(key);
    if (it == ref.end()) {
      ASSERT_EQ(got, nullptr) << Describe(key);
    } else {
      ASSERT_NE(got, nullptr) << Describe(key);
      ASSERT_EQ(*got, it->second) << Describe(key);
    }
  }
  const auto& entries = table->entries();
  std::vector<size_t> order(entries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return KeyLess(entries[a].first, entries[b].first);
  });
  size_t pos = 0;
  for (const auto& [key, value] : ref) {
    const auto& entry = entries[order[pos++]];
    ASSERT_TRUE(SameValue(entry.first, key))
        << Describe(entry.first) << " vs " << Describe(key);
    ASSERT_EQ(entry.second, value);
  }
}

// Drives `steps` random FindOrInsert / Find / Erase calls over `universe`
// into a table and a std::map side by side, checking after every step.
// Returns the largest size reached.
size_t RunAgainstMap(const std::vector<Value>& universe, int steps,
                     uint64_t seed, double insert_share) {
  Rng rng(seed);
  KeyedTable<int> table;
  std::map<Value, int> ref;
  size_t peak = 0;
  for (int step = 0; step < steps; ++step) {
    const Value& key = rng.Choice(universe);
    const double op = rng.NextDouble();
    if (op < insert_share) {
      const int add = static_cast<int>(rng.UniformInt(1, 9));
      int& slot = table.FindOrInsert(key);
      slot += add;
      ref[key] += add;
      EXPECT_EQ(slot, ref[key]) << Describe(key);
    } else if (op < (1.0 + insert_share) / 2.0) {
      const int* got = table.Find(key);
      EXPECT_EQ(got != nullptr, ref.count(key) == 1) << Describe(key);
    } else {
      table.Erase(key);
      ref.erase(key);
    }
    peak = std::max(peak, table.size());
    ExpectSameAsMap(&table, ref, universe);
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "diverged at step " << step << " (seed " << seed << ")";
      return peak;
    }
  }
  // Drain in random order: every erase shifts a probe run.
  while (!ref.empty()) {
    auto it = ref.begin();
    std::advance(it, rng.UniformInt(0, static_cast<int64_t>(ref.size()) - 1));
    const Value key = it->first;
    table.Erase(key);
    ref.erase(it);
    ExpectSameAsMap(&table, ref, universe);
    if (::testing::Test::HasFatalFailure()) return peak;
  }
  return peak;
}

// Each universe is one typed key column: a std::map over strings mixed with
// numbers (or NaN) has no strict weak order, so it is no reference there.
//
// Numeric keys: small ints, ints and their integral doubles (3 vs 3.0),
// -0.0 vs 0.0 vs 0, int64 pairs above 2^53 that round to one double, and
// non-integral doubles.
std::vector<Value> NumericUniverse() {
  std::vector<Value> keys;
  for (int i = -40; i < 200; ++i) keys.emplace_back(i);
  for (int i = -5; i < 30; i += 3) keys.emplace_back(static_cast<double>(i));
  keys.emplace_back(-0.0);
  keys.emplace_back(0.0);
  const int64_t big = int64_t{1} << 53;
  for (int64_t base : {big, big * 4, big * 512}) {
    keys.emplace_back(base);
    keys.emplace_back(base + 1);  // rounds to base as a double
    keys.emplace_back(static_cast<double>(base));
  }
  keys.emplace_back(-big - 1);
  keys.emplace_back(-big);
  for (double d : {0.5, -0.5, 2.25, 1e-9, -1e-300, 3.0000000000000004, 1e300,
                   199.5}) {
    keys.emplace_back(d);
  }
  return keys;
}

// String keys: empty, short (inline) and long (heap) strings, shared
// prefixes and an embedded NUL, compared by bytes.
std::vector<Value> StringUniverse() {
  std::vector<Value> keys;
  keys.emplace_back(std::string());
  keys.emplace_back(std::string(1, '\0'));
  keys.emplace_back(std::string("a\0b", 3));
  // Appended piecewise: GCC 12 at -O3 misreports `"lit" + std::string&&`
  // as an overlapping memcpy (-Werror=restrict).
  const auto key = [](const char* prefix, int i, const char* suffix) {
    std::string s(prefix);
    s.append(std::to_string(i)).append(suffix);
    return s;
  };
  for (int i = 0; i < 150; ++i) {
    keys.emplace_back(key("k", i, ""));
    if (i % 3 == 0) keys.emplace_back(key("fifteen-bytes", i % 10, "x"));
    if (i % 2 == 0) {
      keys.emplace_back(key("a key longer than fifteen bytes #", i, ""));
    }
  }
  keys.emplace_back("k1 ");
  keys.emplace_back("K1");
  return keys;
}

TEST(KeyedTableTest, MatchesOrderedMapOnNumericKeys) {
  for (uint64_t seed : {42u, 1009u}) {
    const size_t peak = RunAgainstMap(NumericUniverse(), 3000, seed, 0.6);
    // 8 slots hold 4 keys; more than 64 keys means at least four doublings.
    EXPECT_GT(peak, 64u) << "seed " << seed;
  }
}

TEST(KeyedTableTest, MatchesOrderedMapOnStringKeys) {
  for (uint64_t seed : {7u, 1009u}) {
    const size_t peak = RunAgainstMap(StringUniverse(), 3000, seed, 0.6);
    EXPECT_GT(peak, 64u) << "seed " << seed;
  }
}

TEST(KeyedTableTest, EqualKeysShareOneEntryAndKeepTheFirst) {
  KeyedTable<int> table;
  table.FindOrInsert(Value(3)) = 1;
  table.FindOrInsert(Value(3.0)) += 1;
  table.FindOrInsert(Value(-0.0)) = 5;
  table.FindOrInsert(Value(0)) += 1;
  const int64_t big = (int64_t{1} << 53) + 1;
  table.FindOrInsert(Value(big)) = 10;
  table.FindOrInsert(Value(big - 1)) += 1;
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(*table.Find(Value(3.0)), 2);
  EXPECT_EQ(*table.Find(Value(0.0)), 6);
  EXPECT_EQ(*table.Find(Value(static_cast<double>(big))), 11);
  for (const Value& first : {Value(3), Value(-0.0), Value(big)}) {
    EXPECT_TRUE(std::any_of(
        table.entries().begin(), table.entries().end(),
        [&](const auto& entry) { return SameValue(entry.first, first); }))
        << Describe(first);
  }
  EXPECT_EQ(table.Find(Value(4)), nullptr);
  EXPECT_EQ(table.Find(Value("3")), nullptr);
}

// Keys whose home slot is the last one of a 64-slot array: their probe run
// wraps to slot 0, and erasing them must shift the wrapped part back.
TEST(KeyedTableTest, EraseShiftsProbeRunsThatWrapTheSlotArray) {
  constexpr uint32_t kMask = 63;  // 17..32 keys live in 64 slots
  std::vector<Value> tail;        // home slot 62 or 63
  std::vector<Value> head;        // home slot 0 or 1
  for (int64_t i = 0; tail.size() < 6 || head.size() < 4; ++i) {
    const auto home = static_cast<uint32_t>(KeyHash(Value(i))) & kMask;
    if (home >= 62 && tail.size() < 6) tail.emplace_back(i);
    if (home <= 1 && head.size() < 4) head.emplace_back(i);
  }
  std::vector<Value> universe = tail;
  universe.insert(universe.end(), head.begin(), head.end());
  for (int64_t i = 1000; universe.size() < 24; ++i) universe.emplace_back(i);

  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    KeyedTable<int> table;
    std::map<Value, int> ref;
    for (size_t i = 0; i < universe.size(); ++i) {
      table.FindOrInsert(universe[i]) = static_cast<int>(i);
      ref[universe[i]] = static_cast<int>(i);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectSameAsMap(&table, ref, universe));
    // Erase the wrapped run in a seed-dependent order, then re-insert it.
    std::vector<Value> order = tail;
    order.insert(order.end(), head.begin(), head.end());
    Rng rng(seed);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<size_t>(
                    rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
    for (const Value& key : order) {
      table.Erase(key);
      ref.erase(key);
      ASSERT_NO_FATAL_FAILURE(ExpectSameAsMap(&table, ref, universe));
    }
    for (const Value& key : order) {
      table.FindOrInsert(key) = 100;
      ref[key] = 100;
      ASSERT_NO_FATAL_FAILURE(ExpectSameAsMap(&table, ref, universe));
    }
  }
}

TEST(KeyedTableTest, ClearEmptiesAndTheTableIsReusable) {
  KeyedTable<int> table;
  for (int i = 0; i < 100; ++i) table.FindOrInsert(Value(i)) = i;
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.entries().empty());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.Find(Value(i)), nullptr);
  table.FindOrInsert(Value("x")) = 7;
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(*table.Find(Value("x")), 7);
}

// Where Value::operator< is no strict weak order the table defines one:
// NaNs are one key after every number, strings never equal numbers and
// order after them.
TEST(KeyedTableTest, NaNAndMixedKeysFollowTheDefinedRule) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  KeyedTable<int> table;
  table.FindOrInsert(Value(nan)) += 1;
  table.FindOrInsert(Value(-nan)) += 1;
  table.FindOrInsert(Value(3)) += 1;
  table.FindOrInsert(Value("abc")) += 1;  // length 3, yet not the key 3
  table.FindOrInsert(Value(-1e308)) += 1;
  ASSERT_EQ(table.size(), 4u);
  EXPECT_EQ(*table.Find(Value(nan)), 2);
  EXPECT_EQ(*table.Find(Value(3.0)), 1);
  EXPECT_EQ(*table.Find(Value("abc")), 1);

  const auto& entries = table.entries();
  std::vector<size_t> order = {0, 1, 2, 3};
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return KeyLess(entries[a].first, entries[b].first);
  });
  EXPECT_DOUBLE_EQ(entries[order[0]].first.AsNumeric(), -1e308);
  EXPECT_EQ(entries[order[1]].first.AsInt(), 3);
  EXPECT_TRUE(std::isnan(entries[order[2]].first.AsDouble()));
  EXPECT_EQ(entries[order[3]].first.AsString(), "abc");

  EXPECT_FALSE(KeyLess(Value(nan), Value(nan)));
  EXPECT_TRUE(KeyLess(Value(1e308), Value(nan)));
  EXPECT_TRUE(KeyLess(Value(nan), Value("")));
  EXPECT_FALSE(KeyEqual(Value(""), Value(0)));
  EXPECT_TRUE(KeyEqual(Value(nan), Value(-nan)));
}

}  // namespace
}  // namespace pdsp
