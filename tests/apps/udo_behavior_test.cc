// Behavioural tests for the application UDOs not covered in apps_test.cc:
// smart-grid outliers, machine-outlier z-scores, bargain index, topic
// extraction and ranking, log parsing, and the AD CTR aggregation.

#include <gtest/gtest.h>

#include <set>

#include "src/apps/apps.h"
#include "src/runtime/operators.h"
#include "tests/testing/operator_driver.h"

namespace pdsp {
namespace {

using testing::MakeRow;

testing::OperatorDriver Instance(AppId app, const char* op_name) {
  AppOptions opt;
  auto plan = MakeApp(app, opt);
  EXPECT_TRUE(plan.ok());
  auto inst = testing::DriveOperator(*plan, op_name);
  EXPECT_TRUE(inst.ok()) << op_name << ": " << inst.status().ToString();
  return std::move(*inst);
}

TEST(SmartGridUdoTest, FlagsLoadsAboveBaseline) {
  auto inst = Instance(AppId::kSmartGrid, "load_outlier");
  auto& out = inst.out();
  // Steady load of 100 for house 3 establishes the baseline.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        inst.Push(MakeRow({Value(3), Value(7), Value(100.0)}), 0, 0.0).ok());
  }
  EXPECT_TRUE(out.empty());  // steady: no outliers
  // A 3x load spike must be flagged with ratio ~3.
  ASSERT_TRUE(
      inst.Push(MakeRow({Value(3), Value(7), Value(300.0)}), 0, 0.0).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tuple.values[0].AsInt(), 3);
  EXPECT_NEAR(out[0].tuple.values[2].AsDouble(), 3.0, 0.1);
}

TEST(SmartGridUdoTest, HousesAreIndependent) {
  auto inst = Instance(AppId::kSmartGrid, "load_outlier");
  auto& out = inst.out();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        inst.Push(MakeRow({Value(1), Value(1), Value(100.0)}), 0, 0.0).ok());
  }
  // House 2's first reading initializes its own baseline; a high absolute
  // value there is not an outlier relative to house 1.
  ASSERT_TRUE(
      inst.Push(MakeRow({Value(2), Value(1), Value(500.0)}), 0, 0.0).ok());
  EXPECT_TRUE(out.empty());
}

TEST(MachineOutlierUdoTest, ScoresDeviationsAfterWarmup) {
  auto inst = Instance(AppId::kMachineOutlier, "outlier_score");
  auto& out = inst.out();
  // Stable metrics: scores stay ~0 after warmup.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(inst.Push(MakeRow({Value(5), Value(50.0 + (i % 3)),
                                   Value(40.0 + (i % 2))}),
                          0, 0.0)
                    .ok());
  }
  ASSERT_FALSE(out.empty());
  const double calm = out.back().tuple.values[1].AsDouble();
  out.clear();
  // A wild reading scores high.
  ASSERT_TRUE(
      inst.Push(MakeRow({Value(5), Value(99.0), Value(1.0)}), 0, 0.0).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_GT(out[0].tuple.values[1].AsDouble(), calm + 5.0);
}

TEST(BargainIndexUdoTest, IndexPositiveWhenPriceBelowVwap) {
  auto inst = Instance(AppId::kBargainIndex, "vwap");
  auto& out = inst.out();
  // Establish VWAP ~100 for symbol 9.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        inst.Push(MakeRow({Value(9), Value(100.0), Value(10.0)}), 0, 0.0).ok());
  }
  out.clear();
  ASSERT_TRUE(
      inst.Push(MakeRow({Value(9), Value(80.0), Value(1.0)}), 0, 0.0).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_GT(out[0].tuple.values[2].AsDouble(), 0.1);  // clear bargain
  out.clear();
  ASSERT_TRUE(
      inst.Push(MakeRow({Value(9), Value(130.0), Value(1.0)}), 0, 0.0).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_LT(out[0].tuple.values[2].AsDouble(), 0.0);  // overpriced
}

TEST(LogParseUdoTest, DeterministicStatusAndBytes) {
  auto inst = Instance(AppId::kLogProcessing, "parse");
  auto& out = inst.out();
  ASSERT_TRUE(inst.Push(MakeRow({Value("ba ce di")}), 0, 0.0).ok());
  ASSERT_TRUE(inst.Push(MakeRow({Value("ba xx yy")}), 0, 0.0).ok());
  ASSERT_EQ(out.size(), 2u);
  // Same first token -> same derived status and bytes.
  EXPECT_EQ(out[0].tuple.values[0].AsInt(), out[1].tuple.values[0].AsInt());
  EXPECT_EQ(out[0].tuple.values[1].AsDouble(),
            out[1].tuple.values[1].AsDouble());
  const int64_t status = out[0].tuple.values[0].AsInt();
  EXPECT_TRUE(status == 200 || status == 301 || status == 404 ||
              status == 500);
}

TEST(TopicExtractUdoTest, SubsetsTheTokenStream) {
  auto inst = Instance(AppId::kTrendingTopics, "extract");
  auto& out = inst.out();
  // Long synthetic text: roughly 1 in 8 words are "hashtags".
  std::string text;
  for (int i = 0; i < 400; ++i) text += DictionaryWord(i) + " ";
  ASSERT_TRUE(inst.Push(MakeRow({Value(text)}), 0, 0.0).ok());
  EXPECT_GT(out.size(), 10u);
  EXPECT_LT(out.size(), 200u);
  for (const testing::Row& e : out) {
    EXPECT_EQ(Value(e.tuple.values[0].AsString()).Hash() % 8, 0u);
  }
}

TEST(TopicRankUdoTest, OnlyTopTopicsPass) {
  auto inst = Instance(AppId::kTrendingTopics, "rank");
  auto& out = inst.out();
  // 30 topics with counts 1..30: low ones must stop passing once the
  // tracker fills with higher-counted topics.
  for (int i = 1; i <= 30; ++i) {
    ASSERT_TRUE(inst.Push(MakeRow({Value(DictionaryWord(i)),
                                   Value(static_cast<double>(i))}),
                          0, 0.0)
                    .ok());
  }
  out.clear();
  // Re-submitting the lowest topic: it is far outside the top-10.
  ASSERT_TRUE(
      inst.Push(MakeRow({Value(DictionaryWord(1)), Value(1.0)}), 0, 0.0).ok());
  EXPECT_TRUE(out.empty());
  // The highest topic passes.
  ASSERT_TRUE(
      inst.Push(MakeRow({Value(DictionaryWord(30)), Value(31.0)}), 0, 0.0)
          .ok());
  EXPECT_EQ(out.size(), 1u);
}

TEST(AdCtrUdoTest, EmitsCampaignWeights) {
  auto inst = Instance(AppId::kAdAnalytics, "ctr");
  auto& out = inst.out();
  // Joined row shape: l_ad, l_campaign, l_bid, r_ad, r_user.
  ASSERT_TRUE(inst.Push(MakeRow({Value(11), Value(4), Value(0.5), Value(11),
                                 Value(1234)}),
                        0, 0.0)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tuple.values[0].AsInt(), 4);  // campaign
  EXPECT_GT(out[0].tuple.values[1].AsDouble(), 0.0);
  EXPECT_LE(out[0].tuple.values[1].AsDouble(), 1.0);
}

}  // namespace
}  // namespace pdsp
