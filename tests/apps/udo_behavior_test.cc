// Behavioural tests for the application UDOs not covered in apps_test.cc:
// smart-grid outliers, machine-outlier z-scores, bargain index, topic
// extraction and ranking, log parsing, the AD CTR aggregation, and the text
// UDOs' reads of promoted text columns.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

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

// The four text UDOs read their text cell in place from a typed string
// column and from a promoted one (a column whose rows mix strings and
// numbers) alike: the same input rows yield the same output rows, and a
// number where the text belongs yields none.
TEST(TextUdoTest, PromotedTextColumnEmitsWhatTypedOneDoes) {
  struct Case {
    AppId app;
    const char* op;
    size_t text_col;
  };
  const Case cases[] = {{AppId::kWordCount, "tokenize", 0},
                        {AppId::kSentimentAnalysis, "sentiment", 1},
                        {AppId::kLogProcessing, "parse", 0},
                        {AppId::kTrendingTopics, "extract", 0}};
  std::vector<std::string> texts;
  for (int i = 0; i < 12; ++i) {
    std::string text = " ";
    for (int w = 0; w < 3 * i + 1; ++w) {
      text.append(DictionaryWord(17 * i + w)).append(w % 2 ? "  " : "\t");
    }
    texts.push_back(std::move(text));
  }
  texts.push_back("");
  texts.push_back(std::string(100, 'z'));
  for (const Case& c : cases) {
    const size_t width = c.text_col + 1;
    std::vector<DataType> types(width, DataType::kInt);
    types[c.text_col] = DataType::kString;
    data::Batch typed{data::BatchLayout(types)};
    // The promoted batch declares the text column an int, so its first
    // string promotes it; one extra row holds a number there.
    types[c.text_col] = DataType::kInt;
    data::Batch promoted{data::BatchLayout(types)};
    for (size_t r = 0; r < texts.size(); ++r) {
      for (data::Batch* b : {&typed, &promoted}) {
        if (c.text_col == 1) b->AppendInt(0, static_cast<int64_t>(r));
        b->AppendString(c.text_col, texts[r]);
        b->FinishRow(0.1 * static_cast<double>(r), 0.05,
                     static_cast<uint32_t>(r));
      }
    }
    if (c.text_col == 1) promoted.AppendInt(0, 99);
    promoted.AppendInt(c.text_col, 42);
    promoted.FinishRow(9.0, 9.0, 99);
    ASSERT_TRUE(promoted.column_promoted(c.text_col)) << c.op;
    ASSERT_FALSE(typed.column_promoted(c.text_col)) << c.op;

    auto from_typed = Instance(c.app, c.op);
    auto from_promoted = Instance(c.app, c.op);
    ASSERT_TRUE(from_typed.Push(typed, 0, 1.0).ok()) << c.op;
    ASSERT_TRUE(from_promoted.Push(promoted, 0, 1.0).ok()) << c.op;
    const std::vector<testing::Row>& want = from_typed.out();
    const std::vector<testing::Row>& got = from_promoted.out();
    EXPECT_FALSE(want.empty()) << c.op;
    ASSERT_EQ(got.size(), want.size()) << c.op;
    for (size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(got[r].tuple.values, want[r].tuple.values)
          << c.op << " row " << r;
      for (size_t col = 0; col < want[r].tuple.values.size(); ++col) {
        EXPECT_EQ(got[r].tuple.values[col].type(),
                  want[r].tuple.values[col].type());
      }
      EXPECT_EQ(got[r].tuple.event_time, want[r].tuple.event_time);
      EXPECT_EQ(got[r].birth, want[r].birth);
      EXPECT_EQ(got[r].attr_id, want[r].attr_id);
    }
  }
}

}  // namespace
}  // namespace pdsp
