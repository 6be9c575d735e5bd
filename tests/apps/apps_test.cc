#include "src/apps/apps.h"

#include <gtest/gtest.h>

#include <set>

#include "src/runtime/operators.h"
#include "src/runtime/udo.h"
#include "src/sim/simulation.h"
#include "tests/testing/operator_driver.h"

namespace pdsp {
namespace {

TEST(AppRegistryTest, FourteenApplications) {
  EXPECT_EQ(AllApps().size(), static_cast<size_t>(kNumApps));
  std::set<std::string> abbrevs;
  for (const AppInfo& info : AllApps()) abbrevs.insert(info.abbrev);
  EXPECT_EQ(abbrevs.size(), static_cast<size_t>(kNumApps));
}

TEST(AppRegistryTest, FindByAbbrev) {
  auto sg = FindAppByAbbrev("SG");
  ASSERT_TRUE(sg.ok());
  EXPECT_EQ(*sg, AppId::kSmartGrid);
  EXPECT_TRUE(FindAppByAbbrev("XX").status().IsNotFound());
}

TEST(AppRegistryTest, InfoMatchesId) {
  for (const AppInfo& info : AllApps()) {
    EXPECT_EQ(GetAppInfo(info.id).abbrev, info.abbrev);
  }
}

TEST(AppRegistryTest, DataIntensiveGroupingMatchesPaper) {
  // Figure 3/4 call out SA, SG, SD as the data-intensive UDO apps and WC/LR
  // as the standard-operator apps.
  EXPECT_TRUE(GetAppInfo(AppId::kSentimentAnalysis).data_intensive);
  EXPECT_TRUE(GetAppInfo(AppId::kSmartGrid).data_intensive);
  EXPECT_TRUE(GetAppInfo(AppId::kSpikeDetection).data_intensive);
  EXPECT_FALSE(GetAppInfo(AppId::kWordCount).data_intensive);
  EXPECT_FALSE(GetAppInfo(AppId::kLinearRoad).data_intensive);
}

TEST(AppPlansTest, AllAppsBuildValidPlans) {
  AppOptions opt;
  opt.event_rate = 10000.0;
  opt.parallelism = 2;
  for (const AppInfo& info : AllApps()) {
    auto plan = MakeApp(info.id, opt);
    ASSERT_TRUE(plan.ok()) << info.abbrev << ": "
                           << plan.status().ToString();
    EXPECT_TRUE(plan->validated()) << info.abbrev;
    EXPECT_GE(plan->NumOperators(), 3u) << info.abbrev;
    // Every app embeds at least one UDO (Table 2: custom logic).
    bool has_udo = false;
    for (size_t i = 0; i < plan->NumOperators(); ++i) {
      has_udo |= plan->op(static_cast<LogicalPlan::OpId>(i)).type ==
                 OperatorType::kUdo;
    }
    EXPECT_EQ(has_udo, info.uses_udo) << info.abbrev;
  }
}

TEST(AppPlansTest, BadOptionsRejected) {
  AppOptions opt;
  opt.event_rate = 0.0;
  EXPECT_FALSE(MakeApp(AppId::kWordCount, opt).ok());
  opt.event_rate = 100.0;
  opt.parallelism = 0;
  EXPECT_FALSE(MakeApp(AppId::kWordCount, opt).ok());
  opt.parallelism = 1;
  opt.window_scale = 0.0;
  EXPECT_FALSE(MakeApp(AppId::kWordCount, opt).ok());
}

TEST(AppPlansTest, AdAnalyticsHasJoin) {
  AppOptions opt;
  auto plan = MakeApp(AppId::kAdAnalytics, opt);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->SourceIds().size(), 2u);
  bool has_join = false;
  for (size_t i = 0; i < plan->NumOperators(); ++i) {
    has_join |= plan->op(static_cast<LogicalPlan::OpId>(i)).type ==
                OperatorType::kWindowJoin;
  }
  EXPECT_TRUE(has_join);
}

TEST(AppPlansTest, ParallelismAppliedToAllButSink) {
  AppOptions opt;
  opt.parallelism = 6;
  auto plan = MakeApp(AppId::kSmartGrid, opt);
  ASSERT_TRUE(plan.ok());
  for (size_t i = 0; i < plan->NumOperators(); ++i) {
    const auto& op = plan->op(static_cast<LogicalPlan::OpId>(i));
    if (op.type == OperatorType::kSink) {
      EXPECT_EQ(op.parallelism, 1);
    } else {
      EXPECT_EQ(op.parallelism, 6) << op.name;
    }
  }
}

// Every application must run end-to-end in the simulator and deliver sink
// results — the suite-level integration property.
class AppExecutionTest : public ::testing::TestWithParam<int> {};

TEST_P(AppExecutionTest, RunsAndProducesResults) {
  const AppInfo& info = AllApps()[static_cast<size_t>(GetParam())];
  AppOptions opt;
  opt.event_rate = 5000.0;
  opt.parallelism = 2;
  auto plan = MakeApp(info.id, opt);
  ASSERT_TRUE(plan.ok()) << info.abbrev;
  ExecutionOptions exec;
  exec.sim.duration_s = 4.0;
  exec.sim.warmup_s = 1.0;
  auto r = ExecutePlan(*plan, Cluster::M510(4), exec);
  ASSERT_TRUE(r.ok()) << info.abbrev << ": " << r.status().ToString();
  EXPECT_GT(r->sink_tuples, 0) << info.abbrev;
  EXPECT_GT(r->median_latency_s, 0.0) << info.abbrev;
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppExecutionTest,
                         ::testing::Range(0, kNumApps));

TEST(WordPolarityTest, DeterministicAndTernary) {
  EXPECT_EQ(WordPolarity("hello"), WordPolarity("hello"));
  int pos = 0, neg = 0, neutral = 0;
  for (int i = 0; i < 1000; ++i) {
    const int p = WordPolarity(DictionaryWord(i));
    pos += p == 1;
    neg += p == -1;
    neutral += p == 0;
  }
  // Roughly 20/20/60 by construction.
  EXPECT_GT(pos, 100);
  EXPECT_GT(neg, 100);
  EXPECT_GT(neutral, 400);
}

TEST(AppUdosTest, AllKindsRegistered) {
  RegisterAppUdos();
  const UdoRegistry& reg = UdoRegistry::Global();
  for (const char* kind :
       {"tokenize_words", "sa_score", "lp_parse", "tt_extract", "tt_rank",
        "mo_score", "sd_spike", "sg_outlier", "lr_toll", "tm_map_match",
        "fd_score", "bi_vwap", "ca_dedup", "ad_ctr", "tpch_disc_price"}) {
    EXPECT_TRUE(reg.Contains(kind)) << kind;
  }
}

// Direct behavioural checks of selected UDOs through the plan runtime.

using testing::MakeRow;

testing::OperatorDriver AppUdoInstance(AppId app, const char* op_name) {
  AppOptions opt;
  auto plan = MakeApp(app, opt);
  EXPECT_TRUE(plan.ok());
  auto inst = testing::DriveOperator(*plan, op_name);
  EXPECT_TRUE(inst.ok()) << op_name << ": " << inst.status().ToString();
  return std::move(*inst);
}

TEST(AppUdosTest, TokenizerSplitsSentences) {
  auto inst = AppUdoInstance(AppId::kWordCount, "tokenize");
  auto& out = inst.out();
  ASSERT_TRUE(inst.Push(MakeRow({Value("ba ce di")}), 0, 0.0).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].tuple.values[0].AsString(), "ba");
  EXPECT_EQ(out[0].tuple.values[1].AsInt(), 1);
  EXPECT_EQ(out[2].tuple.values[0].AsString(), "di");
}

TEST(AppUdosTest, SentimentScoreSumsLexicon) {
  auto inst = AppUdoInstance(AppId::kSentimentAnalysis, "sentiment");
  // Construct a text from words with known polarity.
  std::string pos_word, neg_word;
  for (int i = 0; i < 1000 && (pos_word.empty() || neg_word.empty()); ++i) {
    const std::string w = DictionaryWord(i);
    if (WordPolarity(w) == 1 && pos_word.empty()) pos_word = w;
    if (WordPolarity(w) == -1 && neg_word.empty()) neg_word = w;
  }
  ASSERT_FALSE(pos_word.empty());
  ASSERT_FALSE(neg_word.empty());
  auto& out = inst.out();
  const std::string text = pos_word + " " + pos_word + " " + neg_word;
  ASSERT_TRUE(inst.Push(MakeRow({Value(200), Value(text)}), 0, 0.0).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tuple.values[0].AsInt(), 200 % 128);  // user shard
  EXPECT_DOUBLE_EQ(out[0].tuple.values[1].AsDouble(), 1.0);
  EXPECT_EQ(out[0].tuple.values[2].AsInt(), 1);  // net positive
}

TEST(AppUdosTest, SpikeDetectorFiresOnSpikes) {
  auto inst = AppUdoInstance(AppId::kSpikeDetection, "spike_detect");
  auto& out = inst.out();
  // Warm up with a steady signal, then spike.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(inst.Push(MakeRow({Value(7), Value(50.0)}), 0, 0.0).ok());
  }
  EXPECT_TRUE(out.empty());  // steady signal: no spikes
  ASSERT_TRUE(inst.Push(MakeRow({Value(7), Value(90.0)}), 0, 0.0).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].tuple.values[1].AsDouble(), 90.0);
  EXPECT_NEAR(out[0].tuple.values[2].AsDouble(), 50.0, 1e-9);
}

TEST(AppUdosTest, DedupPassesFirstOccurrenceOnly) {
  auto inst = AppUdoInstance(AppId::kClickAnalytics, "dedup");
  auto& out = inst.out();
  ASSERT_TRUE(inst.Push(MakeRow({Value(1), Value("ba")}), 0, 0.0).ok());
  ASSERT_TRUE(inst.Push(MakeRow({Value(1), Value("ba")}), 0, 0.0).ok());
  ASSERT_TRUE(inst.Push(MakeRow({Value(2), Value("ba")}), 0, 0.0).ok());
  ASSERT_EQ(out.size(), 2u);  // duplicate (1, ba) suppressed
  EXPECT_EQ(out[0].tuple.values[0].AsString(), "ba");
}

TEST(AppUdosTest, TollOnlyForCongestedSegments) {
  auto inst = AppUdoInstance(AppId::kLinearRoad, "toll");
  auto& out = inst.out();
  // Segment free-flow thresholds derive from the segment id (30..70).
  const double threshold =
      30.0 + static_cast<double>(Value(12).Hash() % 41);
  // Window agg output shape: (segment, avg_speed).
  ASSERT_TRUE(
      inst.Push(MakeRow({Value(12), Value(threshold + 5.0)}), 0, 0.0).ok());
  EXPECT_TRUE(out.empty());  // fast segment: no toll
  ASSERT_TRUE(
      inst.Push(MakeRow({Value(12), Value(threshold - 20.0)}), 0, 0.0).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].tuple.values[1].AsDouble(),
                   2.0 * 20.0 * 20.0 / 100.0);
}

TEST(AppUdosTest, FraudScoreFlagsUnusualTransitions) {
  auto inst = AppUdoInstance(AppId::kFraudDetection, "fraud_score");
  auto& out = inst.out();
  // Repeat the same location transition to make it "normal".
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        inst.Push(MakeRow({Value(9), Value(100.0), Value(3)}), 0, 0.0).ok());
  }
  const size_t before = out.size();
  // A never-seen location transition must be flagged.
  ASSERT_TRUE(
      inst.Push(MakeRow({Value(9), Value(100.0), Value(47)}), 0, 0.0).ok());
  EXPECT_EQ(out.size(), before + 1);
  EXPECT_LT(out.back().tuple.values[2].AsDouble(), 0.12);
}

TEST(AppUdosTest, TpchDiscPriceComputesDerivedColumn) {
  auto inst = AppUdoInstance(AppId::kTpcH, "disc_price");
  auto& out = inst.out();
  ASSERT_TRUE(inst.Push(MakeRow({Value(1), Value(10.0), Value(1000.0),
                                 Value(0.1), Value(30)}),
                        0, 0.0)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].tuple.values[1].AsDouble(), 900.0);
}

TEST(AppUdosTest, MapMatchAssignsStableRoads) {
  auto inst = AppUdoInstance(AppId::kTrafficMonitoring, "map_match");
  auto& out = inst.out();
  ASSERT_TRUE(
      inst.Push(MakeRow({Value(1), Value(48.5), Value(8.5), Value(80.0)}), 0,
                0.0)
          .ok());
  ASSERT_TRUE(
      inst.Push(MakeRow({Value(2), Value(48.5), Value(8.5), Value(60.0)}), 0,
                0.0)
          .ok());
  ASSERT_EQ(out.size(), 2u);
  // Same position -> same road id.
  EXPECT_EQ(out[0].tuple.values[0].AsInt(), out[1].tuple.values[0].AsInt());
  EXPECT_GE(out[0].tuple.values[0].AsInt(), 0);
}

}  // namespace
}  // namespace pdsp
