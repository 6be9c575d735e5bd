#include "src/harness/harness.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>

#include "src/common/file_util.h"
#include "src/harness/synthetic_suite.h"
#include "src/store/json.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace {

TEST(CategoriesTest, SixMonotoneCategories) {
  const auto& cats = StandardCategories();
  ASSERT_EQ(cats.size(), 6u);
  EXPECT_STREQ(cats.front().name, "XS");
  EXPECT_STREQ(cats.back().name, "XXL");
  for (size_t i = 1; i < cats.size(); ++i) {
    EXPECT_GT(cats[i].degree, cats[i - 1].degree);
  }
  EXPECT_EQ(cats.front().degree, 1);
  EXPECT_EQ(cats.back().degree, 128);
}

TEST(MeasureCellTest, AggregatesRepeats) {
  auto plan = testing::LinearPlan(5000.0, 2);
  ASSERT_TRUE(plan.ok());
  RunProtocol protocol;
  protocol.repeats = 2;
  protocol.duration_s = 2.0;
  protocol.warmup_s = 0.5;
  auto cell = MeasureCell(*plan, Cluster::M510(4), protocol);
  ASSERT_TRUE(cell.ok()) << cell.status().ToString();
  EXPECT_GT(cell->mean_median_latency_s, 0.0);
  EXPECT_GT(cell->mean_throughput_tps, 0.0);
}

TEST(MeasureCellTest, RejectsBadRepeats) {
  auto plan = testing::LinearPlan();
  ASSERT_TRUE(plan.ok());
  RunProtocol protocol;
  protocol.repeats = 0;
  EXPECT_FALSE(MeasureCell(*plan, Cluster::M510(4), protocol).ok());
}

TEST(MeasureCellTest, RefusesErrorCarryingPlanUnlessAllowed) {
  // A NaN selectivity hint is analysis error PDSP-E602 but entirely inert
  // at simulation time (the event simulator applies the real predicate),
  // so the allow_invalid escape hatch can be exercised end to end.
  auto plan = testing::LinearPlan(5000.0, 2);
  ASSERT_TRUE(plan.ok());
  auto f = plan->FindOperator("filter");
  ASSERT_TRUE(f.ok());
  plan->mutable_op(*f)->selectivity_hint =
      std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(plan->Validate().ok());  // mutable_op left it unvalidated

  RunProtocol protocol;
  protocol.repeats = 1;
  protocol.duration_s = 1.0;
  protocol.warmup_s = 0.25;
  auto refused = MeasureCell(*plan, Cluster::M510(4), protocol);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsFailedPrecondition())
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("PDSP-E602"), std::string::npos)
      << refused.status().ToString();

  protocol.allow_invalid = true;
  auto forced = MeasureCell(*plan, Cluster::M510(4), protocol);
  EXPECT_TRUE(forced.ok()) << forced.status().ToString();
}

Json ReadJson(const std::string& path) {
  auto text = ReadTextFile(path);
  EXPECT_TRUE(text.ok()) << path;
  auto json = Json::Parse(text.ok() ? *text : "");
  EXPECT_TRUE(json.ok()) << path;
  return json.ok() ? *json : Json();
}

TEST(MeasureCellTest, PhaseNamesAgreeAcrossHostProfileTraceAndProfile) {
  const std::string dir = ::testing::TempDir() + "/pdsp_harness_phases";
  std::filesystem::remove_all(dir);
  auto plan = testing::LinearPlan(5000.0, 2);
  ASSERT_TRUE(plan.ok());
  RunProtocol protocol;
  protocol.repeats = 1;
  protocol.duration_s = 2.0;
  protocol.warmup_s = 0.5;
  protocol.label = "phase-names";
  protocol.obs.enabled = true;
  protocol.obs.dir = dir;
  protocol.profile.enabled = true;
  protocol.profile.hz = 997.0;
  protocol.diagnose = true;
  auto cell = MeasureCell(*plan, Cluster::M510(4), protocol);
  ASSERT_TRUE(cell.ok()) << cell.status().ToString();

  std::set<std::string> host;
  const Json host_profile = ReadJson(dir + "/host_profile.json");
  for (const auto& [name, stats] : host_profile["phases"].members()) {
    host.insert(name);
  }
  EXPECT_EQ(host, (std::set<std::string>{"diagnose", "simulate"}));

  std::set<std::string> spans;
  const Json events = ReadJson(dir + "/trace.json")["traceEvents"];
  for (size_t i = 0; i < events.size(); ++i) {
    if (events.at(i)["cat"].AsString() == "phase") {
      spans.insert(events.at(i)["name"].AsString());
    }
  }
  EXPECT_EQ(spans, host);

  const Json phases = ReadJson(dir + "/profile.json")["phases"];
  for (size_t i = 0; i < phases.size(); ++i) {
    const std::string& name = phases.at(i)["name"].AsString();
    if (name == "(none)" || name == "(torn)") continue;
    EXPECT_EQ(host.count(name), 1u) << name;
  }
  std::filesystem::remove_all(dir);
}

TEST(MeasureAtDegreeTest, RewritesParallelism) {
  auto plan = testing::LinearPlan(5000.0, 1);
  ASSERT_TRUE(plan.ok());
  RunProtocol protocol;
  protocol.repeats = 1;
  protocol.duration_s = 2.0;
  protocol.warmup_s = 0.5;
  auto cell = MeasureAtDegree(*plan, 4, Cluster::M510(4), protocol);
  ASSERT_TRUE(cell.ok()) << cell.status().ToString();
  EXPECT_FALSE(MeasureAtDegree(*plan, 0, Cluster::M510(4), protocol).ok());
}

TEST(TableReporterTest, CsvRoundTrip) {
  TableReporter table("t", {"a", "b"});
  table.AddRow({"1", "2"});
  table.AddRow({"3"});  // short rows padded
  EXPECT_EQ(table.NumRows(), 2u);
  const std::string path = "/tmp/pdsp_harness_test/out.csv";
  ASSERT_TRUE(table.WriteCsv(path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3,");
  std::filesystem::remove_all("/tmp/pdsp_harness_test");
}

TEST(CellFormattingTest, Units) {
  EXPECT_EQ(LatencyCell(0.123456), "123.46");  // ms
  EXPECT_EQ(ThroughputCell(1234.56), "1235");
}

TEST(CanonicalSyntheticTest, AllStructuresBuild) {
  for (SyntheticStructure s : AllSyntheticStructures()) {
    CanonicalOptions opt;
    opt.parallelism = 3;
    auto plan = MakeCanonicalSynthetic(s, opt);
    ASSERT_TRUE(plan.ok()) << SyntheticStructureToString(s) << ": "
                           << plan.status().ToString();
    EXPECT_TRUE(plan->validated());
  }
}

TEST(CanonicalSyntheticTest, DeterministicPlans) {
  CanonicalOptions opt;
  auto a = MakeCanonicalSynthetic(SyntheticStructure::kTwoWayJoin, opt);
  auto b = MakeCanonicalSynthetic(SyntheticStructure::kTwoWayJoin, opt);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ToString(), b->ToString());
}

TEST(CanonicalSyntheticTest, ChainedFiltersKeepConditionalSelectivity) {
  CanonicalOptions opt;
  opt.filter_selectivity = 0.5;
  auto plan = MakeCanonicalSynthetic(SyntheticStructure::kChain3Filters, opt);
  ASSERT_TRUE(plan.ok());
  // Literals shrink geometrically: 50, 25, 12.5 over uniform [0,100).
  auto f1 = plan->FindOperator("filter1");
  auto f3 = plan->FindOperator("filter3");
  ASSERT_TRUE(f1.ok() && f3.ok());
  EXPECT_DOUBLE_EQ(plan->op(*f1).filter_literal.AsDouble(), 50.0);
  EXPECT_DOUBLE_EQ(plan->op(*f3).filter_literal.AsDouble(), 12.5);
  EXPECT_DOUBLE_EQ(plan->op(*f3).selectivity_hint, 0.5);
}

TEST(CanonicalSyntheticTest, JoinKeysScaleWithRate) {
  CanonicalOptions slow;
  slow.event_rate = 1000.0;
  CanonicalOptions fast;
  fast.event_rate = 100000.0;
  auto a = MakeCanonicalSynthetic(SyntheticStructure::kTwoWayJoin, slow);
  auto b = MakeCanonicalSynthetic(SyntheticStructure::kTwoWayJoin, fast);
  ASSERT_TRUE(a.ok() && b.ok());
  const auto keys = [](const LogicalPlan& p) {
    return p.sources()[0].stream.specs[0].cardinality;
  };
  EXPECT_GT(keys(*b), keys(*a));
}

}  // namespace
}  // namespace pdsp
