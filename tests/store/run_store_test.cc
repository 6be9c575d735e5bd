#include "src/store/run_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <regex>

#include "src/apps/apps.h"
#include "src/store/plan_serde.h"
#include "src/workload/query_generator.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace {

class RunStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/pdsp_run_store_test";
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

SimResult FakeResult() {
  SimResult r;
  r.median_latency_s = 0.5;
  r.mean_latency_s = 0.6;
  r.p95_latency_s = 0.9;
  r.throughput_tps = 1234.0;
  r.source_tuples = 10000;
  r.sink_tuples = 500;
  OperatorRunStats s;
  s.name = "src";
  s.parallelism = 2;
  s.tuples_in = 10000;
  r.op_stats.push_back(s);
  return r;
}

TEST(ValueSerdeTest, RoundTripsAllTypes) {
  for (const Value& v :
       {Value(42), Value(-1.5), Value("hello \"quoted\"")}) {
    auto back = ValueFromJson(ValueToJson(v));
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(*back == v);
    EXPECT_EQ(back->type(), v.type());
  }
}

TEST(PlanSerdeTest, RequiresValidatedPlan) {
  LogicalPlan raw;
  EXPECT_TRUE(PlanToJson(raw).status().IsFailedPrecondition());
}

TEST(PlanSerdeTest, LinearPlanRoundTrips) {
  auto plan = testing::LinearPlan(12345.0, 3);
  ASSERT_TRUE(plan.ok());
  auto json = PlanToJson(*plan);
  ASSERT_TRUE(json.ok());
  auto restored = PlanFromJson(*json);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->ToString(), plan->ToString());
  EXPECT_EQ(restored->sources()[0].arrival.rate, 12345.0);
  EXPECT_EQ(restored->sources()[0].stream.schema.ToString(),
            plan->sources()[0].stream.schema.ToString());
}

TEST(PlanSerdeTest, GeneratedPlansRoundTripThroughText) {
  QueryGenerator gen(QueryGenOptions{}, 77);
  for (int i = 0; i < 10; ++i) {
    auto plan = gen.GenerateRandom();
    ASSERT_TRUE(plan.ok());
    auto json = PlanToJson(*plan);
    ASSERT_TRUE(json.ok());
    // Through the full text layer, as the store does.
    auto reparsed = Json::Parse(json->Dump(2));
    ASSERT_TRUE(reparsed.ok());
    auto restored = PlanFromJson(*reparsed);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored->ToString(), plan->ToString());
  }
}

TEST(PlanSerdeTest, AppPlansRoundTrip) {
  AppOptions opt;
  opt.parallelism = 4;
  for (AppId app : {AppId::kWordCount, AppId::kAdAnalytics,
                    AppId::kSmartGrid}) {
    auto plan = MakeApp(app, opt);
    ASSERT_TRUE(plan.ok());
    auto json = PlanToJson(*plan);
    ASSERT_TRUE(json.ok());
    auto restored = PlanFromJson(*json);
    ASSERT_TRUE(restored.ok()) << GetAppInfo(app).abbrev << ": "
                               << restored.status().ToString();
    EXPECT_EQ(restored->ToString(), plan->ToString());
  }
}

TEST(PlanSerdeTest, RejectsCorruptDocuments) {
  EXPECT_FALSE(PlanFromJson(Json::Object()).ok());  // no version
  Json bad = Json::Object();
  bad.Set("version", Json::Int(99));
  EXPECT_FALSE(PlanFromJson(bad).ok());  // wrong version
  bad.Set("version", Json::Int(1));
  EXPECT_FALSE(PlanFromJson(bad).ok());  // no operators
}

// A stored plan whose Zipf exponent overflows to inf ("1e999" parses
// through strtod) loads, but must fail to execute instead of hanging in
// the first source batch's Zipf draw.
TEST(PlanSerdeTest, NonFiniteZipfExponentFailsToExecute) {
  auto plan = testing::LinearPlan(5000.0, 2);
  ASSERT_TRUE(plan.ok());
  auto json = PlanToJson(*plan);
  ASSERT_TRUE(json.ok());
  const std::string text =
      std::regex_replace(json->Dump(2), std::regex(R"("zipf_s": [^,\n}]+)"),
                         R"("zipf_s": 1e999)");
  ASSERT_NE(text.find(R"("zipf_s": 1e999)"), std::string::npos);
  auto reparsed = Json::Parse(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  auto loaded = PlanFromJson(*reparsed);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExecutionOptions exec;
  exec.sim.duration_s = 0.5;
  auto run = ExecutePlan(*loaded, Cluster::M510(4), exec);
  EXPECT_FALSE(run.ok());
}

TEST(SimResultSerdeTest, CarriesMetrics) {
  Json j = SimResultToJson(FakeResult());
  EXPECT_DOUBLE_EQ(j["latency"]["p50_s"].AsNumber(), 0.5);
  EXPECT_EQ(j["sink_tuples"].AsInt(), 500);
  EXPECT_EQ(j["operators"].size(), 1u);
  EXPECT_EQ(j["operators"].at(0)["name"].AsString(), "src");
}

TEST_F(RunStoreTest, SaveLoadListDelete) {
  RunStore store(dir_);
  auto plan = testing::LinearPlan(1000.0, 2);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(
      store.SaveRun("run1", *plan, Cluster::M510(4), FakeResult()).ok());
  ASSERT_TRUE(
      store.SaveRun("run2", *plan, Cluster::C6525(4), FakeResult()).ok());

  auto ids = store.ListRuns();
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, (std::vector<std::string>{"run1", "run2"}));

  auto doc = store.LoadRun("run1");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)["id"].AsString(), "run1");
  EXPECT_EQ((*doc)["cluster"]["node_model"].AsString(), "m510");
  EXPECT_DOUBLE_EQ((*doc)["metrics"]["latency"]["p50_s"].AsNumber(), 0.5);

  auto restored = store.LoadPlan("run1");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->ToString(), plan->ToString());

  ASSERT_TRUE(store.DeleteRun("run1").ok());
  EXPECT_TRUE(store.LoadRun("run1").status().IsNotFound());
  EXPECT_TRUE(store.DeleteRun("run1").IsNotFound());
}

TEST_F(RunStoreTest, RejectsBadIds) {
  RunStore store(dir_);
  auto plan = testing::LinearPlan();
  ASSERT_TRUE(plan.ok());
  for (const char* id : {"", "a/b", "../evil"}) {
    EXPECT_FALSE(
        store.SaveRun(id, *plan, Cluster::M510(2), FakeResult()).ok())
        << id;
  }
}

TEST_F(RunStoreTest, SavedPlanReexecutesIdentically) {
  RunStore store(dir_);
  auto plan = testing::LinearPlan(5000.0, 2);
  ASSERT_TRUE(plan.ok());
  ExecutionOptions exec;
  exec.sim.duration_s = 2.0;
  exec.sim.warmup_s = 0.5;
  auto original = ExecutePlan(*plan, Cluster::M510(4), exec);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(
      store.SaveRun("repro", *plan, Cluster::M510(4), *original).ok());

  auto restored = store.LoadPlan("repro");
  ASSERT_TRUE(restored.ok());
  auto replay = ExecutePlan(*restored, Cluster::M510(4), exec);
  ASSERT_TRUE(replay.ok());
  // Deterministic engine + identical plan => identical results.
  EXPECT_EQ(replay->sink_tuples, original->sink_tuples);
  EXPECT_DOUBLE_EQ(replay->median_latency_s, original->median_latency_s);
}

}  // namespace
}  // namespace pdsp
