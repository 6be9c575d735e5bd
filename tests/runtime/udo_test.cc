#include "src/runtime/udo.h"

#include <gtest/gtest.h>

#include "tests/testing/operator_driver.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace {

using testing::MakeRow;
using testing::OperatorDriver;

OperatorDescriptor UdoDesc(const std::string& kind, double selectivity = 1.0) {
  OperatorDescriptor op;
  op.type = OperatorType::kUdo;
  // Built then moved: assigning the literal trips GCC 12's -O3
  // -Werror=restrict false positive.
  op.name = std::string("u");
  op.udo_kind = kind;
  op.udo_selectivity = selectivity;
  return op;
}

TEST(UdoRegistryTest, GenericKindsPreRegistered) {
  UdoRegistry& reg = UdoRegistry::Global();
  for (const char* kind :
       {"noop", "heavy", "sample", "replicate", "key_count"}) {
    EXPECT_TRUE(reg.Contains(kind)) << kind;
  }
  EXPECT_FALSE(reg.Contains("definitely_not_registered"));
  EXPECT_GE(reg.Kinds().size(), 5u);
}

TEST(UdoRegistryTest, UnknownKindIsNotFound) {
  EXPECT_TRUE(UdoRegistry::Global()
                  .Create(UdoDesc("definitely_not_registered"))
                  .status()
                  .IsNotFound());
}

TEST(UdoRegistryTest, ReRegisteringReplaces) {
  UdoRegistry& reg = UdoRegistry::Global();
  int calls = 0;
  reg.Register("test_replaceable", [&calls](const OperatorDescriptor&) {
    ++calls;
    return std::move(UdoRegistry::Global().Create(UdoDesc("noop")).value());
  });
  ASSERT_TRUE(reg.Create(UdoDesc("test_replaceable")).ok());
  EXPECT_EQ(calls, 1);
  reg.Register("test_replaceable", [](const OperatorDescriptor&) {
    return std::move(UdoRegistry::Global().Create(UdoDesc("noop")).value());
  });
  ASSERT_TRUE(reg.Create(UdoDesc("test_replaceable")).ok());
  EXPECT_EQ(calls, 1);  // replaced factory, not the old one
}

// A UDO of `kind` behind the operator runtime, emitting `out_fields`
// (empty: the source's key/val schema), with its RNG seeded by `seed`.
OperatorDriver GenericUdo(const std::string& kind,
                          std::vector<Field> out_fields, uint64_t seed,
                          double selectivity = 1.0) {
  PlanBuilder b;
  auto s = b.Source("s", testing::KeyValueStream(),
                    testing::PoissonArrival(100));
  b.Sink("k", b.UdoWithSchema("u", s, kind, std::move(out_fields), 1.0,
                              selectivity));
  auto plan = b.Build();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  auto driver = testing::DriveOperator(*plan, "u", seed);
  EXPECT_TRUE(driver.ok()) << driver.status().ToString();
  return std::move(*driver);
}

TEST(GenericUdosTest, NoopPassesThrough) {
  auto udo = GenericUdo("noop", {{"x", DataType::kInt}}, 1);
  auto& out = udo.out();
  ASSERT_TRUE(udo.Push(MakeRow({Value(5)}), 0, 0.0).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tuple.values[0].AsInt(), 5);
}

TEST(GenericUdosTest, ReplicateEmitsMeanCopies) {
  auto udo = GenericUdo("replicate", {{"x", DataType::kInt}}, 2, 3.5);
  auto& out = udo.out();
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(udo.Push(MakeRow({Value(1)}), 0, 0.0).ok());
  }
  EXPECT_NEAR(static_cast<double>(out.size()) / n, 3.5, 0.1);
}

TEST(GenericUdosTest, KeyCountAppendsRunningCount) {
  auto udo = GenericUdo(
      "key_count", {{"key", DataType::kString}, {"n", DataType::kInt}}, 3);
  auto& out = udo.out();
  ASSERT_TRUE(udo.Push(MakeRow({Value("a")}), 0, 0.0).ok());
  ASSERT_TRUE(udo.Push(MakeRow({Value("b")}), 0, 0.0).ok());
  ASSERT_TRUE(udo.Push(MakeRow({Value("a")}), 0, 0.0).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].tuple.values[1].AsInt(), 1);  // first a
  EXPECT_EQ(out[1].tuple.values[1].AsInt(), 1);  // first b
  EXPECT_EQ(out[2].tuple.values[1].AsInt(), 2);  // second a
}

TEST(GenericUdosTest, KeyCountIgnoresEmptyTuples) {
  auto udo = GenericUdo(
      "key_count", {{"key", DataType::kString}, {"n", DataType::kInt}}, 4);
  auto& out = udo.out();
  ASSERT_TRUE(udo.Push(MakeRow({}), 0, 0.0).ok());
  EXPECT_TRUE(out.empty());
}

// Emits each input row with one column more than it arrived with.
class ExtraColumnUdo : public Udo {
 public:
  void Process(const data::RowView& row, UdoContext* ctx) override {
    std::vector<Value> values = row.ToTuple().values;
    values.push_back(Value(0));
    ctx->Emit(values);
  }
};

TEST(UdoContextTest, EmitOfWrongArityFailsTheBatch) {
  UdoRegistry::Global().Register(
      "test_extra_column", [](const OperatorDescriptor&) {
        return std::make_unique<ExtraColumnUdo>();
      });
  auto udo = GenericUdo("test_extra_column", {}, 1);  // key, val in and out
  data::Batch in(data::BatchLayout({DataType::kInt, DataType::kDouble}));
  for (int i = 0; i < 3; ++i) {
    in.AppendInt(0, i);
    in.AppendDouble(1, 0.5 * i);
    in.FinishRow(0.1 * i, 0.1 * i, kNoAttr);
  }
  const Status status = udo.Push(in, 0, 0.0);
  EXPECT_TRUE(status.IsInternal()) << status.ToString();
  EXPECT_NE(status.message().find("arity 3"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("has 2 fields"), std::string::npos)
      << status.message();
  EXPECT_TRUE(udo.out().empty());  // the bad row is not appended
}

}  // namespace
}  // namespace pdsp
