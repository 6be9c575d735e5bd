#include "src/runtime/udo.h"

#include <gtest/gtest.h>

namespace pdsp {
namespace {

StreamElement Elem(std::vector<Value> values) {
  StreamElement e;
  e.tuple.values = std::move(values);
  return e;
}

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

TEST(GenericUdosTest, NoopPassesThrough) {
  auto udo = UdoRegistry::Global().Create(UdoDesc("noop"));
  ASSERT_TRUE(udo.ok());
  Rng rng(1);
  UdoContext ctx;
  ctx.rng = &rng;
  std::vector<StreamElement> out;
  (*udo)->Process(Elem({Value(5)}), &ctx, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tuple.values[0].AsInt(), 5);
}

TEST(GenericUdosTest, ReplicateEmitsMeanCopies) {
  auto udo = UdoRegistry::Global().Create(UdoDesc("replicate", 3.5));
  ASSERT_TRUE(udo.ok());
  Rng rng(2);
  UdoContext ctx;
  ctx.rng = &rng;
  std::vector<StreamElement> out;
  const int n = 4000;
  for (int i = 0; i < n; ++i) (*udo)->Process(Elem({Value(1)}), &ctx, &out);
  EXPECT_NEAR(static_cast<double>(out.size()) / n, 3.5, 0.1);
}

TEST(GenericUdosTest, KeyCountAppendsRunningCount) {
  auto udo = UdoRegistry::Global().Create(UdoDesc("key_count"));
  ASSERT_TRUE(udo.ok());
  Rng rng(3);
  UdoContext ctx;
  ctx.rng = &rng;
  std::vector<StreamElement> out;
  (*udo)->Process(Elem({Value("a")}), &ctx, &out);
  (*udo)->Process(Elem({Value("b")}), &ctx, &out);
  (*udo)->Process(Elem({Value("a")}), &ctx, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].tuple.values[1].AsInt(), 1);  // first a
  EXPECT_EQ(out[1].tuple.values[1].AsInt(), 1);  // first b
  EXPECT_EQ(out[2].tuple.values[1].AsInt(), 2);  // second a
}

TEST(GenericUdosTest, KeyCountIgnoresEmptyTuples) {
  auto udo = UdoRegistry::Global().Create(UdoDesc("key_count"));
  ASSERT_TRUE(udo.ok());
  Rng rng(4);
  UdoContext ctx;
  ctx.rng = &rng;
  std::vector<StreamElement> out;
  (*udo)->Process(Elem({}), &ctx, &out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace pdsp
