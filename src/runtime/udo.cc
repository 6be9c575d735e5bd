#include "src/runtime/udo.h"

#include <cmath>

namespace pdsp {

namespace {

class NoopUdo : public Udo {
 public:
  void Process(const data::RowView& row, UdoContext* ctx) override {
    ctx->Emit(row.ToTuple().values);
  }
};

class SampleUdo : public Udo {
 public:
  explicit SampleUdo(double keep) : keep_(keep) {}
  void Process(const data::RowView& row, UdoContext* ctx) override {
    if (ctx->rng->Bernoulli(keep_)) ctx->Emit(row.ToTuple().values);
  }

 private:
  double keep_;
};

class ReplicateUdo : public Udo {
 public:
  explicit ReplicateUdo(double fanout) : fanout_(fanout) {}
  void Process(const data::RowView& row, UdoContext* ctx) override {
    const auto whole = static_cast<int64_t>(fanout_);
    int64_t copies = whole;
    copies += ctx->rng->Bernoulli(fanout_ - static_cast<double>(whole)) ? 1 : 0;
    const Tuple tuple = row.ToTuple();
    for (int64_t i = 0; i < copies; ++i) ctx->Emit(tuple.values);
  }

 private:
  double fanout_;
};

class KeyCountUdo : public Udo {
 public:
  void Process(const data::RowView& row, UdoContext* ctx) override {
    if (row.NumValues() == 0) return;
    std::vector<Value> values = row.ToTuple().values;
    const int64_t count = ++counts_[values[0]];
    values.push_back(Value(count));
    ctx->Emit(values);
  }

 private:
  std::map<Value, int64_t> counts_;
};

}  // namespace

UdoRegistry::UdoRegistry() {
  const UdoTraits pure{/*pure=*/true, /*rng=*/false, /*order_sensitive=*/false};
  const UdoTraits rng{/*pure=*/false, /*rng=*/true, /*order_sensitive=*/false};
  const UdoTraits ordered{/*pure=*/false, /*rng=*/false,
                          /*order_sensitive=*/true};
  Register("noop", [](const OperatorDescriptor&) {
    return std::make_unique<NoopUdo>();
  }, pure);
  Register("heavy", [](const OperatorDescriptor&) {
    return std::make_unique<NoopUdo>();  // cost comes from the cost model
  }, pure);
  Register("sample", [](const OperatorDescriptor& op) {
    return std::make_unique<SampleUdo>(op.udo_selectivity);
  }, rng);
  Register("replicate", [](const OperatorDescriptor& op) {
    return std::make_unique<ReplicateUdo>(op.udo_selectivity);
  }, rng);
  Register("key_count", [](const OperatorDescriptor&) {
    return std::make_unique<KeyCountUdo>();
  }, ordered);
}

UdoRegistry& UdoRegistry::Global() {
  static UdoRegistry* registry = new UdoRegistry();
  return *registry;
}

void UdoRegistry::Register(const std::string& kind, UdoFactory factory) {
  MutexLock lock(mu_);
  factories_[kind] = std::move(factory);
  traits_.erase(kind);  // re-registering without traits resets to unknown
}

void UdoRegistry::Register(const std::string& kind, UdoFactory factory,
                           const UdoTraits& traits) {
  MutexLock lock(mu_);
  factories_[kind] = std::move(factory);
  traits_[kind] = traits;
}

std::optional<UdoTraits> UdoRegistry::TraitsOf(const std::string& kind) const {
  MutexLock lock(mu_);
  auto it = traits_.find(kind);
  if (it == traits_.end()) return std::nullopt;
  return it->second;
}

Result<std::unique_ptr<Udo>> UdoRegistry::Create(
    const OperatorDescriptor& op) const {
  // Copy the factory out so it is invoked without the lock held: UDO
  // construction may be arbitrarily expensive and must not serialize
  // concurrent sweep cells.
  UdoFactory factory;
  {
    MutexLock lock(mu_);
    auto it = factories_.find(op.udo_kind);
    if (it == factories_.end()) {
      return Status::NotFound("unknown UDO kind '" + op.udo_kind + "'");
    }
    factory = it->second;
  }
  return factory(op);
}

bool UdoRegistry::Contains(const std::string& kind) const {
  MutexLock lock(mu_);
  return factories_.count(kind) != 0;
}

std::vector<std::string> UdoRegistry::Kinds() const {
  MutexLock lock(mu_);
  std::vector<std::string> kinds;
  kinds.reserve(factories_.size());
  for (const auto& [kind, factory] : factories_) kinds.push_back(kind);
  return kinds;
}

}  // namespace pdsp
