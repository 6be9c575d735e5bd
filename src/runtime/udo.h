// User-defined operators (UDOs). Real-world applications (Table 2) embed
// custom logic — tokenizers, outlier detectors, sentiment scoring, spike
// detection — that standard operators can't express. A UDO is looked up by
// its `kind` string in a process-wide registry; the apps module registers
// the application-specific kinds, and a few generic kinds ship built in.

#ifndef PDSP_RUNTIME_UDO_H_
#define PDSP_RUNTIME_UDO_H_

#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/data/batch.h"
#include "src/query/plan.h"

namespace pdsp {

/// \brief Per-row context handed to a UDO. The runtime points `input` at
/// the row being processed and `out` at the operator's output batch before
/// every Process call.
struct UdoContext {
  double now = 0.0;   ///< current virtual time
  int instance = 0;   ///< this parallel instance's index
  Rng* rng = nullptr; ///< instance-local deterministic RNG
  const data::RowView* input = nullptr;  ///< the row being processed
  data::Batch* out = nullptr;            ///< where Emit appends
  /// OK, or the first emitted row whose arity disagreed with the output
  /// schema (Status::Internal); the runtime fails the firing with it.
  Status status;

  /// Appends one output row carrying the input row's event time, birth and
  /// attribution handle (latency stays measured against the earliest
  /// contributing source tuple). A row of the wrong arity is not appended.
  void Emit(std::initializer_list<Value> values) {
    Append(values.begin(), values.size());
  }
  void Emit(const std::vector<Value>& values) {
    Append(values.data(), values.size());
  }

 private:
  void Append(const Value* values, size_t n);
};

/// \brief One parallel instance of a user-defined operator. Implementations
/// own their state; a fresh instance is created per physical task.
class Udo {
 public:
  virtual ~Udo() = default;

  /// Processes one input row, emitting zero or more outputs through ctx.
  virtual void Process(const data::RowView& row, UdoContext* ctx) = 0;
};

using UdoFactory =
    std::function<std::unique_ptr<Udo>(const OperatorDescriptor&)>;

/// \brief Determinism-relevant properties a UDO kind declares at
/// registration, consumed by the static determinism analysis
/// (src/analysis/properties.h). Kinds registered without traits are
/// treated as nondeterministic — declaring traits is the opt-in that makes
/// a plan eligible for a determinism verdict better than "unknown".
struct UdoTraits {
  /// Output depends only on the individual input element (no state, no
  /// rng, no arrival-order sensitivity).
  bool pure = false;
  /// Consumes rng draws per element: output content is deterministic only
  /// under a fixed per-instance element order (draws realign).
  bool rng = false;
  /// Keeps state whose evolution depends on the order elements arrive in
  /// (running counts, sequence detectors, ...).
  bool order_sensitive = false;
};

/// \brief Process-wide registry of UDO kinds.
///
/// Thread-safety: Create/Contains/Kinds are safe to call concurrently —
/// sweep workers instantiate UDOs from inside cell execution
/// (CreateOperatorInstance). Register is also locked, but the supported
/// protocol is to register every kind before spawning workers (the drivers
/// and CLI call RegisterAppUdos() up front): a factory registered while a
/// concurrent Create runs is only visible to lookups that start afterwards.
class UdoRegistry {
 public:
  /// The singleton registry (generic kinds pre-registered).
  static UdoRegistry& Global();

  /// Registers a factory; re-registering a kind replaces it. Call before
  /// spawning sweep workers (see class comment). The overload without
  /// traits leaves the kind's determinism unknown (= nondeterministic to
  /// the analysis).
  void Register(const std::string& kind, UdoFactory factory);
  void Register(const std::string& kind, UdoFactory factory,
                const UdoTraits& traits);

  /// Declared determinism traits of a kind; nullopt when the kind is
  /// unknown or was registered without traits.
  std::optional<UdoTraits> TraitsOf(const std::string& kind) const;

  /// Instantiates the UDO for a descriptor by its udo_kind. The factory
  /// runs outside the registry lock, so a slow factory never serializes
  /// concurrent cells.
  Result<std::unique_ptr<Udo>> Create(const OperatorDescriptor& op) const;

  bool Contains(const std::string& kind) const;
  std::vector<std::string> Kinds() const;

 private:
  UdoRegistry();

  mutable Mutex mu_;
  std::map<std::string, UdoFactory> factories_ PDSP_GUARDED_BY(mu_);
  std::map<std::string, UdoTraits> traits_ PDSP_GUARDED_BY(mu_);
};

// Generic built-in kinds:
//   "noop"       pass-through
//   "sample"     passes each element with probability udo_selectivity
//   "replicate"  emits round(udo_selectivity) copies (stochastic fraction)
//   "heavy"      pass-through whose cost is udo_cost_factor (cost model side)
//   "key_count"  stateful: appends a per-key running count (key = field 0)

}  // namespace pdsp

#endif  // PDSP_RUNTIME_UDO_H_
