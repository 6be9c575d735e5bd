// The built-in lint passes. Code table (also in DESIGN.md):
//
//   sink-io                  PDSP-E010 mismatched sink input schemas
//                            PDSP-W011 sink parallelism > 1
//   dead-operator            PDSP-E101 cycle, E102 no sink, E103 extra sink,
//                            E104 unreachable from sources, E105 dead end
//   window-legality          PDSP-E201 bad duration, E202 bad length,
//                            E203 slide > size, E204 slide <= 0,
//                            PDSP-W205 degenerate slide == size
//   join-key-types           PDSP-E301 key type mismatch,
//                            PDSP-W302 floating-point join keys
//   field-refs               PDSP-E401 filter field, E402 agg field,
//                            E403 agg key, E404 join key, E405 source index
//   filter-literal           PDSP-W501 string/numeric comparison,
//                            PDSP-E502 non-finite literal
//   selectivity-range        PDSP-W601 filter hint > 1, E602 non-finite hint,
//                            E603 bad flatmap fanout, W604 join hint > 1,
//                            E605 non-finite join hint, E606 bad UDO
//                            selectivity, E607 bad UDO cost factor
//   repartition              PDSP-E701 keyed op without hash input,
//                            PDSP-W702 shuffle immediately re-keyed,
//                            PDSP-W703 forward across unequal parallelism
//   udo-checks               PDSP-E801 empty UDO kind, W802 unregistered
//                            kind, W803 stateful UDO on keyless stream
//   parallelism-feasibility  PDSP-W901 operator wider than cluster,
//                            PDSP-W902 heavy oversubscription,
//                            PDSP-I903 oversubscription
//   dataflow-partitioning    PDSP-W704 proven redundant shuffle (input
//                            already hash-partitioned on the same key)
//   rate-interval            PDSP-W605 statically over-saturated operator
//   const-refinement         PDSP-E503 statically always-false filter,
//                            PDSP-W504 always-true filter,
//                            PDSP-I505 statically dead subgraph
//   determinism              (no diagnostics: publishes the verdict in the
//                            property table / ledger)
//
// The last four passes surface facts proven by the dataflow analyses
// (src/analysis/properties.h) through AnalysisContext::props; they emit
// nothing when the underlying analysis did not converge.
//
// Codes are stable: never renumber, only append.

#include <cmath>

#include "src/analysis/pass.h"
#include "src/analysis/properties.h"
#include "src/common/string_util.h"
#include "src/runtime/udo.h"
#include "src/sim/cost_model.h"

namespace pdsp {
namespace analysis {
namespace {

using OpId = LogicalPlan::OpId;

bool IsStatelessUnary(OperatorType type) {
  return type == OperatorType::kFilter || type == OperatorType::kMap ||
         type == OperatorType::kFlatMap;
}

// --- dead-operator -------------------------------------------------------

class DeadOperatorPass : public AnalysisPass {
 public:
  const char* name() const override { return "dead-operator"; }
  const char* description() const override {
    return "cycles, missing/extra sinks, unreachable and dead-end operators";
  }

  void Run(const AnalysisContext& ctx,
           std::vector<Diagnostic>* out) const override {
    if (!ctx.acyclic) {
      out->push_back(MakeDiag(Severity::kError, "PDSP-E101", ctx, -1,
                              "plan contains a cycle",
                              "remove the back edge; dataflow is a DAG"));
      return;  // reachability is meaningless on a cyclic plan
    }
    const size_t n = ctx.NumOps();
    std::vector<OpId> sinks;
    for (size_t i = 0; i < n; ++i) {
      if (ctx.op(static_cast<OpId>(i)).type == OperatorType::kSink) {
        sinks.push_back(static_cast<OpId>(i));
      }
    }
    if (sinks.empty()) {
      out->push_back(MakeDiag(Severity::kError, "PDSP-E102", ctx, -1,
                              "plan has no sink",
                              "terminate the dataflow with exactly one sink"));
    }
    for (size_t i = 1; i < sinks.size(); ++i) {
      out->push_back(MakeDiag(
          Severity::kError, "PDSP-E103", ctx, sinks[i],
          "plan has more than one sink",
          "merge result streams into a single sink operator"));
    }

    // Forward reachability from sources, backward from sinks.
    std::vector<bool> from_source(n, false), to_sink(n, false);
    for (const OpId id : ctx.topo) {
      if (ctx.op(id).type == OperatorType::kSource) from_source[id] = true;
      for (const OpId up : ctx.inputs[id]) {
        if (from_source[up]) from_source[id] = true;
      }
    }
    for (auto it = ctx.topo.rbegin(); it != ctx.topo.rend(); ++it) {
      if (ctx.op(*it).type == OperatorType::kSink) to_sink[*it] = true;
      for (const OpId down : ctx.outputs[*it]) {
        if (to_sink[down]) to_sink[*it] = true;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const OpId id = static_cast<OpId>(i);
      if (!from_source[i]) {
        out->push_back(MakeDiag(
            Severity::kError, "PDSP-E104", ctx, id,
            "operator is not reachable from any source",
            "connect it downstream of a source or delete it"));
      } else if (!to_sink[i]) {
        out->push_back(MakeDiag(
            Severity::kError, "PDSP-E105", ctx, id,
            "operator output never reaches the sink (dead operator)",
            "route its output toward the sink or delete it"));
      }
    }
  }
};

// --- window-legality -----------------------------------------------------

class WindowLegalityPass : public AnalysisPass {
 public:
  const char* name() const override { return "window-legality"; }
  const char* description() const override {
    return "window duration/length positivity and slide-vs-size agreement";
  }

  void Run(const AnalysisContext& ctx,
           std::vector<Diagnostic>* out) const override {
    for (size_t i = 0; i < ctx.NumOps(); ++i) {
      const OpId id = static_cast<OpId>(i);
      const OperatorDescriptor& op = ctx.op(id);
      if (op.type != OperatorType::kWindowAggregate &&
          op.type != OperatorType::kWindowJoin) {
        continue;
      }
      const WindowSpec& w = op.window;
      if (w.policy == WindowPolicy::kTime &&
          (!std::isfinite(w.duration_ms) || w.duration_ms <= 0.0)) {
        out->push_back(MakeDiag(
            Severity::kError, "PDSP-E201", ctx, id,
            StrFormat("time window duration %g ms is not positive and finite",
                      w.duration_ms),
            "set duration_ms > 0"));
      }
      if (w.policy == WindowPolicy::kCount && w.length_tuples <= 0) {
        out->push_back(MakeDiag(
            Severity::kError, "PDSP-E202", ctx, id,
            StrFormat("count window length %lld is not positive",
                      static_cast<long long>(w.length_tuples)),
            "set length_tuples > 0"));
      }
      if (w.type == WindowType::kSliding) {
        if (!std::isfinite(w.slide_ratio) || w.slide_ratio > 1.0) {
          out->push_back(MakeDiag(
              Severity::kError, "PDSP-E203", ctx, id,
              StrFormat("sliding window slide exceeds its size "
                        "(slide_ratio %g > 1)",
                        w.slide_ratio),
              "use slide_ratio in (0, 1); tuples between panes would be "
              "dropped"));
        } else if (w.slide_ratio <= 0.0) {
          out->push_back(MakeDiag(
              Severity::kError, "PDSP-E204", ctx, id,
              StrFormat("sliding window slide_ratio %g is not positive",
                        w.slide_ratio),
              "use slide_ratio in (0, 1)"));
        } else if (w.slide_ratio == 1.0) {
          out->push_back(MakeDiag(
              Severity::kWarning, "PDSP-W205", ctx, id,
              "sliding window with slide == size behaves like a tumbling "
              "window",
              "declare the window tumbling to avoid sliding-path overhead"));
        }
      }
    }
  }
};

// --- join-key-types ------------------------------------------------------

class JoinKeyTypesPass : public AnalysisPass {
 public:
  const char* name() const override { return "join-key-types"; }
  const char* description() const override {
    return "equi-join key type agreement between the two inputs";
  }

  void Run(const AnalysisContext& ctx,
           std::vector<Diagnostic>* out) const override {
    for (size_t i = 0; i < ctx.NumOps(); ++i) {
      const OpId id = static_cast<OpId>(i);
      const OperatorDescriptor& op = ctx.op(id);
      if (op.type != OperatorType::kWindowJoin) continue;
      const auto& in = ctx.inputs[id];
      if (in.size() != 2 || !ctx.SchemaKnown(in[0]) ||
          !ctx.SchemaKnown(in[1])) {
        continue;  // arity/fields covered by dead-operator / field-refs
      }
      const Schema& l = ctx.schema(in[0]);
      const Schema& r = ctx.schema(in[1]);
      if (op.join_left_key >= l.NumFields() ||
          op.join_right_key >= r.NumFields()) {
        continue;  // field-refs reports the out-of-range index
      }
      const DataType lt = l.field(op.join_left_key).type;
      const DataType rt = r.field(op.join_right_key).type;
      if (lt != rt) {
        out->push_back(MakeDiag(
            Severity::kError, "PDSP-E301", ctx, id,
            StrFormat("join key types disagree: left %s (%s) vs right %s "
                      "(%s); hash partitioning would never co-locate "
                      "matching keys",
                      l.field(op.join_left_key).name.c_str(),
                      DataTypeToString(lt),
                      r.field(op.join_right_key).name.c_str(),
                      DataTypeToString(rt)),
            "key both inputs on fields of the same data type"));
      } else if (lt == DataType::kDouble) {
        out->push_back(MakeDiag(
            Severity::kWarning, "PDSP-W302", ctx, id,
            "equi-join on floating-point keys relies on exact double "
            "equality",
            "join on integer or string keys"));
      }
    }
  }
};

// --- field-refs ----------------------------------------------------------

class FieldRefsPass : public AnalysisPass {
 public:
  const char* name() const override { return "field-refs"; }
  const char* description() const override {
    return "field and source indices resolve against the derived schemas";
  }

  void Run(const AnalysisContext& ctx,
           std::vector<Diagnostic>* out) const override {
    for (size_t i = 0; i < ctx.NumOps(); ++i) {
      const OpId id = static_cast<OpId>(i);
      const OperatorDescriptor& op = ctx.op(id);
      const auto& in = ctx.inputs[id];
      const bool in0_known = !in.empty() && ctx.SchemaKnown(in[0]);
      switch (op.type) {
        case OperatorType::kSource:
          if (op.source_index < 0 ||
              op.source_index >=
                  static_cast<int>(ctx.plan->sources().size())) {
            out->push_back(MakeDiag(
                Severity::kError, "PDSP-E405", ctx, id,
                StrFormat("source_index %d out of range (%zu sources bound)",
                          op.source_index, ctx.plan->sources().size()),
                "bind the stream with LogicalPlan::AddSource"));
          }
          break;
        case OperatorType::kFilter:
          if (in0_known &&
              op.filter_field >= ctx.schema(in[0]).NumFields()) {
            out->push_back(MakeDiag(
                Severity::kError, "PDSP-E401", ctx, id,
                StrFormat("filter references field %zu but the input schema "
                          "has %zu fields (%s)",
                          op.filter_field, ctx.schema(in[0]).NumFields(),
                          ctx.schema(in[0]).ToString().c_str()),
                "reference a field inside the upstream schema"));
          }
          break;
        case OperatorType::kWindowAggregate:
          if (in0_known) {
            const Schema& s = ctx.schema(in[0]);
            if (op.agg_field >= s.NumFields()) {
              out->push_back(MakeDiag(
                  Severity::kError, "PDSP-E402", ctx, id,
                  StrFormat("aggregate field %zu out of range (input has "
                            "%zu fields)",
                            op.agg_field, s.NumFields()),
                  "aggregate over a field inside the upstream schema"));
            }
            if (op.key_field != OperatorDescriptor::kNoKey &&
                op.key_field >= s.NumFields()) {
              out->push_back(MakeDiag(
                  Severity::kError, "PDSP-E403", ctx, id,
                  StrFormat("grouping key field %zu out of range (input has "
                            "%zu fields)",
                            op.key_field, s.NumFields()),
                  "key by a field inside the upstream schema, or use kNoKey "
                  "for a global window"));
            }
          }
          break;
        case OperatorType::kWindowJoin:
          if (in.size() == 2) {
            if (ctx.SchemaKnown(in[0]) &&
                op.join_left_key >= ctx.schema(in[0]).NumFields()) {
              out->push_back(MakeDiag(
                  Severity::kError, "PDSP-E404", ctx, id,
                  StrFormat("left join key %zu out of range (left input has "
                            "%zu fields)",
                            op.join_left_key,
                            ctx.schema(in[0]).NumFields()),
                  "key inside the left input schema"));
            }
            if (ctx.SchemaKnown(in[1]) &&
                op.join_right_key >= ctx.schema(in[1]).NumFields()) {
              out->push_back(MakeDiag(
                  Severity::kError, "PDSP-E404", ctx, id,
                  StrFormat("right join key %zu out of range (right input "
                            "has %zu fields)",
                            op.join_right_key,
                            ctx.schema(in[1]).NumFields()),
                  "key inside the right input schema"));
            }
          }
          break;
        default:
          break;
      }
    }
  }
};

// --- filter-literal ------------------------------------------------------

class FilterLiteralPass : public AnalysisPass {
 public:
  const char* name() const override { return "filter-literal"; }
  const char* description() const override {
    return "filter literals are finite and type-compatible with the field";
  }

  void Run(const AnalysisContext& ctx,
           std::vector<Diagnostic>* out) const override {
    for (size_t i = 0; i < ctx.NumOps(); ++i) {
      const OpId id = static_cast<OpId>(i);
      const OperatorDescriptor& op = ctx.op(id);
      if (op.type != OperatorType::kFilter) continue;
      if (op.filter_literal.is_double() &&
          !std::isfinite(op.filter_literal.AsDouble())) {
        out->push_back(MakeDiag(
            Severity::kError, "PDSP-E502", ctx, id,
            StrFormat("filter literal %s is not finite",
                      op.filter_literal.ToString().c_str()),
            "compare against a finite literal"));
      }
      const auto& in = ctx.inputs[id];
      if (in.empty() || !ctx.SchemaKnown(in[0])) continue;
      const Schema& s = ctx.schema(in[0]);
      if (op.filter_field >= s.NumFields()) continue;  // field-refs reports
      const DataType ft = s.field(op.filter_field).type;
      const bool field_is_string = ft == DataType::kString;
      const bool literal_is_string = op.filter_literal.is_string();
      if (field_is_string != literal_is_string) {
        out->push_back(MakeDiag(
            Severity::kWarning, "PDSP-W501", ctx, id,
            StrFormat("filter compares %s field '%s' against %s literal %s "
                      "(string/number comparison coerces strings to their "
                      "length)",
                      DataTypeToString(ft),
                      s.field(op.filter_field).name.c_str(),
                      DataTypeToString(op.filter_literal.type()),
                      op.filter_literal.ToString().c_str()),
            "compare the field against a literal of its own type"));
      }
    }
  }
};

// --- selectivity-range ---------------------------------------------------

class SelectivityRangePass : public AnalysisPass {
 public:
  const char* name() const override { return "selectivity-range"; }
  const char* description() const override {
    return "selectivity/fanout/cost hints are finite and in range";
  }

  void Run(const AnalysisContext& ctx,
           std::vector<Diagnostic>* out) const override {
    for (size_t i = 0; i < ctx.NumOps(); ++i) {
      const OpId id = static_cast<OpId>(i);
      const OperatorDescriptor& op = ctx.op(id);
      switch (op.type) {
        case OperatorType::kFilter:
          // Negative (including -inf) is the documented "unknown" sentinel;
          // NaN and +inf are never meaningful.
          if (!std::isfinite(op.selectivity_hint) &&
              !(op.selectivity_hint < 0.0)) {
            out->push_back(MakeDiag(
                Severity::kError, "PDSP-E602", ctx, id,
                "filter selectivity hint is not finite",
                "use a value in [0, 1], or a negative value for 'unknown'"));
          } else if (op.selectivity_hint > 1.0) {
            out->push_back(MakeDiag(
                Severity::kWarning, "PDSP-W601", ctx, id,
                StrFormat("filter selectivity hint %g exceeds 1; filters "
                          "cannot amplify their input",
                          op.selectivity_hint),
                "use a pass fraction in [0, 1]"));
          }
          break;
        case OperatorType::kFlatMap:
          if (!std::isfinite(op.flatmap_fanout) || op.flatmap_fanout < 0.0) {
            out->push_back(MakeDiag(
                Severity::kError, "PDSP-E603", ctx, id,
                StrFormat("flatmap fanout %g is not a finite non-negative "
                          "mean output count",
                          op.flatmap_fanout),
                "use a finite fanout >= 0"));
          }
          break;
        case OperatorType::kWindowJoin:
          if (!std::isfinite(op.join_selectivity_hint) &&
              !(op.join_selectivity_hint < 0.0)) {
            out->push_back(MakeDiag(
                Severity::kError, "PDSP-E605", ctx, id,
                "join selectivity hint is not finite",
                "use a match probability in [0, 1], or a negative value for "
                "'unknown'"));
          } else if (op.join_selectivity_hint > 1.0) {
            out->push_back(MakeDiag(
                Severity::kWarning, "PDSP-W604", ctx, id,
                StrFormat("join selectivity hint %g exceeds 1; it is a "
                          "per-pair match probability",
                          op.join_selectivity_hint),
                "use a match probability in [0, 1]"));
          }
          break;
        case OperatorType::kUdo:
          if (!std::isfinite(op.udo_selectivity) ||
              op.udo_selectivity < 0.0) {
            out->push_back(MakeDiag(
                Severity::kError, "PDSP-E606", ctx, id,
                StrFormat("UDO selectivity %g is not a finite non-negative "
                          "mean output count",
                          op.udo_selectivity),
                "use a finite selectivity >= 0"));
          }
          if (!std::isfinite(op.udo_cost_factor) ||
              op.udo_cost_factor < 0.0) {
            out->push_back(MakeDiag(
                Severity::kError, "PDSP-E607", ctx, id,
                StrFormat("UDO cost factor %g is not finite and "
                          "non-negative",
                          op.udo_cost_factor),
                "use a per-tuple cost factor >= 0 (1.0 = standard map)"));
          }
          break;
        default:
          break;
      }
    }
  }
};

// --- repartition ---------------------------------------------------------

class RepartitionPass : public AnalysisPass {
 public:
  const char* name() const override { return "repartition"; }
  const char* description() const override {
    return "missing hash partitioning before keyed state; redundant shuffles";
  }

  void Run(const AnalysisContext& ctx,
           std::vector<Diagnostic>* out) const override {
    for (size_t i = 0; i < ctx.NumOps(); ++i) {
      const OpId id = static_cast<OpId>(i);
      const OperatorDescriptor& op = ctx.op(id);

      // E701: keyed operator fed by anything but a hash shuffle. Build()
      // normalizes this away; hand-assembled or deserialized plans can
      // still carry it, and it silently mis-keys state.
      if (op.RequiresKeyedInput() &&
          op.input_partitioning != Partitioning::kHash) {
        out->push_back(MakeDiag(
            Severity::kError, "PDSP-E701", ctx, id,
            StrFormat("operator keeps keyed state but its input is %s "
                      "partitioned; instances would each see an arbitrary "
                      "slice of every key",
                      PartitioningToString(op.input_partitioning)),
            "hash-partition the input on the key field"));
      }

      // W702: a shuffle into a stateless pass-through whose only consumers
      // immediately re-key is pure network overhead.
      if (IsStatelessUnary(op.type) &&
          (op.input_partitioning == Partitioning::kRebalance ||
           op.input_partitioning == Partitioning::kHash) &&
          !ctx.outputs[id].empty()) {
        bool all_rekey = true;
        for (const OpId down : ctx.outputs[id]) {
          const OperatorDescriptor& d = ctx.op(down);
          if (!(d.RequiresKeyedInput() &&
                d.input_partitioning == Partitioning::kHash)) {
            all_rekey = false;
            break;
          }
        }
        const auto& in = ctx.inputs[id];
        if (all_rekey && !in.empty()) {
          const bool forward_viable =
              ctx.op(in[0]).parallelism == op.parallelism;
          out->push_back(MakeDiag(
              Severity::kWarning, "PDSP-W702", ctx, id,
              StrFormat("%s shuffle into '%s' is redundant: every consumer "
                        "immediately re-partitions by key",
                        PartitioningToString(op.input_partitioning),
                        op.name.c_str()),
              forward_viable
                  ? "use forward partitioning here and let the downstream "
                    "hash do the only shuffle"
                  : "match this operator's parallelism with its input and "
                    "use forward partitioning"));
        }
      }

      // W703: forward between unequal degrees silently degrades to
      // rebalance during physical expansion.
      if (op.type != OperatorType::kSource &&
          op.input_partitioning == Partitioning::kForward) {
        for (const OpId up : ctx.inputs[id]) {
          if (ctx.op(up).parallelism != op.parallelism) {
            out->push_back(MakeDiag(
                Severity::kWarning, "PDSP-W703", ctx, id,
                StrFormat("forward partitioning from '%s' (p=%d) to '%s' "
                          "(p=%d) degrades to rebalance at expansion",
                          ctx.op(up).name.c_str(), ctx.op(up).parallelism,
                          op.name.c_str(), op.parallelism),
                "match the parallelism degrees or declare rebalance "
                "explicitly"));
          }
        }
      }
    }
  }
};

// --- udo-checks ----------------------------------------------------------

class UdoChecksPass : public AnalysisPass {
 public:
  const char* name() const override { return "udo-checks"; }
  const char* description() const override {
    return "UDO kinds resolve; stateful UDOs sit on keyed streams";
  }

  void Run(const AnalysisContext& ctx,
           std::vector<Diagnostic>* out) const override {
    for (size_t i = 0; i < ctx.NumOps(); ++i) {
      const OpId id = static_cast<OpId>(i);
      const OperatorDescriptor& op = ctx.op(id);
      if (op.type != OperatorType::kUdo) continue;
      if (op.udo_kind.empty()) {
        out->push_back(MakeDiag(
            Severity::kError, "PDSP-E801", ctx, id,
            "UDO has no kind; it cannot be resolved at execution time",
            "set udo_kind to a registered kind (see UdoRegistry::Kinds)"));
      } else if (!UdoRegistry::Global().Contains(op.udo_kind)) {
        out->push_back(MakeDiag(
            Severity::kWarning, "PDSP-W802", ctx, id,
            StrFormat("UDO kind '%s' is not registered in this process",
                      op.udo_kind.c_str()),
            "register the kind before executing (RegisterAppUdos registers "
            "the application suite)"));
      }
      // W803: keyed state over a stream that structurally has no keys —
      // the instance-local state of a stateful UDO fed by a global
      // (un-keyed) window aggregate partitions an effectively keyless
      // stream by hash of an aggregate value.
      if (op.udo_stateful) {
        for (const OpId up : ctx.inputs[id]) {
          const OperatorDescriptor& u = ctx.op(up);
          if (u.type == OperatorType::kWindowAggregate &&
              u.key_field == OperatorDescriptor::kNoKey) {
            out->push_back(MakeDiag(
                Severity::kWarning, "PDSP-W803", ctx, id,
                StrFormat("stateful UDO consumes the global (un-keyed) "
                          "aggregate '%s'; per-key state over aggregate "
                          "values is usually a modelling mistake",
                          u.name.c_str()),
                "key the upstream aggregate, or make the UDO stateless"));
          }
        }
      }
    }
  }
};

// --- parallelism-feasibility --------------------------------------------

class ParallelismFeasibilityPass : public AnalysisPass {
 public:
  const char* name() const override { return "parallelism-feasibility"; }
  const char* description() const override {
    return "parallelism degrees vs. the cluster's slot capacity";
  }
  bool needs_cluster() const override { return true; }

  void Run(const AnalysisContext& ctx,
           std::vector<Diagnostic>* out) const override {
    const int slots = ctx.cluster->TotalCores();
    if (slots <= 0) return;
    int total = 0;
    for (size_t i = 0; i < ctx.NumOps(); ++i) {
      const OpId id = static_cast<OpId>(i);
      const int p = ctx.op(id).parallelism;
      total += p;
      if (p > slots) {
        out->push_back(MakeDiag(
            Severity::kWarning, "PDSP-W901", ctx, id,
            StrFormat("parallelism %d exceeds the cluster's %d task slots; "
                      "instances of this one operator will time-share "
                      "cores",
                      p, slots),
            "cap the degree at the slot count or grow the cluster"));
      }
    }
    if (total > 2 * slots) {
      out->push_back(MakeDiag(
          Severity::kWarning, "PDSP-W902", ctx, -1,
          StrFormat("total parallelism %d oversubscribes the cluster's %d "
                    "slots more than 2x; contention will dominate the "
                    "measurement",
                    total, slots),
          "reduce degrees or measure on a larger cluster"));
    } else if (total > slots) {
      out->push_back(MakeDiag(
          Severity::kInfo, "PDSP-I903", ctx, -1,
          StrFormat("total parallelism %d exceeds the cluster's %d slots "
                    "(deliberate in the oversubscription sweeps)",
                    total, slots),
          ""));
    }
  }
};

// --- sink-io -------------------------------------------------------------

class SinkIoPass : public AnalysisPass {
 public:
  const char* name() const override { return "sink-io"; }
  const char* description() const override {
    return "sink fan-in schema agreement and sink parallelism";
  }

  void Run(const AnalysisContext& ctx,
           std::vector<Diagnostic>* out) const override {
    for (size_t i = 0; i < ctx.NumOps(); ++i) {
      const OpId id = static_cast<OpId>(i);
      const OperatorDescriptor& op = ctx.op(id);
      if (op.type != OperatorType::kSink) continue;
      const auto& in = ctx.inputs[id];
      for (size_t k = 1; k < in.size(); ++k) {
        if (!ctx.SchemaKnown(in[0]) || !ctx.SchemaKnown(in[k])) continue;
        if (!(ctx.schema(in[0]) == ctx.schema(in[k]))) {
          out->push_back(MakeDiag(
              Severity::kError, "PDSP-E010", ctx, id,
              StrFormat("sink merges streams with different schemas: '%s' "
                        "yields (%s) but '%s' yields (%s)",
                        ctx.op(in[0]).name.c_str(),
                        ctx.schema(in[0]).ToString().c_str(),
                        ctx.op(in[k]).name.c_str(),
                        ctx.schema(in[k]).ToString().c_str()),
              "align the input schemas (e.g. with a map) before the sink"));
        }
      }
      if (op.parallelism > 1) {
        out->push_back(MakeDiag(
            Severity::kWarning, "PDSP-W011", ctx, id,
            StrFormat("sink parallelism %d splits the latency measurement "
                      "across instances",
                      op.parallelism),
            "keep the sink at parallelism 1 (the harness convention)"));
      }
    }
  }
};

// --- dataflow-partitioning -----------------------------------------------

// Surfaces the *proven* redundant shuffles derived by the partitioning
// analysis. Unlike the heuristic PDSP-W702 ("shuffle immediately re-keyed",
// a local pattern match), PDSP-W704 rests on provenance: the analysis
// tracked the routing value back to where it was produced and showed the
// input stream is already placed by Hash(value) % parallelism.
class DataflowPartitioningPass : public AnalysisPass {
 public:
  const char* name() const override { return "dataflow-partitioning"; }
  const char* description() const override {
    return "proven redundant shuffles (input already hash-partitioned on "
           "the same key)";
  }

  void Run(const AnalysisContext& ctx,
           std::vector<Diagnostic>* out) const override {
    if (ctx.props == nullptr || !ctx.props->partitioning_stats.ok()) return;
    for (size_t i = 0; i < ctx.props->ops.size() && i < ctx.NumOps(); ++i) {
      const OperatorProperties& p = ctx.props->ops[i];
      if (!p.redundant_shuffle) continue;
      out->push_back(MakeDiag(
          Severity::kWarning, "PDSP-W704", ctx, static_cast<OpId>(i),
          StrFormat("redundant shuffle: %s", p.redundant_shuffle_why.c_str()),
          "use forward partitioning to keep tuples on their producing "
          "instances (elides the network hop)"));
    }
  }
};

// --- rate-interval -------------------------------------------------------

// Static saturation check: even the *lower* bound of the derived input-rate
// interval exceeds what the operator's instances can serve on the fastest
// node of the cluster (reference core when no cluster is given). Fires
// before any simulation runs.
class RateIntervalPass : public AnalysisPass {
 public:
  const char* name() const override { return "rate-interval"; }
  const char* description() const override {
    return "statically over-saturated operators (derived min input rate "
           "exceeds service capacity)";
  }

  void Run(const AnalysisContext& ctx,
           std::vector<Diagnostic>* out) const override {
    if (ctx.props == nullptr || !ctx.props->rate_stats.ok()) return;
    double speed = 1.0;
    if (ctx.cluster != nullptr) {
      for (const Node& node : ctx.cluster->nodes()) {
        speed = std::max(speed, node.effective_speed);
      }
    }
    const CostModel cost;
    for (size_t i = 0; i < ctx.props->ops.size() && i < ctx.NumOps(); ++i) {
      const OpId id = static_cast<OpId>(i);
      const OperatorDescriptor& op = ctx.op(id);
      if (op.type == OperatorType::kSource) continue;
      const RateInterval& in = ctx.props->ops[i].input_rate;
      // Only a finite proven bound can over-saturate: a NaN bound (say,
      // from a NaN filter literal) compares false against everything.
      if (!std::isfinite(in.lo) || in.lo <= 0.0) continue;
      const double per_tuple = cost.InputTupleCost(op);
      const double capacity =
          static_cast<double>(std::max(1, op.parallelism)) * speed /
          std::max(1e-12, per_tuple);
      const double utilization = in.lo / capacity;
      if (utilization < 1.0) continue;
      const double needed = std::ceil(
          static_cast<double>(std::max(1, op.parallelism)) * utilization);
      out->push_back(MakeDiag(
          Severity::kWarning, "PDSP-W605", ctx, id,
          StrFormat("statically over-saturated: proven minimum input rate "
                    "%.0f ev/s is %.1fx the service capacity of %d "
                    "instance(s) (%.0f ev/s)",
                    in.lo, utilization, op.parallelism, capacity),
          StrFormat("raise parallelism to at least %.0f or reduce the "
                    "upstream rate",
                    needed)));
    }
  }
};

// --- const-refinement ----------------------------------------------------

// Statically-unsatisfiable (and vacuous) filters, proven by constant
// propagation of generator value intervals, plus the dead subgraphs an
// always-false filter induces.
class ConstRefinementPass : public AnalysisPass {
 public:
  const char* name() const override { return "const-refinement"; }
  const char* description() const override {
    return "statically always-false/always-true filters and the dead "
           "subgraphs they induce";
  }

  void Run(const AnalysisContext& ctx,
           std::vector<Diagnostic>* out) const override {
    if (ctx.props == nullptr || !ctx.props->refinement_stats.ok()) return;
    for (size_t i = 0; i < ctx.props->ops.size() && i < ctx.NumOps(); ++i) {
      const OpId id = static_cast<OpId>(i);
      const OperatorProperties& p = ctx.props->ops[i];
      if (p.filter_always_false) {
        out->push_back(MakeDiag(
            Severity::kError, "PDSP-E503", ctx, id,
            StrFormat("filter is statically always false: %s",
                      p.filter_why.c_str()),
            "fix the literal (or the generator range); everything "
            "downstream of this filter is dead"));
      } else if (p.filter_always_true) {
        out->push_back(MakeDiag(
            Severity::kWarning, "PDSP-W504", ctx, id,
            StrFormat("filter is statically always true: %s",
                      p.filter_why.c_str()),
            "drop the filter or choose a literal inside the value range"));
      }
      if (p.statically_dead && !p.filter_always_false) {
        out->push_back(MakeDiag(
            Severity::kInfo, "PDSP-I505", ctx, id,
            "statically dead: the derived maximum input rate is zero "
            "(downstream of an always-false filter)",
            "remove the dead subgraph or fix the filter that kills it"));
      }
    }
  }
};

// --- determinism ---------------------------------------------------------

// Emits no diagnostics: the determinism verdict is a property, not a
// defect. Registered so `analyze --list-passes` documents where the
// verdict in the property table / ledger comes from.
class DeterminismPass : public AnalysisPass {
 public:
  const char* name() const override { return "determinism"; }
  const char* description() const override {
    return "per-plan determinism verdict (published in the --dataflow "
           "property table and ledger records; no diagnostics)";
  }

  void Run(const AnalysisContext& ctx,
           std::vector<Diagnostic>* out) const override {
    (void)ctx;
    (void)out;
  }
};

}  // namespace

}  // namespace analysis
}  // namespace pdsp

// Registered here (rather than in pass.cc) so the pass list and the code
// table live in one translation unit.
namespace pdsp {
namespace analysis {

PassRegistry PassRegistry::Default() {
  PassRegistry registry;
  (void)registry.Register(std::make_unique<DeadOperatorPass>());
  (void)registry.Register(std::make_unique<WindowLegalityPass>());
  (void)registry.Register(std::make_unique<JoinKeyTypesPass>());
  (void)registry.Register(std::make_unique<FieldRefsPass>());
  (void)registry.Register(std::make_unique<FilterLiteralPass>());
  (void)registry.Register(std::make_unique<SelectivityRangePass>());
  (void)registry.Register(std::make_unique<RepartitionPass>());
  (void)registry.Register(std::make_unique<UdoChecksPass>());
  (void)registry.Register(std::make_unique<ParallelismFeasibilityPass>());
  (void)registry.Register(std::make_unique<SinkIoPass>());
  (void)registry.Register(std::make_unique<DataflowPartitioningPass>());
  (void)registry.Register(std::make_unique<RateIntervalPass>());
  (void)registry.Register(std::make_unique<ConstRefinementPass>());
  (void)registry.Register(std::make_unique<DeterminismPass>());
  return registry;
}

}  // namespace analysis
}  // namespace pdsp
