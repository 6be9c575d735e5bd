// Cost model for the discrete-event simulator: per-tuple service costs by
// operator type, per-batch framing overheads, fan-out (shuffle) costs and
// parallelism management overhead. All times are seconds of work on a
// reference core (m510 speed 1.0); the simulator divides by the hosting
// node's effective speed and multiplies by its core-contention factor.
//
// The defaults are calibrated so the simulated Flink exhibits the paper's
// qualitative behaviour: queueing saturation at too-low parallelism, shuffle
// and coordination overhead eroding gains at too-high parallelism (O2), and
// heavier costs for joins and stateful UDOs than for filters/maps (O1, O3).

#ifndef PDSP_SIM_COST_MODEL_H_
#define PDSP_SIM_COST_MODEL_H_

#include "src/common/status.h"
#include "src/query/plan.h"

namespace pdsp {

/// \brief Tunable service-cost parameters (seconds on a reference core).
struct CostModel {
  // Per-input-tuple costs by operator type. Calibrated to realistic Flink
  // per-core throughputs on the m510 reference core: sources ~200k ev/s
  // (deserialization), filters ~400k/s, keyed window updates ~160k/s,
  // join maintenance ~140k/s.
  double source_cost = 5.0e-6;       ///< generation + serialization
  double filter_cost = 2.5e-6;       ///< predicate evaluation
  double map_cost = 3.0e-6;
  double flatmap_cost = 3.0e-6;      ///< per input; outputs add emit cost
  double agg_update_cost = 6.0e-6;   ///< pane lookup + aggregate update
  double join_insert_cost = 4.0e-6;  ///< buffer insert + eviction
  double join_probe_cost = 3.0e-6;   ///< probing the opposite buffer
  double udo_base_cost = 5.0e-6;     ///< multiplied by udo_cost_factor
  double udo_state_cost = 3.0e-6;    ///< extra for stateful UDOs
  double sink_cost = 1.0e-6;

  // Per-output-tuple costs.
  double emit_cost = 0.5e-6;           ///< any emitted tuple
  double join_match_cost = 2.0e-6;     ///< constructing a join result
  double agg_fire_cost = 8.0e-6;       ///< per emitted (key, window) result

  // Batch / channel overheads — these grow with parallelism because higher
  // fan-out fragments batches into more, smaller sub-batches.
  double batch_overhead = 25e-6;          ///< per received batch (task wake)
  double wm_batch_cost = 5e-6;            ///< per watermark-only delivery
  double subbatch_send_overhead = 8e-6;   ///< per destination sub-batch sent
  /// Keyed-state coordination: per received batch, extra cost proportional
  /// to (operator parallelism - 1) — state repartitioning bookkeeping.
  double keyed_coordination_cost = 1.0e-6;

  /// Operator chaining (Flink's default): tuples crossing a kForward
  /// channel between equal-parallelism operators whose instances are
  /// co-located on the same node stay on the producing thread — no send
  /// overhead, no handoff latency, no receive framing. Use locality
  /// placement to make co-location likely.
  bool chain_forward_channels = true;

  // Network-side costs (the cluster supplies latency and bandwidth).
  double serialization_cost_per_byte = 2.0e-9;  ///< cross-node sends only
  double local_handoff_latency = 4e-6;          ///< same-node delivery delay

  /// Service cost charged per input tuple for the given operator.
  double InputTupleCost(const OperatorDescriptor& op) const;

  /// Service cost charged per output tuple for the given operator
  /// (`timer_fire` marks window-fire emissions, which are costlier).
  double OutputTupleCost(const OperatorDescriptor& op, bool timer_fire) const;

  /// Per-batch fixed cost for the given operator (framing + coordination).
  double BatchCost(const OperatorDescriptor& op) const;

  /// InvalidArgument naming the first cost that is negative or not finite:
  /// either could schedule an event before the current virtual time.
  Status Validate() const;
};

}  // namespace pdsp

#endif  // PDSP_SIM_COST_MODEL_H_
