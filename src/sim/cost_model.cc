#include "src/sim/cost_model.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/string_util.h"

namespace pdsp {

double CostModel::InputTupleCost(const OperatorDescriptor& op) const {
  switch (op.type) {
    case OperatorType::kSource:
      return source_cost;
    case OperatorType::kFilter:
      return filter_cost;
    case OperatorType::kMap:
      return map_cost;
    case OperatorType::kFlatMap:
      return flatmap_cost;
    case OperatorType::kWindowAggregate: {
      // Sliding windows touch OverlapFactor() panes per element.
      return agg_update_cost * op.window.OverlapFactor();
    }
    case OperatorType::kWindowJoin:
      return join_insert_cost + join_probe_cost;
    case OperatorType::kUdo: {
      double c = udo_base_cost * std::max(0.0, op.udo_cost_factor);
      if (op.udo_stateful) c += udo_state_cost;
      return c;
    }
    case OperatorType::kSink:
      return sink_cost;
  }
  return map_cost;
}

double CostModel::OutputTupleCost(const OperatorDescriptor& op,
                                  bool timer_fire) const {
  switch (op.type) {
    case OperatorType::kWindowJoin:
      return emit_cost + join_match_cost;
    case OperatorType::kWindowAggregate:
      return emit_cost + (timer_fire ? agg_fire_cost : 0.0);
    default:
      return emit_cost;
  }
}

double CostModel::BatchCost(const OperatorDescriptor& op) const {
  double c = batch_overhead;
  if (op.RequiresKeyedInput()) {
    c += keyed_coordination_cost * std::max(0, op.parallelism - 1);
  }
  return c;
}

Status CostModel::Validate() const {
  const std::pair<const char*, double> fields[] = {
      {"source_cost", source_cost},
      {"filter_cost", filter_cost},
      {"map_cost", map_cost},
      {"flatmap_cost", flatmap_cost},
      {"agg_update_cost", agg_update_cost},
      {"join_insert_cost", join_insert_cost},
      {"join_probe_cost", join_probe_cost},
      {"udo_base_cost", udo_base_cost},
      {"udo_state_cost", udo_state_cost},
      {"sink_cost", sink_cost},
      {"emit_cost", emit_cost},
      {"join_match_cost", join_match_cost},
      {"agg_fire_cost", agg_fire_cost},
      {"batch_overhead", batch_overhead},
      {"wm_batch_cost", wm_batch_cost},
      {"subbatch_send_overhead", subbatch_send_overhead},
      {"keyed_coordination_cost", keyed_coordination_cost},
      {"serialization_cost_per_byte", serialization_cost_per_byte},
      {"local_handoff_latency", local_handoff_latency},
  };
  for (const auto& [name, value] : fields) {
    if (!(value >= 0.0 && std::isfinite(value))) {
      return Status::InvalidArgument(StrFormat(
          "cost model %s must be finite and >= 0, got %g", name, value));
    }
  }
  return Status::OK();
}

}  // namespace pdsp
