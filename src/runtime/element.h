// Latency attribution for in-flight rows. Every batch row carries, next to
// its event time, the birth timestamp of its earliest contributing source
// tuple; end-to-end latency at the sink is (delivery time - birth), which
// per the paper's definition includes window residence time and every
// queueing/network delay along the way.
//
// Each row additionally carries an attribution handle (the batch's attr_id
// column): when SimOptions::attribute_latency is on, the simulator charges
// every virtual-time interval a row lives through to exactly one component
// (source batching, network transit, queue wait, service, window residency)
// of a pool record the handle names, so at the sink the components
// telescope back to (delivery time - birth). The records live in an
// engine-side pool rather than inline so that plain measurement runs pay
// nothing (a 4-byte id) for the instrumentation. See src/obs/diagnose.h
// for the consumers.

#ifndef PDSP_RUNTIME_ELEMENT_H_
#define PDSP_RUNTIME_ELEMENT_H_

#include <cstdint>

namespace pdsp {

/// Attribution handle of a row that is not being tracked (attribution
/// disabled, or the engine's pool cap was reached).
inline constexpr uint32_t kNoAttr = 0xFFFFFFFFu;

/// \brief Where a row's lifetime has been spent so far (seconds of virtual
/// time, accumulated across every operator it passed through). Stored in
/// the simulation engine's attribution pool; rows reference records by
/// their `data::Batch::attr_id`. Derived rows (window fires, join results,
/// UDO outputs) share the record of their earliest contributor, so each
/// interval of virtual time is charged once.
///
/// Invariant maintained by the simulator: after every charge,
/// `accounted_until - birth == source_batch_s + network_s + queue_s +
/// service_s + window_s` for the row's earliest contributing source
/// tuple, so the sink-side components sum to the recorded end-to-end
/// latency exactly.
struct LatencyAttr {
  /// Waiting at the source for the emission batch to fill and ship
  /// (includes source service/lag time — the source's own saturation).
  double source_batch_s = 0.0;
  /// In-flight on channels: link latency + transfer + local handoff.
  double network_s = 0.0;
  /// Sitting in an operator instance's input queue (queueing delay).
  double queue_s = 0.0;
  /// Being processed: operator service time including send-side costs.
  double service_s = 0.0;
  /// Buffered in window/join state waiting for the pane to fire or the
  /// partner to arrive.
  double window_s = 0.0;
  /// Virtual time up to which this row's lifetime has been attributed
  /// (bookkeeping cursor, not a component).
  double accounted_until = 0.0;

  double ComponentSum() const {
    return source_batch_s + network_s + queue_s + service_s + window_s;
  }
};

}  // namespace pdsp

#endif  // PDSP_RUNTIME_ELEMENT_H_
