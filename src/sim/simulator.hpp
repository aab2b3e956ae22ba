// Slot-stepped simulator of the EH-WSN: binds a multi-sensor stream, the
// shared RF environment, the three sensor nodes and a scheduling policy,
// and produces accuracy + completion metrics. One slot = one window stride
// (0.5 s), the granularity of the Fig. 3 schedules.
#pragma once

#include <array>
#include <memory>
#include <optional>

#include "core/policy.hpp"
#include "data/dataset.hpp"
#include "data/stream_cursor.hpp"
#include "energy/power_trace.hpp"
#include "net/sensor_node.hpp"
#include "obs/trace.hpp"
#include "sim/metrics.hpp"

namespace origin::sim {

struct SimulatorConfig {
  net::SensorNodeConfig node;
  /// Harvester conversion efficiency (same hardware on all nodes).
  double harvester_efficiency = 0.7;
  /// Per-node antenna/location scale on the ambient trace.
  std::array<double, data::kNumSensors> harvest_scale = {1.0, 1.0, 1.0};
  /// Per-node trace offsets decorrelate the burst patterns the three
  /// nodes see (they sit at different spots of the room).
  std::array<double, data::kNumSensors> harvest_offset_s = {0.0, 211.0, 467.0};
  /// Failure injection (reliability experiments, paper Discussion): node
  /// `i` dies permanently at `node_failure_at_s[i]` seconds into the run.
  std::array<std::optional<double>, data::kNumSensors> node_failure_at_s{};
  /// Borrowed slot-trace recorder (null-object: nullptr disables tracing
  /// and the slot loop allocates nothing for it). Captures schedule
  /// decisions + fallback hops, per-node energy, attempt outcomes with
  /// their failure cause, votes/weights and the fused output per slot.
  obs::TraceRecorder* trace = nullptr;
};

class Simulator {
 public:
  /// `models[i]` is deployed to sensor i (enum order: chest, ankle,
  /// wrist). `trace` and `policy` are borrowed and must outlive the
  /// simulator.
  Simulator(const data::DatasetSpec& spec,
            std::array<nn::Sequential, data::kNumSensors> models,
            const energy::PowerTrace* trace, core::Policy* policy,
            SimulatorConfig config = {});

  /// Borrowing form for pooled hot paths: `models` must outlive the
  /// simulator and not be used concurrently (inference mutates layer
  /// activation caches). Results are identical to the owning form — the
  /// simulator never mutates weights, only runs forward passes.
  Simulator(const data::DatasetSpec& spec,
            std::array<nn::Sequential, data::kNumSensors>* models,
            const energy::PowerTrace* trace, core::Policy* policy,
            SimulatorConfig config = {});

  /// Runs the policy over the stream; nodes and the host start fresh.
  SimResult run(const data::Stream& stream);

  /// Streaming form: consumes any SlotSource (e.g. a data::StreamCursor,
  /// whose working set is the ring, not the whole stream). Forward-only
  /// access. Bit-identical to running over the materialized stream.
  SimResult run(data::SlotSource& source);

  /// Per-inference energy of each deployed node (compute + TX).
  std::array<double, data::kNumSensors> inference_energy_j() const;

 private:
  data::DatasetSpec spec_;
  /// Engaged when this simulator owns its networks (by-value ctor).
  std::optional<std::array<nn::Sequential, data::kNumSensors>> owned_models_;
  std::array<nn::Sequential, data::kNumSensors>* models_;
  const energy::PowerTrace* trace_;
  core::Policy* policy_;
  SimulatorConfig config_;
};

}  // namespace origin::sim
