#include "serve/session.hpp"

#include <stdexcept>

namespace origin::serve {

Session::Session(const sim::Experiment& experiment, SessionSpec spec,
                 std::array<nn::Sequential, data::kNumSensors>* models,
                 int ring_capacity, int batch_slots)
    : Session(experiment, std::move(spec), models, ring_capacity) {
  if (batch_slots != 0) {
    throw std::invalid_argument(
        "Session: in-shard block batching was removed; batch_slots must be 0");
  }
}

Session::Session(const sim::Experiment& experiment, SessionSpec spec,
                 std::array<nn::Sequential, data::kNumSensors>* models,
                 int ring_capacity)
    : spec_(std::move(spec)),
      policy_(experiment.make_policy(spec_.policy, spec_.rr_cycle, spec_.set)),
      cursor_(experiment.make_cursor(spec_.user, spec_.seed_offset,
                                     std::nullopt, ring_capacity)),
      stepper_(experiment.spec(), models, &experiment.trace(), policy_.get(),
               &cursor_, experiment.sim_config()) {}

}  // namespace origin::serve
