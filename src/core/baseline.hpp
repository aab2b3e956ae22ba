// The paper's comparison points (§IV-C): Baseline-1 (original per-sensor
// DNNs, no pruning) and Baseline-2 (the same DNNs pruned to the harvested
// power budget). Both run on a fully-powered steady supply and aggregate
// with plain majority voting every slot; sim::Experiment::run_fully_powered
// runs them.
#pragma once

namespace origin::core {

enum class BaselineKind { BL1 = 1, BL2 = 2 };

const char* to_string(BaselineKind k);

}  // namespace origin::core
