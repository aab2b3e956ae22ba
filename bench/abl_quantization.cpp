// Ablation — post-training weight quantization of the deployed (BL-2)
// networks: accuracy and per-inference energy across bit widths, plus the
// end-to-end effect under Origin RR12 (quantization shrinks the energy a
// node must harvest per inference).
#include "bench_common.hpp"

#include "nn/quantize.hpp"
#include "sim/simulator.hpp"

using namespace origin;

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv, "abl_quantization");
  auto exp = bench::make_experiment(data::DatasetKind::MHealthLike);
  auto& sys = exp.system();
  const auto stream = exp.make_stream(data::reference_user());
  const std::vector<int> input_shape = {sys.spec.channels, sys.spec.window_len};
  std::array<nn::Samples, data::kNumSensors> tests;
  for (int s = 0; s < data::kNumSensors; ++s) {
    tests[static_cast<std::size_t>(s)] = core::make_test_set(
        exp.config().pipeline, sys.spec, static_cast<data::SensorLocation>(s));
  }

  std::printf("\n=== Quantized deployment of the BL-2 networks ===\n");
  util::AsciiTable t({"weights", "mean test acc %", "energy/inf [uJ]",
                      "Origin RR12 acc %", "success %"});

  auto evaluate = [&](const char* label, int bits) {
    auto models = sys.bl2_copy();
    double energy = 0.0;
    double mean_acc = 0.0;
    for (int s = 0; s < data::kNumSensors; ++s) {
      const auto si = static_cast<std::size_t>(s);
      if (bits > 0) nn::quantize_weights(models[si], bits);
      const auto cost =
          bits > 0 ? nn::estimate_quantized_cost(models[si], input_shape, bits,
                                                 exp.config().pipeline.profile)
                   : nn::estimate_cost(models[si], input_shape,
                                       exp.config().pipeline.profile);
      energy += cost.energy_j / data::kNumSensors;
      const auto acc = core::per_class_accuracy(models[si], tests[si],
                                                sys.spec.num_classes());
      for (double a : acc) mean_acc += a;
    }
    mean_acc /= data::kNumSensors * sys.spec.num_classes();

    // End-to-end: same harvest, cheaper inferences. NOTE: the simulator
    // recomputes each node's cost from the (quantized) deployed model via
    // the float profile; to credit the quantized MACs we scale the compute
    // profile instead.
    sim::SimulatorConfig cfg = exp.sim_config();
    if (bits > 0) {
      const double width_ratio = bits / 32.0;
      cfg.node.compute.energy_per_mac_j *= (bits * bits) / (24.0 * 24.0);
      cfg.node.compute.energy_per_param_access_j *= width_ratio;
    }
    auto policy = exp.make_policy(sim::PolicyKind::Origin, 12);
    sim::Simulator sim(exp.spec(), std::move(models), &exp.trace(),
                       policy.get(), cfg);
    const auto r = sim.run(stream);

    t.add_row({label, util::AsciiTable::format(100.0 * mean_acc),
               util::AsciiTable::format(1e6 * energy, 2),
               util::AsciiTable::format(100.0 * r.accuracy.overall()),
               util::AsciiTable::format(r.completion.attempt_success_rate())});
  };

  evaluate("float32", 0);
  for (int bits : {8, 6, 4, 3, 2}) {
    evaluate(("int" + std::to_string(bits)).c_str(), bits);
  }
  t.print();
  report.add_table("quantization", t);
  report.write();
  std::printf("(quantization lowers the harvest needed per inference; below\n"
              " ~4 bits the accuracy loss outweighs the energy gain)\n");
  return 0;
}
