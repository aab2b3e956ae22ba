// Ablation — pruning budget (paper §III-D): the strict continuous-power
// prune (Baseline-2) vs the ER-r-relaxed prune that Origin may adopt, and
// their end-to-end effect when deployed under RR6/RR12 on harvested
// energy. On this substrate the relaxed nets are slightly more accurate
// per inference but cost more energy, so completions drop — the ablation
// quantifies the tradeoff the paper alludes to.
#include "bench_common.hpp"

using namespace origin;

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv, "abl_pruning");
  auto exp = bench::make_experiment(data::DatasetKind::MHealthLike);
  auto& sys = exp.system();
  const auto stream = exp.make_stream(data::reference_user());

  std::printf("\n=== Pruning outcomes per sensor ===\n");
  {
    util::AsciiTable t({"sensor", "variant", "params", "MACs", "energy [uJ]",
                        "mean test acc %"});
    for (int s = 0; s < data::kNumSensors; ++s) {
      const auto si = static_cast<std::size_t>(s);
      const nn::Samples test =
          core::make_test_set(exp.config().pipeline, sys.spec,
                              static_cast<data::SensorLocation>(s));
      auto add = [&](const char* tag, nn::Sequential& net,
                     const nn::InferenceCost& cost) {
        const auto acc =
            core::per_class_accuracy(net, test, sys.spec.num_classes());
        double mean = 0.0;
        for (double a : acc) mean += a;
        mean /= static_cast<double>(acc.size());
        t.add_row({std::string(to_string(static_cast<data::SensorLocation>(s))),
                   tag, std::to_string(net.param_count()),
                   std::to_string(cost.macs),
                   util::AsciiTable::format(1e6 * cost.energy_j, 2),
                   util::AsciiTable::format(100.0 * mean, 1)});
      };
      add("BL-1 (unpruned)", sys.sensors[si].bl1, sys.sensors[si].bl1_cost);
      add("relaxed (ER-r budget)", sys.sensors[si].relaxed,
          sys.sensors[si].relaxed_cost);
      add("BL-2 (continuous budget)", sys.sensors[si].bl2,
          sys.sensors[si].bl2_cost);
    }
    t.print();
    report.add_table("pruning_outcomes", t);
  }

  std::printf("\n=== Deployed on harvested energy ===\n");
  {
    util::AsciiTable t({"policy", "model set", "overall %", "attempt success %"});
    for (int cycle : {6, 12}) {
      for (auto set : {sim::ModelSet::BL2, sim::ModelSet::Relaxed}) {
        auto policy = exp.make_policy(sim::PolicyKind::Origin, cycle, set);
        const auto r = exp.run_policy(*policy, stream, set);
        t.add_row({policy->name(), to_string(set),
                   util::AsciiTable::format(100.0 * r.accuracy.overall()),
                   util::AsciiTable::format(r.completion.attempt_success_rate())});
      }
    }
    t.print();
    report.add_table("deployed", t);
  }
  report.write();
  return 0;
}
