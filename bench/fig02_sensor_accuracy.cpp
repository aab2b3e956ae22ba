// Fig. 2 — accuracy of the individual per-location DNNs (the pruned,
// deployment-ready nets) and of their majority-voting ensemble, per
// activity, on held-out i.i.d. windows of the MHEALTH-like dataset.
// Expected structure: left ankle best overall, chest best for climbing,
// right wrist weakest, majority voting above every individual sensor.
#include "bench_common.hpp"

#include "core/ensemble.hpp"

using namespace origin;

int main() {
  auto exp = bench::make_experiment(data::DatasetKind::MHealthLike);
  auto& sys = exp.system();
  const auto& spec = sys.spec;

  util::AsciiTable t(bench::activity_header(spec, "classifier"));

  // Per-sensor accuracy on that sensor's held-out windows.
  std::array<std::vector<double>, data::kNumSensors> acc;
  for (int s = 0; s < data::kNumSensors; ++s) {
    const auto si = static_cast<std::size_t>(s);
    const nn::Samples test = core::make_test_set(
        exp.config().pipeline, spec, static_cast<data::SensorLocation>(s));
    acc[si] = core::per_class_accuracy(sys.sensors[si].bl2, test,
                                       spec.num_classes());
    std::vector<double> row;
    double mean = 0.0;
    for (double a : acc[si]) {
      row.push_back(100.0 * a);
      mean += a;
    }
    row.push_back(100.0 * mean / spec.num_classes());
    t.add_row(to_string(static_cast<data::SensorLocation>(s)), row);
  }

  // Majority voting: the three sensors view the same instants, so build a
  // synchronized i.i.d. test set (one shared style per draw).
  {
    util::Rng rng(0xF16'2ULL);
    const data::SignalModel model(spec, data::reference_user());
    std::vector<std::uint64_t> correct(static_cast<std::size_t>(spec.num_classes()), 0);
    const int per_class = 150;
    for (int c = 0; c < spec.num_classes(); ++c) {
      const auto activity = spec.activity_of(c);
      for (int i = 0; i < per_class; ++i) {
        const double t0 = rng.uniform(0.0, 3600.0);
        const auto style = data::draw_shared_style(spec, activity, rng);
        std::vector<core::Ballot> ballots;
        for (int s = 0; s < data::kNumSensors; ++s) {
          const auto si = static_cast<std::size_t>(s);
          const auto w = model.window(activity, static_cast<data::SensorLocation>(s),
                                      t0, rng.next_u64(), style);
          ballots.push_back({sys.sensors[si].bl2.predict(w), 1.0,
                             static_cast<double>(s)});
        }
        if (core::majority_vote(ballots, spec.num_classes()).value() == c) {
          ++correct[static_cast<std::size_t>(c)];
        }
      }
    }
    std::vector<double> row;
    double mean = 0.0;
    for (int c = 0; c < spec.num_classes(); ++c) {
      const double a =
          static_cast<double>(correct[static_cast<std::size_t>(c)]) / per_class;
      row.push_back(100.0 * a);
      mean += a;
    }
    row.push_back(100.0 * mean / spec.num_classes());
    t.add_row("majority voting", row);
  }

  std::printf("\n=== Fig. 2: per-sensor DNN accuracy + majority voting (MHEALTH-like) ===\n");
  t.print();
  return 0;
}
