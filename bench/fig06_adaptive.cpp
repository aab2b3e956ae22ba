// Fig. 6 — the adaptive ensemble learner personalizing to unseen users:
// 3 previously-unseen users at 20 dB SNR, 1000 iterations of 10
// classifications each, plus frozen-matrix controls for users 1 and 2
// (protocol in adaptive_protocol.hpp, shared with the claims gate).
// Paper: accuracy starts below the base level because of the noise and the
// unseen gait, and recovers toward it within ~100 iterations.
#include "bench_common.hpp"

#include "adaptive_protocol.hpp"

using namespace origin;

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv, "fig06_adaptive");
  auto exp = bench::make_experiment(data::DatasetKind::MHealthLike);
  const auto& sys = exp.system();
  const double base = bench::adaptive_base_pct(sys);

  util::AsciiTable t({"user", "iter 1", "iter 10", "iter 100", "iter 1000"});
  const auto runs = bench::adaptive_runs();
  const auto rows = bench::run_adaptive(sys, runs);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    t.add_row(runs[i].label, rows[i]);
  }
  t.add_row("base model", std::vector<double>(4, base));

  std::printf("\n=== Fig. 6: adaptive confidence matrix on unseen users (20 dB SNR) ===\n");
  std::printf("(1000 iterations x 10 classifications; only the matrix adapts)\n");
  t.print();
  report.add_table("fig06", t);
  report.manifest().set("iterations", bench::kAdaptiveIterations);
  report.manifest().set("per_iteration", bench::kAdaptivePerIteration);
  report.manifest().set("base_pct", base);
  report.write();
  return 0;
}
