// Microbenchmarks (google-benchmark): inference latency of the deployed
// networks (BL-1 and pruned BL-2), batched prediction throughput, the
// im2row+GEMM kernel, a training epoch, window synthesis,
// scheduler and ensemble arithmetic, and a served fine-tune's weight loads
// and fit — the per-slot costs of the simulator and, proportionally, of a
// real host. `--json <path>` dumps every
// measured row through the shared bench::JsonReport manifest.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "core/ensemble.hpp"
#include "core/pipeline.hpp"
#include "core/policy.hpp"
#include "data/dataset.hpp"
#include "data/stream_cursor.hpp"
#include "energy/power_trace.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/energy_model.hpp"
#include "nn/kernels.hpp"
#include "nn/pruning.hpp"
#include "nn/trainer.hpp"
#include "serve/personalize.hpp"
#include "util/rng.hpp"

using namespace origin;

namespace {

/// `--bits` (default 32): inference word width applied to every
/// deployed-net benchmark. The int8 benchmark below pins 8 regardless.
int g_bits = 32;

nn::Sequential deployed_net() {
  const auto spec = data::dataset_spec(data::DatasetKind::MHealthLike);
  auto net = core::make_bl1_architecture(spec, 42);
  if (g_bits != 32) net.set_inference_bits(g_bits);
  return net;
}

/// BL-2-like network: the BL-1 architecture pruned to 45% of its
/// per-inference energy (no fine-tuning — latency depends on shape only).
nn::Sequential pruned_net() {
  auto net = deployed_net();
  nn::PruneConfig cfg;
  cfg.energy_budget_j =
      0.45 * nn::estimate_cost(net, {6, 64}).energy_j;
  nn::prune_to_energy_budget(net, {6, 64}, nn::ComputeProfile{}, nn::Samples{},
                             cfg);
  return net;
}

std::vector<nn::Tensor> random_windows(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<nn::Tensor> windows;
  windows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    windows.push_back(nn::Tensor::randn({6, 64}, rng, 1.0f));
  }
  return windows;
}

void BM_InferenceBL1(benchmark::State& state) {
  auto net = deployed_net();
  util::Rng rng(1);
  const nn::Tensor x = nn::Tensor::randn({6, 64}, rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.predict(x));
  }
}
BENCHMARK(BM_InferenceBL1);

void BM_InferenceBL2(benchmark::State& state) {
  auto net = pruned_net();
  util::Rng rng(4);
  const nn::Tensor x = nn::Tensor::randn({6, 64}, rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.predict(x));
  }
}
BENCHMARK(BM_InferenceBL2);

void BM_InferenceForwardTrain(benchmark::State& state) {
  auto net = deployed_net();
  util::Rng rng(2);
  const nn::Tensor x = nn::Tensor::randn({6, 64}, rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(x, true));
  }
}
BENCHMARK(BM_InferenceForwardTrain);

/// Batched classification of N windows per call (the fleet runtime's
/// in-shard fast path). items/s = windows/s.
void BM_PredictBatch(benchmark::State& state) {
  auto net = deployed_net();
  const auto windows =
      random_windows(static_cast<std::size_t>(state.range(0)), 6);
  std::vector<const nn::Tensor*> ptrs;
  for (const auto& w : windows) ptrs.push_back(&w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.predict_batch(ptrs.data(), ptrs.size()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(windows.size()));
}
BENCHMARK(BM_PredictBatch)->Arg(8)->Arg(32)->Arg(128);

/// The cross-session serving panel (DESIGN.md §15): N windows through the
/// pruned BL-2 deployment net via predict_proba_batch_into, the exact
/// call SessionShard::run_panel_group makes per (sensor, tick) panel.
void BM_PredictBatchBL2(benchmark::State& state) {
  auto net = pruned_net();
  const auto windows =
      random_windows(static_cast<std::size_t>(state.range(0)), 9);
  std::vector<const nn::Tensor*> ptrs;
  for (const auto& w : windows) ptrs.push_back(&w);
  std::vector<float> probs;
  for (auto _ : state) {
    net.predict_proba_batch_into(ptrs.data(), ptrs.size(), probs);
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(windows.size()));
}
BENCHMARK(BM_PredictBatchBL2)->Arg(1)->Arg(8)->Arg(40);

/// The int8 serving path over the same batch: per-sample activation
/// quantization + int32-accumulation GEMMs (backend-invariant bits).
void BM_PredictBatchInt8(benchmark::State& state) {
  auto net = deployed_net();
  net.set_inference_bits(8);
  const auto windows =
      random_windows(static_cast<std::size_t>(state.range(0)), 6);
  std::vector<const nn::Tensor*> ptrs;
  for (const auto& w : windows) ptrs.push_back(&w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.predict_batch(ptrs.data(), ptrs.size()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(windows.size()));
}
BENCHMARK(BM_PredictBatchInt8)->Arg(32);

/// The kernel path (im2row + blocked GEMM) of one mid-network conv stage.
void BM_Im2RowGemm(benchmark::State& state) {
  util::Rng rng(7);
  nn::Conv1D conv(20, 32, 5, 1, rng);
  const nn::Tensor x = nn::Tensor::randn({20, 30}, rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
}
BENCHMARK(BM_Im2RowGemm);

/// One gemm_bias call of shape m x kd x n (Args {m, kd, n}); the GMAC
/// counter is a rate, so it reads as GMAC/s. Registered per backend
/// below over the panels the repository benchmark runs.
void BM_GemmBias(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int kd = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  util::Rng rng(11);
  const nn::Tensor a = nn::Tensor::randn({m, kd}, rng, 1.0f);
  const nn::Tensor bias = nn::Tensor::randn({m}, rng, 1.0f);
  const nn::Tensor p = nn::Tensor::randn({kd, n}, rng, 1.0f);
  nn::Tensor c({m, n});
  for (auto _ : state) {
    nn::kernels::gemm_bias(a.data(), bias.data(), p.data(), c.data(), m, kd,
                           n);
    benchmark::ClobberMemory();
  }
  state.counters["GMAC"] = benchmark::Counter(
      1e-9 * static_cast<double>(m) * kd * n *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

/// One training epoch of the BL-1 chest net over 128 windows through
/// Trainer::fit — the batched trainer row of the EXPERIMENTS.md training
/// table.
nn::Samples train_windows(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Samples samples;
  for (std::size_t i = 0; i < count; ++i) {
    samples.push_back(
        {nn::Tensor::randn({6, 64}, rng, 1.0f), static_cast<int>(rng.below(6))});
  }
  return samples;
}

void BM_TrainEpochKernels(benchmark::State& state) {
  const auto train = train_windows(128, 11);
  nn::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 16;
  cfg.learning_rate = 8e-3;
  for (auto _ : state) {
    state.PauseTiming();
    auto net = deployed_net();
    state.ResumeTiming();
    nn::Trainer(cfg).fit(net, train);
    benchmark::DoNotOptimize(net.param_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(train.size()));
}
BENCHMARK(BM_TrainEpochKernels)->Unit(benchmark::kMillisecond);

/// The full nine-net training stage (3 BL-1 fits + 6 prune variants) on a
/// micro config, cold cache. Serial/parallel is the wall-clock pair for
/// the pipeline fan-out; the model files are byte-identical by test.
void run_pipeline_train(int threads) {
  core::PipelineConfig cfg;
  cfg.train_per_class = 24;
  cfg.calib_per_class = 6;
  cfg.test_per_class = 6;
  cfg.train.epochs = 3;
  cfg.seed = 555;
  cfg.use_cache = false;
  cfg.train_threads = threads;
  core::TrainedSystem system;
  core::train_system(system, cfg);
  benchmark::DoNotOptimize(system.sensors[0].bl1.param_count());
}

void BM_PipelineTrainSerial(benchmark::State& state) {
  for (auto _ : state) run_pipeline_train(1);
}
BENCHMARK(BM_PipelineTrainSerial)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_PipelineTrainParallel(benchmark::State& state) {
  for (auto _ : state) run_pipeline_train(0);  // 0 = hardware threads
}
BENCHMARK(BM_PipelineTrainParallel)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_WindowSynthesis(benchmark::State& state) {
  const auto spec = data::dataset_spec(data::DatasetKind::MHealthLike);
  const data::SignalModel model(spec, data::reference_user());
  const data::SharedStyle style;
  std::uint64_t key = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.window(data::Activity::Running,
                                          data::SensorLocation::LeftAnkle, 0.0,
                                          key++, style));
  }
}
BENCHMARK(BM_WindowSynthesis);

/// One window's keyed noise fill alone: the wobble plus 6 x 64 noise
/// values, the Gaussians BM_WindowSynthesis draws.
void BM_NoiseFill(benchmark::State& state) {
  std::vector<double> noise(385);
  std::uint64_t key = 3;
  for (auto _ : state) {
    nn::kernels::gauss_fill(key++, noise.data(), noise.size());
    benchmark::DoNotOptimize(noise.data());
  }
}
BENCHMARK(BM_NoiseFill);

/// A stream cursor's steady state with Arg windows read per slot, lower
/// sensors first; the others cost nothing. Arg 3 is a baseline that reads
/// every sensor, Arg 1 a scheduler that samples one sensor per slot.
/// Pooled ring buffers, so zero allocation after warm-up; the rewind every
/// 120 slots redraws no windows. items/s = slots/s.
void BM_WindowSynthesisBatch(benchmark::State& state) {
  const auto spec = data::dataset_spec(data::DatasetKind::MHealthLike);
  data::StreamCursor cursor(spec, 120, data::reference_user(), 3);
  const auto reads = static_cast<std::size_t>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    if (i == cursor.size()) {
      cursor.reset();
      i = 0;
    }
    const data::SlotSample& slot = cursor.slot(i++);
    for (std::size_t s = 0; s < reads; ++s) {
      benchmark::DoNotOptimize(slot.window(s).data());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowSynthesisBatch)->Arg(1)->Arg(3);

/// Materializing a full stream up front — what every job paid pre-cursor.
void BM_StreamMaterialize(benchmark::State& state) {
  const auto spec = data::dataset_spec(data::DatasetKind::MHealthLike);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        data::make_stream(spec, 120, data::reference_user(), seed++));
  }
  state.SetItemsProcessed(state.iterations() * 120 * data::kNumSensors);
}
BENCHMARK(BM_StreamMaterialize);

/// The same stream consumed through a recycled cursor ring (the fleet
/// runtime's per-job setup + drain): O(ring) working set, no per-job
/// stream allocation.
void BM_StreamCursorDrain(benchmark::State& state) {
  const auto spec = data::dataset_spec(data::DatasetKind::MHealthLike);
  data::StreamCursor cursor(spec, 120);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cursor.rebind(data::reference_user(), seed++);
    for (std::size_t i = 0; i < cursor.size(); ++i) {
      const data::SlotSample& slot = cursor.slot(i);
      for (std::size_t s = 0; s < data::kNumSensors; ++s) {
        benchmark::DoNotOptimize(slot.window(s).data());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * 120 * data::kNumSensors);
}
BENCHMARK(BM_StreamCursorDrain);

void BM_MajorityVote(benchmark::State& state) {
  const std::vector<core::Ballot> ballots = {
      {1, 1.0, 0.0}, {2, 1.0, 1.0}, {1, 1.0, 2.0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::majority_vote(ballots, 6));
  }
}
BENCHMARK(BM_MajorityVote);

void BM_WeightedVote(benchmark::State& state) {
  const std::vector<core::Ballot> ballots = {
      {1, 0.08, 0.0}, {2, 0.11, 1.0}, {1, 0.02, 2.0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::weighted_majority_vote(ballots, 6));
  }
}
BENCHMARK(BM_WeightedVote);

void BM_SchedulerPlan(benchmark::State& state) {
  core::RankTable ranks(6);
  core::AASPolicy policy(core::ExtendedRoundRobin(12), ranks);
  core::SlotContext ctx;
  ctx.slot = 0;
  for (auto& n : ctx.nodes) {
    n.stored_j = 1.0;
    n.cost_j = 0.5;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.plan(ctx));
    ctx.slot = (ctx.slot + 1) % 1200;
  }
}
BENCHMARK(BM_SchedulerPlan);

void BM_EnergyEstimate(benchmark::State& state) {
  auto net = deployed_net();
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::estimate_cost(net, {6, 64}));
  }
}
BENCHMARK(BM_EnergyEstimate);

void BM_PowerTraceEnergyLookup(benchmark::State& state) {
  const auto trace = energy::PowerTrace::generate_wifi_office({}, 5);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace.energy_between(t, t + 0.5));
    t += 0.5;
    if (t > 1e6) t = 0.0;
  }
}
BENCHMARK(BM_PowerTraceEnergyLookup);

/// The deployed MHEALTH-like BL-2 nets (model cache, trained on first
/// use) and a full fine-tune buffer of one user's stream windows: what a
/// serving shard's Personalizer works on. Built on first use, so the
/// other benchmarks never pay for it.
struct PersonalizeInputs {
  sim::Experiment experiment{
      bench::default_config(data::DatasetKind::MHealthLike)};
  serve::PersonalizeConfig config;
  /// config.max_samples buffered slots, no fit run yet. Filled through
  /// buffer_step, as serving fills it; the state's synthesis context
  /// outlives the cursor.
  serve::PersonalizeState full;

  PersonalizeInputs() {
    data::StreamCursor cursor =
        experiment.make_cursor(data::reference_user(), 0x5EEDULL);
    auto models = experiment.system().bl2_copy();
    serve::Personalizer personalizer(experiment, models, config);
    for (std::size_t i = 0;
         full.buffer.size() < static_cast<std::size_t>(config.max_samples);
         ++i) {
      const int label = cursor.slot(i).label;
      personalizer.buffer_step(full, {i, label, label}, cursor);
    }
  }
};

const PersonalizeInputs& personalize_inputs() {
  static const PersonalizeInputs inputs;
  return inputs;
}

/// A shard's weight traffic when it serves a fine-tuned session next to
/// clean ones: load_base, then one session's realized delta.
void BM_PersonalizeLoad(benchmark::State& state) {
  const PersonalizeInputs& in = personalize_inputs();
  auto models = in.experiment.system().bl2_copy();
  serve::Personalizer personalizer(in.experiment, models, in.config);
  serve::PersonalizeState tuned = in.full;
  personalizer.run_fit(tuned, /*seed_offset=*/1, models);
  for (auto _ : state) {
    personalizer.load_base(models);
    personalizer.load(tuned, /*id=*/1, models);
    benchmark::DoNotOptimize(models[0].layer(models[0].layer_count() - 1));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PersonalizeLoad)->Unit(benchmark::kMicrosecond);

/// One served fine-tune on a full buffer, from base weights: per sensor
/// the synthesis of the fit's windows from their recipes, the
/// frozen-prefix panel, the tail fit and the delta realization.
void BM_PersonalizeFit(benchmark::State& state) {
  const PersonalizeInputs& in = personalize_inputs();
  auto models = in.experiment.system().bl2_copy();
  serve::Personalizer personalizer(in.experiment, models, in.config);
  for (auto _ : state) {
    state.PauseTiming();
    serve::PersonalizeState fit_state = in.full;
    personalizer.load_base(models);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        personalizer.run_fit(fit_state, /*seed_offset=*/1, models));
  }
}
BENCHMARK(BM_PersonalizeFit)->Unit(benchmark::kMillisecond);

/// Switches the kernel backend for the lifetime of one benchmark run and
/// restores the previous one after — the per-backend variants below leave
/// the process-global dispatch untouched for the static benchmarks.
class BackendScope {
 public:
  explicit BackendScope(const char* name)
      : prev_(nn::kernels::active_backend().name) {
    nn::kernels::set_backend(name);
  }
  ~BackendScope() { nn::kernels::set_backend(prev_); }
  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

 private:
  std::string prev_;
};

/// Registers `BM_<name><backend>` variants of the dispatch-sensitive
/// benchmarks for every backend available on this machine — the speedup
/// table in EXPERIMENTS.md compares these rows directly.
void register_backend_variants() {
  for (const nn::kernels::Backend* b : nn::kernels::available_backends()) {
    const std::string tag = std::string("<") + b->name + ">";
    benchmark::RegisterBenchmark(
        ("BM_InferenceBL1" + tag).c_str(), [b](benchmark::State& state) {
          BackendScope scope(b->name);
          BM_InferenceBL1(state);
        });
    benchmark::RegisterBenchmark(
        ("BM_PredictBatch" + tag).c_str(),
        [b](benchmark::State& state) {
          BackendScope scope(b->name);
          BM_PredictBatch(state);
        })
        ->Arg(32);
    benchmark::RegisterBenchmark(
        ("BM_WindowSynthesis" + tag).c_str(), [b](benchmark::State& state) {
          BackendScope scope(b->name);
          BM_WindowSynthesis(state);
        });
    benchmark::RegisterBenchmark(
        ("BM_NoiseFill" + tag).c_str(), [b](benchmark::State& state) {
          BackendScope scope(b->name);
          BM_NoiseFill(state);
        });
    benchmark::RegisterBenchmark(
        ("BM_WindowSynthesisBatch" + tag).c_str(),
        [b](benchmark::State& state) {
          BackendScope scope(b->name);
          BM_WindowSynthesisBatch(state);
        })
        ->Arg(3);
    // Panels of the repository benchmark: the BL-1 fleet's panel of 32
    // windows (conv1, conv2, dense1), the serve tier's pruned conv1 at 1
    // and 3 windows and its first Dense layer at 1-3 windows, and a
    // fine-tune fit's frozen-prefix conv1 over 96 buffered windows.
    auto* gemm = benchmark::RegisterBenchmark(
        ("BM_GemmBias" + tag).c_str(), [b](benchmark::State& state) {
          BackendScope scope(b->name);
          BM_GemmBias(state);
        });
    for (const auto& shape : std::vector<std::vector<std::int64_t>>{
             {20, 30, 1920}, {32, 100, 832}, {64, 416, 32},
             {15, 30, 60}, {15, 30, 180},
             {20, 260, 1}, {20, 260, 2}, {20, 260, 3},
             {15, 30, 5760}}) {
      gemm->Args(shape);
    }
  }
}

/// Reporter that captures each run's numbers so the custom main below
/// can feed them to bench::JsonReport, and forwards everything to
/// google-benchmark's own display reporter (so every display flag —
/// --benchmark_color, --benchmark_format, counters — works as usual).
class CaptureReporter : public benchmark::BenchmarkReporter {
 public:
  struct Row {
    std::string name;
    double real_ns;
    double cpu_ns;
    std::int64_t iterations;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      rows_.push_back({run.benchmark_name(), run.GetAdjustedRealTime(),
                       run.GetAdjustedCPUTime(),
                       static_cast<std::int64_t>(run.iterations)});
    }
    display_->ReportRuns(runs);
  }
  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void Finalize() override { display_->Finalize(); }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  /// Owned by the library.
  benchmark::BenchmarkReporter* display_ =
      benchmark::CreateDefaultDisplayReporter();
  std::vector<Row> rows_;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip the flags google-benchmark does not own (`--json <path>`,
  // `--backend <name>`) before benchmark::Initialize. --backend switches
  // the process-global dispatch (the static benchmarks + the goldens the
  // variants restore to); the per-backend variants cover every available
  // backend regardless.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && !std::strcmp(argv[i], "--json")) {
      ++i;
      continue;
    }
    if (i + 1 < argc && !std::strcmp(argv[i], "--backend")) {
      if (!origin::nn::kernels::set_backend(argv[i + 1])) {
        std::fprintf(stderr,
                     "micro_perf: unknown or unavailable backend '%s'\n",
                     argv[i + 1]);
        return 2;
      }
      ++i;
      continue;
    }
    if (i + 1 < argc && !std::strcmp(argv[i], "--bits")) {
      g_bits = std::atoi(argv[i + 1]);
      if (g_bits != 32 && (g_bits < 2 || g_bits > 8)) {
        std::fprintf(stderr,
                     "micro_perf: --bits must be 32 or in [2, 8], got %d\n",
                     g_bits);
        return 2;
      }
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  origin::bench::JsonReport report(argc, argv, "micro_perf");
  report.manifest().set("bits", g_bits);
  register_backend_variants();
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (report) {
    util::AsciiTable table({"benchmark", "real_ns", "cpu_ns", "iterations"});
    for (const auto& row : reporter.rows()) {
      table.add_row({row.name, util::AsciiTable::format(row.real_ns, 1),
                     util::AsciiTable::format(row.cpu_ns, 1),
                     std::to_string(row.iterations)});
    }
    report.add_table("micro_perf", table);
    report.write();
  }
  return 0;
}
