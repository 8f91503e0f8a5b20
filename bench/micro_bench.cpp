/// Google-benchmark microbenchmarks of the substrate operations that
/// dominate the reproduction's runtime: training steps, integer
/// inference, netlist generation, gate-level simulation, the area proxy,
/// and one full GA candidate evaluation — plus a batch-evaluation
/// throughput measurement (serial vs parallel, proxy vs netlist) that
/// writes BENCH_eval.json to track the evaluation-layer perf trajectory.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>

#include "pnm/core/dense_reference.hpp"
#include "pnm/core/eval.hpp"
#include "pnm/core/flow.hpp"
#include "pnm/core/infer_simd.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/nn/dense_simd.hpp"
#include "pnm/util/build_info.hpp"
#include "pnm/data/scaler.hpp"
#include "pnm/data/synth.hpp"
#include "pnm/hw/bespoke.hpp"
#include "pnm/hw/proxy.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/util/bits.hpp"
#include "pnm/util/rng.hpp"
#include "pnm/util/thread_pool.hpp"

namespace {

using namespace pnm;

struct Fixture {
  Dataset data;
  DataSplit split;
  Mlp model;
  QuantizedMlp qmodel;

  static const Fixture& get() {
    static const Fixture f = [] {
      Fixture fx;
      fx.data = make_seeds(1);
      Rng rng(2);
      fx.split = stratified_split(fx.data, 0.7, 0.0, 0.3, rng);
      MinMaxScaler scaler;
      scale_split(fx.split, scaler);
      fx.model = Mlp({7, 4, 3}, rng);
      TrainConfig tc;
      tc.epochs = 20;
      Trainer(tc).fit(fx.model, fx.split.train, rng);
      fx.qmodel = QuantizedMlp::from_float(fx.model, QuantSpec::uniform(2, 4, 4));
      return fx;
    }();
    return f;
  }
};

void BM_TrainEpoch(benchmark::State& state) {
  const auto& fx = Fixture::get();
  Mlp model = fx.model;
  TrainConfig tc;
  tc.epochs = 1;
  Rng rng(3);
  for (auto _ : state) {
    Trainer trainer(tc);
    trainer.fit(model, fx.split.train, rng);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.split.train.size()));
}
BENCHMARK(BM_TrainEpoch);

void BM_FloatInference(benchmark::State& state) {
  const auto& fx = Fixture::get();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.model.predict(fx.split.test.x[i % fx.split.test.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FloatInference);

void BM_IntegerInference(benchmark::State& state) {
  const auto& fx = Fixture::get();
  const auto xq = quantize_input(fx.split.test.x[0], 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.qmodel.predict_quantized(xq));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IntegerInference);

void BM_IntegerInferenceScratch(benchmark::State& state) {
  const auto& fx = Fixture::get();
  const auto xq = quantize_input(fx.split.test.x[0], 4);
  InferScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.qmodel.predict_quantized_into(xq, scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IntegerInferenceScratch);

void BM_BespokeGeneration(benchmark::State& state) {
  const auto& fx = Fixture::get();
  for (auto _ : state) {
    hw::BespokeCircuit circuit(fx.qmodel);
    benchmark::DoNotOptimize(circuit.netlist().gate_count());
  }
}
BENCHMARK(BM_BespokeGeneration);

void BM_GateLevelSimulation(benchmark::State& state) {
  const auto& fx = Fixture::get();
  const hw::BespokeCircuit circuit(fx.qmodel);
  const auto xq = quantize_input(fx.split.test.x[0], 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit.predict(xq));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GateLevelSimulation);

void BM_AreaProxy(benchmark::State& state) {
  const auto& fx = Fixture::get();
  const auto& tech = hw::TechLibrary::egt();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hw::estimate_area_mm2(fx.qmodel, tech));
  }
}
BENCHMARK(BM_AreaProxy);

void BM_ExactArea(benchmark::State& state) {
  const auto& fx = Fixture::get();
  const auto& tech = hw::TechLibrary::egt();
  for (auto _ : state) {
    hw::BespokeCircuit circuit(fx.qmodel);
    benchmark::DoNotOptimize(circuit.area_mm2(tech));
  }
}
BENCHMARK(BM_ExactArea);

/// A prepared flow per dataset, trained once per process.
MinimizationFlow& bench_flow(const std::string& dataset = "seeds") {
  static std::map<std::string, MinimizationFlow> flows;
  auto it = flows.find(dataset);
  if (it == flows.end()) {
    FlowConfig config;
    config.dataset_name = dataset;
    config.train.epochs = 20;
    MinimizationFlow f(config);
    f.prepare();
    it = flows.emplace(dataset, std::move(f)).first;
  }
  return it->second;
}

void BM_GaCandidateEvaluation(benchmark::State& state) {
  auto& flow = bench_flow();
  Genome genome;
  genome.weight_bits = {4, 4};
  genome.sparsity_pct = {30, 30};
  genome.clusters = {3, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flow.evaluate_genome(genome, 2, /*exact_area=*/false, /*use_test_set=*/false));
  }
}
BENCHMARK(BM_GaCandidateEvaluation);

// ---- Batch-evaluation throughput (BENCH_eval.json) ----------------------
// A GA-generation-sized batch of distinct genomes through each cost
// backend, serial vs thread-parallel.  Parallel results are bit-identical
// to serial (per-genome RNG streams), so the speedup column is a pure
// throughput number, not a quality trade.

std::vector<Genome> batch_genomes(std::size_t n) {
  Rng rng(1234);
  const std::vector<int> sparsity_choices = {0, 10, 20, 30, 40, 50, 60, 70};
  const std::vector<int> cluster_choices = {0, 2, 3, 4, 6, 8};
  std::vector<Genome> genomes;
  genomes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Genome g;
    for (int layer = 0; layer < 2; ++layer) {
      g.weight_bits.push_back(rng.uniform_int(2, 8));
      g.sparsity_pct.push_back(
          sparsity_choices[rng.uniform_int(sparsity_choices.size())]);
      g.clusters.push_back(cluster_choices[rng.uniform_int(cluster_choices.size())]);
    }
    genomes.push_back(std::move(g));
  }
  return genomes;
}

struct EvalBenchRecord {
  std::string backend;
  std::string mode;
  std::size_t threads = 1;
  std::size_t machine_cores = 1;
  std::size_t genomes = 0;
  double seconds = 0.0;
  double genomes_per_sec = 0.0;
  double speedup_vs_serial = 1.0;
};

double timed_batch(Evaluator& evaluator, const std::vector<Genome>& genomes) {
  const auto start = std::chrono::steady_clock::now();
  const auto points = evaluator.evaluate_batch(genomes);
  const auto stop = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(points.size());
  return std::chrono::duration<double>(stop - start).count();
}

void run_eval_throughput_bench(const std::string& json_path) {
  auto& flow = bench_flow();
  // The parallel mode must actually fan out: hardware_concurrency workers,
  // recorded alongside the machine's core count so speedup_vs_serial is
  // interpretable (a 1.0x "speedup" on a 1-core runner is expected, not a
  // regression).
  const std::size_t machine_cores = ThreadPool::default_thread_count();
  const std::size_t threads = machine_cores;
  const std::vector<Genome> genomes = batch_genomes(24);

  ProxyEvaluator proxy = flow.proxy_evaluator(/*finetune_epochs=*/2);
  NetlistEvaluator netlist = flow.netlist_evaluator(/*finetune_epochs=*/2);

  std::vector<EvalBenchRecord> records;
  auto measure = [&](const std::string& backend, Evaluator& serial_eval) {
    // Warm-up evaluation outside the timed region (first-touch effects).
    serial_eval.evaluate(genomes.front());

    EvalBenchRecord serial;
    serial.backend = backend;
    serial.mode = "serial";
    serial.machine_cores = machine_cores;
    serial.genomes = genomes.size();
    serial.seconds = timed_batch(serial_eval, genomes);
    serial.genomes_per_sec = static_cast<double>(serial.genomes) / serial.seconds;
    records.push_back(serial);

    ParallelEvaluator parallel_eval(serial_eval, threads);
    EvalBenchRecord parallel;
    parallel.backend = backend;
    parallel.mode = "parallel";
    parallel.threads = parallel_eval.threads();
    parallel.machine_cores = machine_cores;
    parallel.genomes = genomes.size();
    parallel.seconds = timed_batch(parallel_eval, genomes);
    parallel.genomes_per_sec = static_cast<double>(parallel.genomes) / parallel.seconds;
    parallel.speedup_vs_serial = serial.seconds / parallel.seconds;
    records.push_back(parallel);
  };
  measure("proxy", proxy);
  measure("netlist", netlist);

  std::cout << "\n-- batch evaluation throughput (" << genomes.size()
            << " genomes, " << threads << " worker threads, " << machine_cores
            << " machine cores) --\n";
  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "error: cannot write " << json_path << '\n';
    return;
  }
  json << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const EvalBenchRecord& r = records[i];
    std::cout << "  " << r.backend << '/' << r.mode << ": " << r.genomes_per_sec
              << " genomes/sec";
    if (r.mode == "parallel") {
      std::cout << " (speedup vs serial " << r.speedup_vs_serial << "x on "
                << r.threads << " threads)";
    }
    std::cout << '\n';
    json << "  {\"bench\": \"eval_batch\", \"backend\": \"" << r.backend
         << "\", \"mode\": \"" << r.mode << "\", \"threads\": " << r.threads
         << ", \"machine_cores\": " << r.machine_cores
         << ", \"genomes\": " << r.genomes << ", \"seconds\": " << r.seconds
         << ", \"genomes_per_sec\": " << r.genomes_per_sec
         << ", \"speedup_vs_serial\": " << r.speedup_vs_serial << "}"
         << (i + 1 < records.size() ? "," : "") << '\n';
  }
  json << "]\n";
  std::cout << "(wrote " << json_path << ")\n";
}

// ---- Inference throughput (BENCH_infer.json) -----------------------------
// The quantized-inference engine is the fitness loop's hot path: every
// candidate's accuracy is one streaming pass over the reporting split.
// This bench realizes the netlist-backend eval batch's genomes once, then
// measures genome-scoring throughput five ways:
//   * seed_dense            — the seed implementation's algorithm,
//                             faithfully reconstructed: dense [out][in]
//                             weight rows, the dataset re-quantized
//                             sample-by-sample for every genome, fresh
//                             scratch vectors per sample;
//   * engine_single_sample  — the PR-3 flat-CSR engine: dataset
//                             pre-quantized once, one sample per layer
//                             pass, reused InferScratch;
//   * engine_blocked_scalar — the multi-sample engine on the scalar
//                             kernel: sample-blocked SoA layout, 8
//                             samples accumulated per weight visit;
//   * engine_blocked_simd   — the same blocked pass on the runtime-
//                             dispatched native kernel (AVX2/NEON);
//                             present only when a native ISA is active;
//   * engine_parallel       — the blocked engine (active ISA) fanned
//                             over hardware_concurrency threads.
// Every mode's per-genome accuracies must agree bit-exactly with the
// seed path (the engines are bit-exact by construction), and the blocked
// modes must actually be faster than single-sample on untimed-scaled
// builds — the bench fails (CI-red) on any violation.
//
// A second record family ("finetune_math") times the GA's fine-tuning
// stage (NetlistEvaluator::realize = quantize + STE fine-tune) with the
// libm softmax reference vs the vectorized fast-exp path, on seeds (3
// classes) and pendigits (10 classes, the largest softmax), and gates on
// front quality: mean realized-model accuracy under fast math must match
// libm within a declared tolerance (the trajectories are not
// bit-identical; the quality is).

struct InferBenchRecord {
  std::string mode;
  std::string isa;            ///< kernel the row dispatched to
  std::size_t sample_block = 1;
  std::size_t threads = 1;
  std::size_t machine_cores = 1;
  std::size_t genomes = 0;
  std::size_t samples = 0;  ///< reporting-split size (per genome pass)
  double seconds = 0.0;
  double genomes_per_sec = 0.0;
  double samples_per_sec = 0.0;
  double speedup_vs_seed_serial = 1.0;
  double speedup_vs_single_sample = 1.0;
};

// ---- Trainer block kernels (trainer_kernels rows in BENCH_infer.json) ----
// A third record family times one 8-sample block of each dense_simd block
// kernel (layer_fwd8, layer_grad8, layer_back8, softmax_xent8) at every
// layer shape of the four paper topologies, on the scalar table and on the
// active native table.  The two tables must agree bit for bit on every
// kernel and shape (the determinism contract); a mismatch fails the bench.

struct TrainerTopology {
  const char* dataset;
  std::vector<unsigned long> sizes;  ///< inputs, hidden..., classes
};

/// Fastest of five timed runs of `reps` calls, in ns per call.
template <class Body>
double ns_per_call(int reps, Body&& body) {
  double best = 0.0;
  for (int run = 0; run < 5; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) body();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count() / reps;
    if (run == 0 || ns < best) best = ns;
  }
  return best;
}

/// Appends the trainer_kernels rows (each preceded by ",\n") to `json`;
/// returns false when a native kernel's output differs from the scalar
/// table's.
bool write_trainer_kernel_rows(std::ostream& json, std::size_t machine_cores) {
  using simd::DenseKernels;
  constexpr unsigned long kB = simd::kDenseBlock;
  constexpr int kReps = 4000;
  const std::vector<TrainerTopology> topologies = {
      {"seeds", {7, 4, 3}},
      {"redwine", {11, 6, 6}},
      {"whitewine", {11, 8, 7}},
      {"pendigits", {16, 10, 10}},
  };
  const DenseKernels& scalar = *simd::dense_kernels_for(simd::Isa::kScalar);
  const simd::Isa isa = simd::active_isa();
  const DenseKernels* native =
      isa != simd::Isa::kScalar ? simd::dense_kernels_for(isa) : nullptr;
  Rng rng(29);
  const auto random_vec = [&rng](std::size_t n) {
    std::vector<double> v(n);
    for (double& e : v) e = rng.normal();
    return v;
  };

  bool all_exact = true;
  std::cout << "  trainer_kernels: ns per 8-sample block (scalar"
            << (native != nullptr ? std::string(" / ") + simd::isa_name(isa) : "")
            << ")\n";
  // run(table, out) calls one kernel of `table`, writing into `out`, which
  // starts as a copy of `init`.  The native result must equal the scalar
  // one bit for bit; then each table is timed on its own copy.
  const auto measure = [&](const char* dataset, const char* kernel, unsigned long rows,
                           unsigned long cols, const std::vector<double>& init,
                           auto&& run) {
    std::vector<double> out_s = init, out_v = init;
    run(scalar, out_s);
    if (native != nullptr) run(*native, out_v);
    const bool exact = native == nullptr ||
                       std::memcmp(out_s.data(), out_v.data(),
                                   out_s.size() * sizeof(double)) == 0;
    all_exact = all_exact && exact;
    const auto time = [&](const DenseKernels& t, std::vector<double>& out) {
      return ns_per_call(kReps, [&] {
        run(t, out);
        benchmark::ClobberMemory();
      });
    };
    const double ns_scalar = time(scalar, out_s);
    std::cout << "    " << dataset << ' ' << kernel << ' ' << rows << 'x' << cols
              << ": " << ns_scalar;
    const auto emit = [&](const char* row_isa, double ns) {
      json << ",\n  {\"bench\": \"trainer_kernels\", \"dataset\": \"" << dataset
           << "\", \"kernel\": \"" << kernel << "\", \"rows\": " << rows
           << ", \"cols\": " << cols << ", \"isa\": \"" << row_isa
           << "\", \"machine_cores\": " << machine_cores
           << ", \"ns_per_block\": " << ns << ", \"speedup_vs_scalar\": " << ns_scalar / ns
           << ", \"bit_exact\": " << (exact ? "true" : "false") << "}";
    };
    emit(simd::isa_name(simd::Isa::kScalar), ns_scalar);
    if (native != nullptr) {
      const double ns_native = time(*native, out_v);
      std::cout << " / " << ns_native << " (" << ns_scalar / ns_native << "x)";
      emit(simd::isa_name(isa), ns_native);
    }
    std::cout << (exact ? "" : "  NOT BIT-EXACT (BUG)") << '\n';
  };

  for (const TrainerTopology& topo : topologies) {
    for (std::size_t li = 0; li + 1 < topo.sizes.size(); ++li) {
      const unsigned long cols = topo.sizes[li];
      const unsigned long rows = topo.sizes[li + 1];
      const std::vector<double> w = random_vec(rows * cols);
      const std::vector<double> bias = random_vec(rows);
      const std::vector<double> in = random_vec(cols * kB);
      const std::vector<double> delta = random_vec(rows * kB);
      measure(topo.dataset, "layer_fwd8", rows, cols, std::vector<double>(rows * kB),
              [&](const DenseKernels& t, std::vector<double>& out) {
                t.layer_fwd8(w.data(), bias.data(), in.data(), out.data(), rows, cols);
              });
      // gw and gb share one buffer: rows*cols weights, then rows biases.
      measure(topo.dataset, "layer_grad8", rows, cols, random_vec(rows * cols + rows),
              [&](const DenseKernels& t, std::vector<double>& out) {
                t.layer_grad8(delta.data(), in.data(), out.data(), out.data() + rows * cols,
                              rows, cols);
              });
      measure(topo.dataset, "layer_back8", rows, cols, std::vector<double>(cols * kB),
              [&](const DenseKernels& t, std::vector<double>& out) {
                t.layer_back8(w.data(), delta.data(), out.data(), rows, cols);
              });
    }
    // Softmax over the output layer's logits; the loss lands after delta.
    const unsigned long n_out = topo.sizes.back();
    const std::vector<double> z = random_vec(n_out * kB);
    std::vector<unsigned long> labels(kB);
    for (unsigned long j = 0; j < kB; ++j) labels[j] = j % n_out;
    measure(topo.dataset, "softmax_xent8", n_out, kB, std::vector<double>(n_out * kB + 1),
            [&](const DenseKernels& t, std::vector<double>& out) {
              out[n_out * kB] = t.softmax_xent8(z.data(), labels.data(), kB, n_out, out.data());
            });
  }
  return all_exact;
}

bool run_infer_throughput_bench(const std::string& json_path) {
  auto& flow = bench_flow();
  const std::size_t machine_cores = ThreadPool::default_thread_count();
  const std::vector<Genome> genomes = batch_genomes(24);
  const Dataset& val = flow.data().val;
  const QuantizedDataset qval = quantize_dataset(val, flow.config().input_bits);
  // The PR-3 engine measured honestly: same data, no blocked layout, so
  // accuracy() takes the single-sample path.
  QuantizedDataset qval_single = qval;
  qval_single.xb.clear();

  const simd::Isa isa = simd::active_isa();
  const bool native_isa = isa != simd::Isa::kScalar;
  // Speed gates only bind on untimed-scaled builds (sanitizers distort
  // kernel-relative timings); correctness gates always bind.
  const bool timed_build = pnm::build_info::timing_multiplier() == 1;

  // Realize the eval batch's integer models once (untimed): this bench
  // isolates the inference stage the tentpole rebuilt, not the training
  // pipeline around it.
  NetlistEvaluator netlist = flow.netlist_evaluator(/*finetune_epochs=*/2);
  std::vector<QuantizedMlp> models;
  models.reserve(genomes.size());
  for (const Genome& g : genomes) models.push_back(netlist.realize(g));
  std::vector<DenseReferenceModel> seed_models;
  seed_models.reserve(models.size());
  for (const QuantizedMlp& q : models) seed_models.emplace_back(q);

  // Bit-exactness gate: every per-sample prediction of the flat engine
  // must equal the seed dense implementation's.
  bool bit_exact = true;
  {
    InferScratch scratch;
    for (std::size_t m = 0; m < models.size(); ++m) {
      for (std::size_t i = 0; i < val.size(); ++i) {
        const std::size_t engine_pred =
            models[m].predict_quantized_into(qval.sample(i), scratch);
        if (engine_pred != seed_models[m].predict(val.x[i])) bit_exact = false;
      }
    }
  }

  // Several passes so per-mode wall time is well above timer resolution.
  constexpr int kPasses = 150;
  const auto timed_passes = [&](auto&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int p = 0; p < kPasses; ++p) body();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count() / kPasses;
  };

  std::vector<double> acc_seed(models.size()), acc_single(models.size()),
      acc_bscalar(models.size()), acc_bsimd(models.size()),
      acc_parallel(models.size());

  const double sec_seed = timed_passes([&] {
    for (std::size_t m = 0; m < models.size(); ++m) {
      acc_seed[m] = seed_models[m].accuracy(val);
    }
  });
  const double sec_single = timed_passes([&] {
    for (std::size_t m = 0; m < models.size(); ++m) {
      acc_single[m] = models[m].accuracy(qval_single);
    }
  });
  const double sec_bscalar = timed_passes([&] {
    for (std::size_t m = 0; m < models.size(); ++m) {
      acc_bscalar[m] = models[m].accuracy_blocked(qval, simd::Isa::kScalar);
    }
  });
  double sec_bsimd = 0.0;
  if (native_isa) {
    sec_bsimd = timed_passes([&] {
      for (std::size_t m = 0; m < models.size(); ++m) {
        acc_bsimd[m] = models[m].accuracy_blocked(qval, isa);
      }
    });
  } else {
    acc_bsimd = acc_bscalar;  // no native kernel: nothing extra to compare
  }
  ThreadPool pool(machine_cores);
  const double sec_parallel = timed_passes([&] {
    pool.parallel_for(models.size(), [&](std::size_t m) {
      acc_parallel[m] = models[m].accuracy(qval);
    });
  });

  // Every engine and the seed must score every genome identically.
  bool modes_agree = true;
  for (std::size_t m = 0; m < models.size(); ++m) {
    if (acc_single[m] != acc_seed[m] || acc_bscalar[m] != acc_seed[m] ||
        acc_bsimd[m] != acc_seed[m] || acc_parallel[m] != acc_seed[m]) {
      modes_agree = false;
    }
  }

  const auto record = [&](const std::string& mode, const char* row_isa,
                          std::size_t sample_block, std::size_t threads,
                          double seconds) {
    InferBenchRecord r;
    r.mode = mode;
    r.isa = row_isa;
    r.sample_block = sample_block;
    r.threads = threads;
    r.machine_cores = machine_cores;
    r.genomes = models.size();
    r.samples = val.size();
    r.seconds = seconds;
    r.genomes_per_sec = static_cast<double>(r.genomes) / seconds;
    r.samples_per_sec =
        static_cast<double>(r.genomes * r.samples) / seconds;
    r.speedup_vs_seed_serial = sec_seed / seconds;
    r.speedup_vs_single_sample = sec_single / seconds;
    return r;
  };
  const char* scalar_name = simd::isa_name(simd::Isa::kScalar);
  const char* active_name = simd::isa_name(isa);
  std::vector<InferBenchRecord> records = {
      record("seed_dense", scalar_name, 1, 1, sec_seed),
      record("engine_single_sample", scalar_name, 1, 1, sec_single),
      record("engine_blocked_scalar", scalar_name, simd::kSampleBlock, 1, sec_bscalar),
  };
  if (native_isa) {
    records.push_back(
        record("engine_blocked_simd", active_name, simd::kSampleBlock, 1, sec_bsimd));
  }
  records.push_back(record("engine_parallel", active_name, simd::kSampleBlock,
                           machine_cores, sec_parallel));

  // Perf-regression gates on the tentpole's claims (modest floors; the
  // snapshots record the actual factors).  Blocked-scalar must not lose
  // to single-sample, and the native kernel must add a real multiplier.
  bool speed_ok = true;
  if (timed_build) {
    if (sec_bscalar > sec_single * 1.05) {
      std::cerr << "FAIL: blocked-scalar slower than single-sample ("
                << sec_single / sec_bscalar << "x)\n";
      speed_ok = false;
    }
    if (native_isa && sec_bsimd * 1.5 > sec_single) {
      std::cerr << "FAIL: " << active_name << " blocked speedup "
                << sec_single / sec_bsimd << "x vs single-sample, need >= 1.5x\n";
      speed_ok = false;
    }
  }

  std::cout << "\n-- inference throughput on the netlist-backend eval batch ("
            << models.size() << " genomes x " << val.size() << " samples, "
            << machine_cores << " machine cores, active isa " << active_name
            << ") --\n";
  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "error: cannot write " << json_path << '\n';
    return false;
  }
  json << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const InferBenchRecord& r = records[i];
    std::cout << "  " << r.mode << " [" << r.isa << "]: " << r.genomes_per_sec
              << " genomes/sec, " << r.samples_per_sec << " samples/sec ("
              << r.speedup_vs_seed_serial << "x vs seed, "
              << r.speedup_vs_single_sample << "x vs single-sample)\n";
    json << "  {\"bench\": \"infer_throughput\", \"mode\": \"" << r.mode
         << "\", \"isa\": \"" << r.isa
         << "\", \"sample_block\": " << r.sample_block
         << ", \"threads\": " << r.threads
         << ", \"machine_cores\": " << r.machine_cores
         << ", \"genomes\": " << r.genomes << ", \"samples\": " << r.samples
         << ", \"seconds\": " << r.seconds
         << ", \"genomes_per_sec\": " << r.genomes_per_sec
         << ", \"samples_per_sec\": " << r.samples_per_sec
         << ", \"speedup_vs_seed_serial\": " << r.speedup_vs_seed_serial
         << ", \"speedup_vs_single_sample\": " << r.speedup_vs_single_sample
         << ", \"bit_exact\": " << (bit_exact ? "true" : "false")
         << ", \"modes_agree\": " << (modes_agree ? "true" : "false") << "},\n";
  }

  // ---- Fine-tuning wall time: scalar+libm baseline vs vectorized -------
  // "scalar_libm" reconstructs the pre-SIMD trainer (per-sample backprop,
  // scalar dense kernels, libm softmax); "simd_fast" is the shipped
  // default (sample-blocked backprop, active-ISA dense kernels, lane-
  // parallel fast softmax).  Both fine-tune the same genome batch through
  // NetlistEvaluator::realize; quality is gated, speed is gated on
  // untimed-scaled native-ISA builds.
  constexpr int kFtPasses = 3;
  constexpr double kFrontQualityTolerance = 0.05;
  bool ft_quality_ok = true;
  bool ft_speed_ok = true;
  bool first_ft_row = true;
  for (const std::string dataset : {"seeds", "pendigits"}) {
    auto& ft_flow = bench_flow(dataset);
    NetlistEvaluator ft_netlist = ft_flow.netlist_evaluator(/*finetune_epochs=*/2);
    const QuantizedDataset ft_qval =
        quantize_dataset(ft_flow.data().val, ft_flow.config().input_bits);
    std::vector<double> ft_acc_base, ft_acc_simd;
    const auto timed_realizes = [&](bool vectorized, std::vector<double>& accs) {
      const bool saved = softmax_fast_math();
      set_softmax_fast_math(vectorized);
      set_blocked_backprop(vectorized);
      simd::force_dense_kernels(vectorized ? isa : simd::Isa::kScalar);
      accs.clear();
      const auto t0 = std::chrono::steady_clock::now();
      for (int p = 0; p < kFtPasses; ++p) {
        for (const Genome& g : genomes) {
          const QuantizedMlp q = ft_netlist.realize(g);
          if (p == 0) accs.push_back(q.accuracy(ft_qval));
        }
      }
      const auto t1 = std::chrono::steady_clock::now();
      set_softmax_fast_math(saved);
      set_blocked_backprop(true);
      simd::reset_dense_kernels();
      return std::chrono::duration<double>(t1 - t0).count() / kFtPasses;
    };
    const double sec_ft_base = timed_realizes(false, ft_acc_base);
    const double sec_ft_simd = timed_realizes(true, ft_acc_simd);
    const double ft_speedup = sec_ft_base / sec_ft_simd;

    double mean_base = 0.0, mean_simd = 0.0;
    for (double a : ft_acc_base) mean_base += a;
    for (double a : ft_acc_simd) mean_simd += a;
    mean_base /= static_cast<double>(ft_acc_base.size());
    mean_simd /= static_cast<double>(ft_acc_simd.size());
    const double ft_quality_delta = mean_simd - mean_base;
    // Front-quality gate: vectorized fine-tuning must land at the same mean
    // realized accuracy (declared accuracy-neutral, not bit-identical —
    // fast softmax perturbs trajectories; the dense kernels do not).
    const bool quality_ok = std::abs(ft_quality_delta) <= kFrontQualityTolerance;
    ft_quality_ok = ft_quality_ok && quality_ok;
    if (timed_build && native_isa && sec_ft_simd * 1.2 > sec_ft_base) {
      std::cerr << "FAIL: " << dataset << " vectorized fine-tuning speedup "
                << ft_speedup << "x vs scalar+libm, need >= 1.2x\n";
      ft_speed_ok = false;
    }

    std::cout << "  finetune_math " << dataset << ": scalar_libm " << sec_ft_base
              << "s, simd_fast " << sec_ft_simd << "s per pass (" << ft_speedup
              << "x), mean realized accuracy " << mean_base << " -> " << mean_simd
              << " (delta " << ft_quality_delta << ")\n";
    const auto ft_row = [&](const char* mode, const char* row_isa, double seconds,
                            double mean_acc) {
      // The engine rows above end with a comma; these are joined here.
      json << (first_ft_row ? "" : ",\n");
      first_ft_row = false;
      json << "  {\"bench\": \"finetune_math\", \"dataset\": \"" << dataset
           << "\", \"mode\": \"" << mode << "\", \"isa\": \"" << row_isa
           << "\", \"machine_cores\": " << machine_cores
           << ", \"genomes\": " << genomes.size()
           << ", \"finetune_epochs\": 2, \"seconds\": " << seconds
           << ", \"speedup_vs_baseline\": " << sec_ft_base / seconds
           << ", \"mean_realized_accuracy\": " << mean_acc
           << ", \"quality_delta_vs_baseline\": " << ft_quality_delta
           << ", \"quality_ok\": " << (quality_ok ? "true" : "false") << "}";
    };
    ft_row("scalar_libm", scalar_name, sec_ft_base, mean_base);
    ft_row("simd_fast", active_name, sec_ft_simd, mean_simd);
  }
  const bool kernels_exact = write_trainer_kernel_rows(json, machine_cores);
  json << "\n]\n";

  std::cout << "  bit-exact vs seed path: " << (bit_exact ? "yes" : "NO (BUG)")
            << ", all engine accuracies agree: "
            << (modes_agree ? "yes" : "NO (BUG)") << ", front quality: "
            << (ft_quality_ok ? "ok" : "NO (BUG)") << ", trainer kernels bit-exact: "
            << (kernels_exact ? "yes" : "NO (BUG)") << '\n';
  std::cout << "(wrote " << json_path << ")\n";
  return bit_exact && modes_agree && speed_ok && ft_quality_ok && ft_speed_ok &&
         kernels_exact;
}

// ---- MCM adder-graph sharing (BENCH_mcm.json) ---------------------------
// The headline-metric bench for hw/mcm.hpp: run the (reduced) Fig. 2 GA
// per dataset, realize every front genome, and regenerate its exact
// bespoke circuit with cross-coefficient adder-graph sharing off vs on.
// Records product-stage adders and exact area before/after, plus a
// gate-level bit-exactness check of the shared circuits against the
// integer golden model.

struct McmBenchRecord {
  std::string dataset;
  std::size_t front_designs = 0;
  std::size_t adders_unshared = 0;
  std::size_t adders_shared = 0;
  double area_unshared = 0.0;
  double area_shared = 0.0;
  bool bit_exact = true;
};

/// Returns false when a hard guarantee is violated (lost bit-exactness,
/// or a shared plan with more adders than the independent chains), so CI
/// fails instead of silently uploading a bad record.
bool run_mcm_sharing_bench(const std::string& json_path) {
  bool ok = true;
  std::vector<McmBenchRecord> records;
  for (const std::string dataset : {"whitewine", "redwine", "pendigits", "seeds"}) {
    FlowConfig config;
    config.dataset_name = dataset;
    config.train.epochs = 30;
    config.finetune_epochs = 5;
    MinimizationFlow flow(config);
    flow.prepare();

    GaConfig ga;
    ga.population = 16;
    ga.generations = 8;
    ProxyEvaluator proxy = flow.proxy_evaluator(/*finetune_epochs=*/2);
    ParallelEvaluator fitness(proxy);
    const auto outcome = flow.run_ga(fitness, ga);

    McmBenchRecord rec;
    rec.dataset = dataset;
    Rng rng(2024);
    for (const auto& member : outcome.raw.front) {
      const QuantizedMlp qmodel =
          flow.realize_genome(member.genome, config.finetune_epochs);
      // Controlled comparison: identical model and options except the
      // sharing knob (share_products on for both so the coefficient set
      // exists to share across).
      hw::BespokeOptions unshared;
      hw::BespokeOptions shared;
      shared.share_subexpressions = true;
      const hw::BespokeCircuit before(qmodel, unshared);
      const hw::BespokeCircuit after(qmodel, shared);
      rec.adders_unshared += before.product_adder_count();
      rec.adders_shared += after.product_adder_count();
      rec.area_unshared += before.area_mm2(flow.tech());
      rec.area_shared += after.area_mm2(flow.tech());
      // Netlist simulation must stay bit-exact with QuantizedMlp.
      const std::int64_t xmax = unsigned_max(config.input_bits);
      for (int trial = 0; trial < 16; ++trial) {
        std::vector<std::int64_t> xq(qmodel.input_size());
        for (auto& v : xq) {
          v = static_cast<std::int64_t>(
              rng.uniform_int(static_cast<std::uint64_t>(xmax) + 1));
        }
        if (after.predict(xq) != qmodel.predict_quantized(xq)) rec.bit_exact = false;
      }
      ++rec.front_designs;
    }
    records.push_back(rec);
  }

  std::cout << "\n-- MCM adder-graph sharing on GA fronts (exact circuits) --\n";
  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "error: cannot write " << json_path << '\n';
    return false;
  }
  json << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const McmBenchRecord& r = records[i];
    const double adder_red =
        r.adders_unshared > 0
            ? 100.0 * (1.0 - static_cast<double>(r.adders_shared) /
                                 static_cast<double>(r.adders_unshared))
            : 0.0;
    const double area_red =
        r.area_unshared > 0.0 ? 100.0 * (1.0 - r.area_shared / r.area_unshared) : 0.0;
    std::cout << "  " << r.dataset << ": front=" << r.front_designs
              << " product adders " << r.adders_unshared << " -> " << r.adders_shared
              << " (-" << adder_red << "%), area " << r.area_unshared << " -> "
              << r.area_shared << " mm^2 (-" << area_red << "%), bit-exact: "
              << (r.bit_exact ? "yes" : "NO (BUG)") << '\n';
    if (!r.bit_exact || r.adders_shared > r.adders_unshared) {
      ok = false;  // hard guarantees: bit-exactness, adders never grow
    }
    if (r.adders_shared >= r.adders_unshared || r.area_shared >= r.area_unshared) {
      std::cout << "  WARNING: sharing did not strictly reduce adders/area on "
                << r.dataset << '\n';
    }
    json << "  {\"bench\": \"mcm_sharing\", \"dataset\": \"" << r.dataset
         << "\", \"front_designs\": " << r.front_designs
         << ", \"product_adders_unshared\": " << r.adders_unshared
         << ", \"product_adders_shared\": " << r.adders_shared
         << ", \"adder_reduction_pct\": " << adder_red
         << ", \"area_mm2_unshared\": " << r.area_unshared
         << ", \"area_mm2_shared\": " << r.area_shared
         << ", \"area_reduction_pct\": " << area_red
         << ", \"bit_exact\": " << (r.bit_exact ? "true" : "false") << "}"
         << (i + 1 < records.size() ? "," : "") << '\n';
  }
  json << "]\n";
  std::cout << "(wrote " << json_path << ")\n";
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool list_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--benchmark_list_tests") {
      list_only = true;
    } else if (arg.rfind("--benchmark_list_tests=", 0) == 0) {
      const std::string value = arg.substr(arg.find('=') + 1);
      list_only = (value != "false" && value != "0");
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!list_only) {
    run_eval_throughput_bench("BENCH_eval.json");
    if (!run_infer_throughput_bench("BENCH_infer.json")) return 1;
    if (!run_mcm_sharing_bench("BENCH_mcm.json")) return 1;
  }
  return 0;
}
