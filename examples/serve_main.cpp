/// serve_main — the inference-as-a-service CLI.
///
/// One binary, four roles (all speaking the serve wire protocol):
///
///   Train a deployable design (QAT at a fixed precision, saved as a
///   pnm-model v1 file):
///     serve_main --train-model pendigits --out model_a.pnm
///                [--weight-bits 5] [--input-bits 4] [--hidden 10]
///                [--train-epochs 30] [--seed 1]
///
///   Serve it (runs until SIGINT/SIGTERM; SIGHUP hot-swaps the file named
///   by --swap-file, or re-loads the default model when it is omitted).
///   --model repeats: a plain path is the default model, NAME=FILE
///   registers an additional named model (protocol-v2 clients route by
///   name).  --reactors N runs N SO_REUSEPORT accept+IO loops on the port.
///   A batch departs at once when no other batch is in flight;
///   --batch-deadline-us only caps how long a batch may coalesce behind
///   an in-flight one (counted from its oldest request), so a lone
///   request never waits it out:
///     serve_main --model model_a.pnm [--model beta=model_b.pnm]
///                --port 9000 [--reactors 2] [--batch-max 32]
///                [--batch-deadline-us 200] [--threads 2]
///                [--swap-file model_b.pnm | --swap-file beta=model_c.pnm]
///
///   Drive it open-loop (paced offered rate; with --verify every response
///   is checked bit-exactly against the offline prediction of the design
///   version that served it — nonzero exit on any violation).
///   --model-name NAME switches to protocol-v2 frames routed to that
///   model (swaps then target it too):
///     serve_main --loadgen --port 9000 --model model_a.pnm
///                [--model-name beta] [--rate 5000] [--requests 10000]
///                [--swap-at 2000=model_b.pnm] [--verify 2=model_b.pnm]
///
///   Poke a running server (--swap accepts NAME=FILE for named models):
///     serve_main --stats --port 9000
///     serve_main --swap model_b.pnm --port 9000
///     serve_main --swap beta=model_c.pnm --port 9000
///
/// The loadgen's --model names the design the *first* version serves: it
/// sizes the random [0,1] feature vectors and seeds the verify map with
/// version 1.  Later versions come from --verify entries.  Versions are
/// per model name, so a loadgen with --model-name verifies that model's
/// own sequence.
///
/// This binary links only the pnm_infer engine library — serving a design
/// needs none of the minimization stack.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fcntl.h>
#include <iostream>
#include <map>
#include <poll.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "pnm/core/model_io.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/data/scaler.hpp"
#include "pnm/data/synth.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/serve/client.hpp"
#include "pnm/serve/server.hpp"
#include "pnm/util/rng.hpp"

namespace {

// Signal plumbing: the handler only sets sig_atomic_t flags and writes
// one byte to a self-pipe (both async-signal-safe) — no allocation, no
// locking, no iostream.  The serve loop blocks on the pipe's read end,
// so a SIGHUP swap happens immediately instead of on the next tick of a
// sleep poll, and the model load/logging all run in the main thread.
volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_hup = 0;
int g_wake_pipe[2] = {-1, -1};

void on_signal(int sig) {
  if (sig == SIGHUP) {
    g_hup = 1;
  } else {
    g_stop = 1;
  }
  const int saved_errno = errno;
  const unsigned char byte = 0;
  // A full pipe (EAGAIN) just means a wakeup is already pending.
  [[maybe_unused]] const ssize_t rc = write(g_wake_pipe[1], &byte, 1);
  errno = saved_errno;
}

bool install_signal_handlers() {
  if (pipe(g_wake_pipe) != 0) return false;
  for (const int fd : g_wake_pipe) {
    const int flags = fcntl(fd, F_GETFL, 0);
    if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) return false;
  }
  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;  // only the self-pipe interrupts the serve loop
  return sigaction(SIGINT, &sa, nullptr) == 0 &&
         sigaction(SIGTERM, &sa, nullptr) == 0 &&
         sigaction(SIGHUP, &sa, nullptr) == 0;
}

struct Args {
  std::map<std::string, std::string> values;
  std::vector<std::string> models;                                  // serve: every --model
  std::vector<std::pair<std::size_t, std::string>> swap_at;         // loadgen
  std::map<std::uint32_t, std::string> verify;                      // loadgen

  bool has(const std::string& key) const { return values.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  long num(const std::string& key, long fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : std::stol(it->second);
  }
};

bool parse_args(int argc, char** argv, Args& args) {
  const std::vector<std::string> flags = {"--loadgen", "--stats"};
  const std::vector<std::string> with_value = {
      "--train-model", "--out",   "--weight-bits", "--input-bits",
      "--hidden",      "--seed",  "--train-epochs", "--model",
      "--model-name",  "--port",  "--batch-max", "--batch-deadline-us",
      "--threads",     "--reactors", "--swap-file", "--swap",
      "--rate",        "--requests"};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (std::find(flags.begin(), flags.end(), arg) != flags.end()) {
      args.values[arg] = "1";
      continue;
    }
    const bool known =
        std::find(with_value.begin(), with_value.end(), arg) != with_value.end();
    if ((known || arg == "--swap-at" || arg == "--verify") && i + 1 < argc) {
      const std::string value = argv[++i];
      if (arg == "--swap-at" || arg == "--verify") {
        const auto eq = value.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == value.size()) {
          std::cerr << "error: " << arg << " wants N=PATH, got '" << value << "'\n";
          return false;
        }
        const long n = std::stol(value.substr(0, eq));
        if (arg == "--swap-at") {
          args.swap_at.emplace_back(static_cast<std::size_t>(n), value.substr(eq + 1));
        } else {
          args.verify[static_cast<std::uint32_t>(n)] = value.substr(eq + 1);
        }
      } else {
        // --model repeats (serve mode registers every occurrence); the
        // first one also lands in `values` for the single-model modes.
        if (arg == "--model") args.models.push_back(value);
        if (arg != "--model" || !args.has("--model")) args.values[arg] = value;
      }
      continue;
    }
    std::cerr << "error: unknown or valueless argument '" << arg << "'\n";
    return false;
  }
  return true;
}

pnm::Dataset dataset_by_name(const std::string& name, std::uint64_t seed) {
  if (name == "whitewine") return pnm::make_whitewine(seed);
  if (name == "redwine") return pnm::make_redwine(seed);
  if (name == "pendigits") return pnm::make_pendigits(seed);
  if (name == "seeds") return pnm::make_seeds(seed);
  throw std::invalid_argument("unknown dataset '" + name +
                              "' (whitewine|redwine|pendigits|seeds)");
}

int run_train(const Args& args) {
  const std::string out = args.get("--out");
  if (out.empty()) {
    std::cerr << "error: --train-model needs --out PATH\n";
    return 1;
  }
  const std::uint64_t seed = static_cast<std::uint64_t>(args.num("--seed", 42));
  const int weight_bits = static_cast<int>(args.num("--weight-bits", 5));
  const int input_bits = static_cast<int>(args.num("--input-bits", 4));
  const std::size_t hidden = static_cast<std::size_t>(args.num("--hidden", 10));
  const std::size_t epochs = static_cast<std::size_t>(args.num("--train-epochs", 30));

  const std::string name = args.get("--train-model");
  pnm::Dataset data = dataset_by_name(name, 7000 + seed);
  pnm::Rng rng(seed);
  pnm::DataSplit split = pnm::stratified_split(data, 0.6, 0.2, 0.2, rng);
  pnm::MinMaxScaler scaler;
  pnm::scale_split(split, scaler);

  pnm::Mlp model({split.train.n_features(), hidden, data.n_classes}, rng);
  const pnm::QuantSpec spec = pnm::QuantSpec::uniform(2, weight_bits, input_bits);
  pnm::TrainConfig train;
  train.epochs = epochs;
  pnm::Trainer trainer(train);
  trainer.set_weight_view(pnm::make_qat_view(spec));
  trainer.fit(model, split.train, rng);

  const pnm::QuantizedMlp qmodel = pnm::QuantizedMlp::from_float(model, spec);
  const double acc = qmodel.accuracy(pnm::quantize_dataset(split.test, input_bits));
  if (!pnm::save_quantized_mlp(qmodel, out, name + "-" + std::to_string(weight_bits) + "b")) {
    std::cerr << "error: cannot write " << out << '\n';
    return 1;
  }
  std::cout << "trained " << name << ": " << split.train.n_features() << "->" << hidden
            << "->" << data.n_classes << ", " << weight_bits << "b weights, "
            << input_bits << "b inputs; test accuracy " << acc << "\nwrote " << out
            << '\n';
  return 0;
}

/// Splits a NAME=FILE CLI value; a plain path yields `fallback_name`.
/// (Only a '=' before any '/' counts as a name separator, so paths with
/// '=' in a directory component still work.)
std::pair<std::string, std::string> split_model_arg(const std::string& value,
                                                    const std::string& fallback_name) {
  const auto eq = value.find('=');
  if (eq != std::string::npos && eq > 0 && value.find('/') > eq) {
    return {value.substr(0, eq), value.substr(eq + 1)};
  }
  return {fallback_name, value};
}

int run_serve(const Args& args) {
  if (args.models.empty()) {
    std::cerr << "error: serve mode needs --model PATH (or --model NAME=FILE)\n";
    return 1;
  }
  pnm::serve::ServeConfig config;
  config.port = static_cast<std::uint16_t>(args.num("--port", 0));
  config.reactors = static_cast<std::size_t>(args.num("--reactors", 1));
  config.batch_max = static_cast<std::size_t>(args.num("--batch-max", 32));
  config.batch_deadline_us = args.num("--batch-deadline-us", 200);
  config.worker_threads = static_cast<std::size_t>(args.num("--threads", 2));

  auto registry = std::make_shared<pnm::serve::ModelRegistry>();
  for (const std::string& entry : args.models) {
    const auto [name, file] = split_model_arg(entry, "default");
    std::string error;
    if (!registry->register_model(name, {pnm::load_quantized_mlp(file), 0, file, {}},
                                  &error)) {
      std::cerr << "error: cannot register model '" << name << "': " << error << '\n';
      return 1;
    }
  }
  // SIGHUP target: NAME=FILE swaps that model; a plain path (or the
  // omitted default, the first --model's file) swaps the default model.
  const auto [swap_name, swap_file] = split_model_arg(
      args.get("--swap-file", split_model_arg(args.models.front(), "default").second),
      std::string());

  pnm::serve::Server server(config, registry);
  server.start();
  std::cout << "serving on port " << server.port() << " (" << config.reactors
            << " reactors, " << config.worker_threads << " workers, batch<="
            << config.batch_max << ", coalescing capped at " << config.batch_deadline_us
            << "us)\n";
  for (const pnm::serve::ModelStats& m : registry->stats()) {
    std::cout << "  model " << m.name << ": " << m.path << '\n';
  }
  std::cout << "SIGHUP swaps " << (swap_name.empty() ? "default" : swap_name) << " to "
            << swap_file << "; SIGINT/SIGTERM stops\n"
            << std::flush;

  if (!install_signal_handlers()) {
    std::cerr << "error: cannot install signal handlers\n";
    return 1;
  }
  while (g_stop == 0) {
    // Block until a signal pokes the self-pipe, then drain it: every
    // pending wakeup is coalesced into one pass over the flags.
    pollfd pfd{g_wake_pipe[0], POLLIN, 0};
    if (poll(&pfd, 1, -1) < 0 && errno != EINTR) break;
    unsigned char drain[64];
    while (read(g_wake_pipe[0], drain, sizeof(drain)) > 0) {
    }
    if (g_hup != 0) {
      g_hup = 0;
      std::string error;
      if (server.swap_model_named(swap_name, swap_file, &error)) {
        const auto live = registry->get(swap_name);
        std::cout << "swapped " << live->name << " to " << swap_file << " (version "
                  << live->version << ")\n"
                  << std::flush;
      } else {
        std::cout << "swap rejected: " << error << "\n" << std::flush;
      }
    }
  }
  const pnm::serve::MetricsSnapshot stats = server.stats();
  server.stop();
  std::cout << "served " << stats.responses_total << " responses in "
            << stats.batches_total << " batches (mean batch "
            << stats.mean_batch_size() << ", p50 " << stats.latency_percentile_us(50)
            << "us, p99 " << stats.latency_percentile_us(99) << "us)\n";
  return 0;
}

int run_loadgen(const Args& args) {
  const std::string model_path = args.get("--model");
  if (model_path.empty() || !args.has("--port")) {
    std::cerr << "error: --loadgen needs --model PATH and --port P\n";
    return 1;
  }
  const pnm::QuantizedMlp base = pnm::load_quantized_mlp(model_path);

  // Random [0,1] feature vectors: bit-exactness does not care whether the
  // inputs are realistic, only that client and offline agree on them.
  pnm::Rng rng(static_cast<std::uint64_t>(args.num("--seed", 42)));
  std::vector<std::vector<double>> samples(64);
  for (auto& s : samples) {
    s.resize(base.input_size());
    for (auto& v : s) v = rng.uniform();
  }

  // Keep the verify designs alive for the whole run.
  std::map<std::uint32_t, pnm::QuantizedMlp> designs;
  pnm::serve::LoadGenConfig load;
  load.port = static_cast<std::uint16_t>(args.num("--port", 0));
  load.rate = static_cast<double>(args.num("--rate", 2000));
  load.total_requests = static_cast<std::size_t>(args.num("--requests", 2000));
  load.model_name = args.get("--model-name");
  load.samples = &samples;
  for (const auto& [after, path] : args.swap_at) load.swaps[after] = path;
  if (!args.verify.empty() || !args.swap_at.empty()) {
    designs.emplace(1, base);
    for (const auto& [version, path] : args.verify) {
      designs.emplace(version, pnm::load_quantized_mlp(path));
    }
    for (const auto& [version, design] : designs) load.verify[version] = &design;
  }

  const pnm::serve::LoadGenReport report = pnm::serve::run_load(load);
  std::cout << "offered " << report.offered_rps << " rps, achieved "
            << report.achieved_rps << " rps over " << report.duration_s << "s\n"
            << "sent " << report.sent << ", received " << report.received
            << ", send failures " << report.send_failures << "\n"
            << "latency p50 " << report.p50_us << "us, p99 " << report.p99_us
            << "us, mean " << report.mean_us << "us\n";
  for (const auto& [version, count] : report.responses_by_version) {
    std::cout << "  version " << version << ": " << count << " responses\n";
  }
  if (!load.verify.empty()) {
    std::cout << "verification: " << report.mismatches << " mismatches, "
              << report.unknown_version << " unknown versions, "
              << report.swap_failures << " swap failures\n";
  }
  if (!report.ok()) {
    std::cerr << "FAIL: load run lost or mis-served responses\n";
    return 1;
  }
  std::cout << "OK\n";
  return 0;
}

int run_admin(const Args& args) {
  pnm::serve::ServeClient client;
  if (!client.connect("127.0.0.1", static_cast<std::uint16_t>(args.num("--port", 0)), 5)) {
    std::cerr << "error: cannot connect\n";
    return 1;
  }
  if (args.has("--stats")) {
    std::string json;
    if (!client.stats(json)) {
      std::cerr << "error: stats request failed\n";
      return 1;
    }
    std::cout << json;
    return 0;
  }
  std::string message;
  const auto [name, file] = split_model_arg(args.get("--swap"), std::string());
  const bool ok = name.empty() ? client.swap(file, message)
                               : client.swap_named(name, file, message);
  std::cout << (ok ? "swapped: " : "rejected: ") << message << '\n';
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  try {
    if (args.has("--train-model")) return run_train(args);
    if (args.has("--loadgen")) return run_loadgen(args);
    if (args.has("--stats") || args.has("--swap")) return run_admin(args);
    return run_serve(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
