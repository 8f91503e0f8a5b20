/// Tests of the benchmark's load generator against a scripted in-process
/// server that can stall before one response or corrupt one response.
///
///   pnmbench_loadgen_test        (exit 0 = every case passed)
///
/// Cases:
///   stalled_server   a 50 ms server stall shows up in the due-time latency
///                    of every request due during it, while the sender
///                    itself stays on schedule;
///   overdriven_sender  at a rate the sender cannot keep up with, its
///                    lateness is reported and counted in due-time latency;
///   closed_loop      every request of a closed loop is answered and verified;
///   wrong_answer     one corrupted class is counted as wrong and failed.

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/data/scaler.hpp"
#include "pnm/data/synth.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/serve/protocol.hpp"
#include "pnm/util/rng.hpp"
#include "pnm/util/socket.hpp"

namespace {

using namespace pnmbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// Answers predict frames on one connection with the model's class.
/// Before answering request `stall_id` it sleeps `stall`; the response to
/// `corrupt_id` carries a wrong class.
class ScriptedServer {
 public:
  ScriptedServer(const pnm::QuantizedMlp& model, std::uint32_t stall_id,
                 std::chrono::milliseconds stall, std::uint32_t corrupt_id)
      : model_(&model), stall_id_(stall_id), stall_(stall), corrupt_id_(corrupt_id) {
    listen_fd_ = pnm::tcp_listen(0);
    if (listen_fd_ < 0) throw std::runtime_error("scripted server: listen failed");
    port_ = pnm::tcp_local_port(listen_fd_);
    thread_ = std::thread([this] { serve(); });
  }
  ~ScriptedServer() {
    stop_.store(true);
    thread_.join();
    ::close(listen_fd_);
  }
  ScriptedServer(const ScriptedServer&) = delete;
  ScriptedServer& operator=(const ScriptedServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  bool wait_readable(int fd) {
    pollfd p{fd, POLLIN, 0};
    while (!stop_.load()) {
      if (::poll(&p, 1, 20) > 0) return true;
    }
    return false;
  }

  void serve() {
    if (!wait_readable(listen_fd_)) return;
    const int fd = pnm::tcp_accept(listen_fd_);
    if (fd < 0) return;
    pnm::serve::FrameReader reader;
    pnm::InferScratch scratch;
    std::vector<double> features;
    std::vector<std::uint8_t> out;
    const pnm::serve::FrameReader::FrameHandler on_frame =
        [&](pnm::serve::FrameType type, std::span<const std::uint8_t> payload) {
          std::uint32_t id = 0;
          if (type != pnm::serve::FrameType::kPredict ||
              !pnm::serve::decode_predict(payload, id, features)) {
            return;
          }
          if (id == stall_id_) std::this_thread::sleep_for(stall_);
          pnm::quantize_input_into(features, model_->input_bits(), scratch.xq);
          std::uint32_t cls =
              static_cast<std::uint32_t>(model_->predict_quantized_into(scratch.xq, scratch));
          if (id == corrupt_id_) cls = (cls + 1) % static_cast<std::uint32_t>(model_->output_size());
          out.clear();
          pnm::serve::encode_predict_resp(out, id, 1, cls);
          pnm::send_all(fd, out.data(), out.size());
        };
    std::uint8_t buf[4096];
    while (wait_readable(fd)) {
      const long n = pnm::recv_some(fd, buf, sizeof(buf));
      if (n == 0) break;
      if (n < 0) continue;
      if (!reader.feed(buf, static_cast<std::size_t>(n), on_frame)) break;
    }
    ::close(fd);
  }

  const pnm::QuantizedMlp* model_;
  std::uint32_t stall_id_;
  std::chrono::milliseconds stall_;
  std::uint32_t corrupt_id_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

constexpr std::uint32_t kNone = 0xFFFFFFFFu;

double latency_us(const RequestTiming& t) { return static_cast<double>(t.done_ns - t.due_ns) / 1e3; }

void stalled_server(const pnm::QuantizedMlp& model,
                    const std::vector<std::vector<double>>& samples) {
  std::printf("stalled_server\n");
  ScriptedServer server(model, 100, std::chrono::milliseconds(50), kNone);
  LoadConfig config;
  config.port = server.port();
  config.routes = {Route{"", &model, &samples}};
  config.requests = 400;
  config.rate = 2000.0;  // one request due every 500 us
  const LoadResult r = run_open_loop(config);
  expect(r.failed == 0 && r.received == 400, "every request answered correctly");
  expect(latency_us(r.timings[100]) >= 50'000.0, "the stalled request waited >= 50 ms");
  // Requests 100..149 were due in the first 25 ms of the stall, so each
  // waited at least 25 ms from its due time behind the stalled one.
  std::size_t delayed = 0;
  for (std::size_t k = 100; k < 150; ++k) delayed += latency_us(r.timings[k]) >= 25'000.0;
  expect(delayed == 50, "all 50 requests due early in the stall waited >= 25 ms (" +
                            std::to_string(delayed) + ")");
  expect(percentile(r.latencies_us(), 99.0) >= 25'000.0, "the stall sets the p99");
  expect(percentile(r.lateness_us(), 50.0) < 5'000.0,
         "the sender itself stayed on schedule (median lateness < 5 ms)");
}

void overdriven_sender(const pnm::QuantizedMlp& model,
                       const std::vector<std::vector<double>>& samples) {
  std::printf("overdriven_sender\n");
  ScriptedServer server(model, kNone, std::chrono::milliseconds(0), kNone);
  LoadConfig config;
  config.port = server.port();
  config.routes = {Route{"", &model, &samples}};
  config.requests = 2000;
  config.rate = 1e9;  // all 2000 requests due within 2 us
  const LoadResult r = run_open_loop(config);
  expect(r.failed == 0 && r.received == 2000, "every request answered correctly");
  // Each send is a system call, so the last sends leave long after the
  // whole schedule was due.
  const double late_p99 = percentile(r.lateness_us(), 99.0);
  expect(late_p99 >= 200.0, "the sender's lateness is reported (p99 " +
                                std::to_string(late_p99) + " us >= 200 us)");
  expect(percentile(r.latencies_us(), 99.0) >= late_p99,
         "due-time p99 latency is at least the lateness p99");
}

void closed_loop(const pnm::QuantizedMlp& model,
                 const std::vector<std::vector<double>>& samples) {
  std::printf("closed_loop\n");
  ScriptedServer server(model, kNone, std::chrono::milliseconds(0), kNone);
  LoadConfig config;
  config.port = server.port();
  config.routes = {Route{"", &model, &samples}};
  config.requests = 500;
  config.in_flight = 8;
  const LoadResult r = run_closed_loop(config);
  expect(r.sent == 500 && r.received == 500 && r.failed == 0,
         "500 sent, 500 answered correctly");
}

void wrong_answer(const pnm::QuantizedMlp& model,
                  const std::vector<std::vector<double>>& samples) {
  std::printf("wrong_answer\n");
  ScriptedServer server(model, kNone, std::chrono::milliseconds(0), 7);
  LoadConfig config;
  config.port = server.port();
  config.routes = {Route{"", &model, &samples}};
  config.requests = 50;
  config.rate = 5000.0;
  config.response_timeout_ms = 500;
  const LoadResult r = run_open_loop(config);
  expect(r.received == 49 && r.wrong == 1 && r.failed == 1 && r.timings[7].done_ns == 0,
         "the corrupted response counts as one wrong, failed request");
}

}  // namespace

int main() {
  const pnm::Dataset data = pnm::make_seeds();
  pnm::Rng rng(5);
  pnm::DataSplit split = pnm::stratified_split(data, 0.6, 0.2, 0.2, rng);
  pnm::MinMaxScaler scaler;
  pnm::scale_split(split, scaler);
  const pnm::QuantSpec spec = pnm::QuantSpec::uniform(2, 4, 4);
  pnm::Mlp mlp({split.train.n_features(), 6, data.n_classes}, rng);
  pnm::TrainConfig train;
  train.epochs = 10;
  pnm::Trainer trainer(train);
  trainer.set_weight_view(pnm::make_qat_view(spec));
  trainer.fit(mlp, split.train, rng);
  const pnm::QuantizedMlp model = pnm::QuantizedMlp::from_float(mlp, spec);

  stalled_server(model, split.test.x);
  overdriven_sender(model, split.test.x);
  closed_loop(model, split.test.x);
  wrong_answer(model, split.test.x);
  std::printf("%s (%d failure(s))\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
