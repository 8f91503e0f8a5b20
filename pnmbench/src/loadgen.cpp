#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "pnm/core/quantize.hpp"
#include "pnm/serve/client.hpp"
#include "trace.hpp"

namespace pnmbench {
namespace {

using pnm::serve::ClientFrame;
using pnm::serve::FrameType;
using pnm::serve::PredictResponse;
using pnm::serve::ServeClient;

/// Offline reference: expected[route][sample] = predict_quantized_into.
std::vector<std::vector<std::uint32_t>> expected_classes(const LoadConfig& config) {
  if (config.routes.empty() || config.requests == 0) {
    throw std::invalid_argument("loadgen: need at least one route and one request");
  }
  std::vector<std::vector<std::uint32_t>> expected;
  pnm::InferScratch scratch;
  for (const Route& route : config.routes) {
    if (route.model == nullptr || route.samples == nullptr || route.samples->empty()) {
      throw std::invalid_argument("loadgen: route without model or samples");
    }
    std::vector<std::uint32_t> classes;
    for (const std::vector<double>& x : *route.samples) {
      pnm::quantize_input_into(x, route.model->input_bits(), scratch.xq);
      classes.push_back(
          static_cast<std::uint32_t>(route.model->predict_quantized_into(scratch.xq, scratch)));
    }
    expected.push_back(std::move(classes));
  }
  return expected;
}

const std::vector<double>& sample_for(const LoadConfig& config, std::size_t k) {
  const Route& route = config.routes[k % config.routes.size()];
  return (*route.samples)[(k / config.routes.size()) % route.samples->size()];
}

bool send_request(ServeClient& client, const LoadConfig& config, std::size_t k) {
  const Route& route = config.routes[k % config.routes.size()];
  const std::uint32_t id = static_cast<std::uint32_t>(k);
  return route.model_name.empty()
             ? client.send_predict(id, sample_for(config, k))
             : client.send_predict_v2(id, route.model_name, sample_for(config, k));
}

/// Checks one received frame that arrived at `arrival`: a correct answer
/// stamps its request's done_ns and counts as received, a wrong predict
/// response counts as wrong, and any other frame (a refusal) changes
/// nothing.  Requests left without a correct answer are failed (finish).
void check_response(const ClientFrame& frame, std::int64_t arrival,
                    const LoadConfig& config,
                    const std::vector<std::vector<std::uint32_t>>& expected,
                    LoadResult& result) {
  if (frame.type != FrameType::kPredictResp) return;
  PredictResponse resp;
  std::vector<RequestTiming>& timings = result.timings;
  if (!pnm::serve::decode_predict_resp(frame.payload, resp) ||
      resp.id >= timings.size() || timings[resp.id].sent_ns == 0 ||
      timings[resp.id].done_ns != 0) {
    ++result.wrong;
    return;
  }
  const std::size_t k = resp.id;
  const std::size_t r = k % config.routes.size();
  const std::size_t sample = (k / config.routes.size()) % expected[r].size();
  if (resp.model_version != 1 || resp.predicted_class != expected[r][sample]) {
    ++result.wrong;
    return;
  }
  timings[k].done_ns = arrival;
  ++result.received;
}

void finish(LoadResult& result, std::int64_t first_ns) {
  std::int64_t last = first_ns;
  for (const RequestTiming& t : result.timings) last = std::max(last, t.done_ns);
  result.duration_s = static_cast<double>(last - first_ns) / 1e9;
  // Every request not answered correctly counts as failed exactly once.
  result.failed = result.timings.size() - result.received;
}

}  // namespace

std::vector<double> LoadResult::latencies_us() const {
  std::vector<double> out;
  out.reserve(timings.size());
  for (const RequestTiming& t : timings) {
    if (t.done_ns != 0) out.push_back(static_cast<double>(t.done_ns - t.due_ns) / 1e3);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> LoadResult::lateness_us() const {
  std::vector<double> out;
  out.reserve(timings.size());
  for (const RequestTiming& t : timings) {
    if (t.sent_ns != 0) out.push_back(static_cast<double>(t.sent_ns - t.due_ns) / 1e3);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

LoadResult run_open_loop(const LoadConfig& config) {
  const std::vector<std::vector<std::uint32_t>> expected = expected_classes(config);
  if (!(config.rate > 0.0)) throw std::invalid_argument("open loop: rate must be > 0");
  ServeClient client;
  if (!client.connect(config.host, config.port)) {
    throw std::runtime_error("open loop: cannot connect");
  }

  LoadResult result;
  result.timings.resize(config.requests);
  // timings[k].{due,sent}_ns are written by the sender before request k is
  // published through `sent` (release) and read by the receiver only after
  // its response arrived and `sent` was loaded (acquire).
  std::atomic<std::size_t> sent{0};
  std::atomic<bool> sender_done{false};

  std::thread receiver([&] {
    ClientFrame frame;
    std::size_t accounted = 0;  // responses and error frames read
    // Stop once every request has been answered, without waiting for the
    // sender to report that it finished: it may be descheduled right after
    // its last send, and the next read would then wait out the timeout.
    while (accounted < config.requests) {
      if (sender_done.load(std::memory_order_acquire) &&
          accounted >= sent.load(std::memory_order_acquire)) {
        break;
      }
      if (!client.read_frame(frame, config.response_timeout_ms)) break;
      const std::int64_t arrival = now_ns();
      ++accounted;
      (void)sent.load(std::memory_order_acquire);
      check_response(frame, arrival, config, expected, result);
    }
  });

  const std::int64_t origin = now_ns() + 1'000'000;  // first request due in 1 ms
  const double interval_ns = 1e9 / config.rate;
  for (std::size_t k = 0; k < config.requests; ++k) {
    RequestTiming& t = result.timings[k];
    t.due_ns = origin + static_cast<std::int64_t>(interval_ns * static_cast<double>(k));
    // Spin (yielding to any other runnable thread) rather than sleep: a
    // sleeping thread on a virtualized host wakes 0.1-1 ms late, which
    // would swamp the latencies being measured.
    while (now_ns() < t.due_ns) std::this_thread::yield();
    t.sent_ns = now_ns();
    // Publish before sending: the response may arrive before send returns.
    sent.fetch_add(1, std::memory_order_release);
    if (!send_request(client, config, k)) {
      sent.fetch_sub(1, std::memory_order_release);
      break;
    }
  }
  sender_done.store(true, std::memory_order_release);
  receiver.join();

  result.sent = sent.load();
  finish(result, origin);
  return result;
}

LoadResult run_closed_loop(const LoadConfig& config) {
  const std::vector<std::vector<std::uint32_t>> expected = expected_classes(config);
  ServeClient client;
  if (!client.connect(config.host, config.port)) {
    throw std::runtime_error("closed loop: cannot connect");
  }
  LoadResult result;
  result.timings.resize(config.requests);
  const auto send_next = [&]() {
    RequestTiming& t = result.timings[result.sent];
    t.due_ns = t.sent_ns = now_ns();
    if (!send_request(client, config, result.sent)) {
      t.sent_ns = 0;
      return false;
    }
    ++result.sent;
    return true;
  };

  const std::int64_t first = now_ns();
  bool sending = true;
  while (sending && result.sent < std::min(config.in_flight, config.requests)) {
    sending = send_next();
  }
  ClientFrame frame;
  std::size_t accounted = 0;
  while (accounted < result.sent) {
    if (!client.read_frame(frame, config.response_timeout_ms)) break;
    const std::int64_t arrival = now_ns();
    ++accounted;
    check_response(frame, arrival, config, expected, result);
    if (sending && result.sent < config.requests) sending = send_next();
  }
  finish(result, first);
  return result;
}

}  // namespace pnmbench
