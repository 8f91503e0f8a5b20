#ifndef PNMBENCH_LOADGEN_HPP
#define PNMBENCH_LOADGEN_HPP

/// \file loadgen.hpp
/// \brief The benchmark's own load generators over one ServeClient
///        connection: an open loop on a fixed schedule and a closed loop
///        with a fixed number of requests in flight.
///
/// Open loop: request k is *due* at origin + k / rate.  The sender spins
/// (yielding) until the due time — a sleeping thread wakes up to a
/// millisecond late on a virtualized host — or, if it is running late,
/// sends at once; latency is
/// measured from the due time, not the send time, so a stall anywhere —
/// in the server, the network, or the sender itself — shows up in every
/// request that had to wait for it.  How late the sender ran (send time
/// minus due time) is reported separately, as a validity check on the
/// generator.
///
/// Every response is verified bit-exactly: the expected class of each
/// (route, sample) pair is computed offline with predict_quantized_into
/// before the run.  A response with a wrong class or a version other than
/// 1 (nothing is hot-swapped) is wrong; a wrong response, an error frame
/// (a refusal) or no response at all counts as failed.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pnm/core/qmlp.hpp"

namespace pnmbench {

/// One served model as the generator sees it.
struct Route {
  std::string model_name;  ///< "" = protocol-v1 frames to the default model
  const pnm::QuantizedMlp* model = nullptr;
  const std::vector<std::vector<double>>* samples = nullptr;
};

/// Request k goes to routes[k % routes.size()], sample (k / routes.size())
/// % samples.size().
struct LoadConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::vector<Route> routes;
  std::size_t requests = 1000;
  double rate = 1000.0;        ///< open loop: requests per second
  std::size_t in_flight = 32;  ///< closed loop: outstanding requests
  int response_timeout_ms = 5000;
};

/// Timestamps of one request, nanoseconds on the trace clock (now_ns).
struct RequestTiming {
  std::int64_t due_ns = 0;   ///< open loop: schedule; closed loop: send
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;  ///< response arrival (0 = none)
};

struct LoadResult {
  std::size_t sent = 0;
  std::size_t received = 0;   ///< well-formed predict responses
  std::size_t failed = 0;     ///< wrong, refused, unanswered or unsent
  /// Predict responses that break bit-exactness: a wrong class or version,
  /// or an id that names no outstanding request.  Error frames (refusals)
  /// and missing responses are failed but not wrong.
  std::size_t wrong = 0;
  double duration_s = 0.0;    ///< first due time to last response
  std::vector<RequestTiming> timings;  ///< indexed by request id

  /// Sorted latencies (us) of the correct responses: due to response.
  [[nodiscard]] std::vector<double> latencies_us() const;
  /// Sorted sender lateness (us): send minus due.
  [[nodiscard]] std::vector<double> lateness_us() const;
};

/// Open loop at `config.rate`.  \throws std::runtime_error on connect failure.
LoadResult run_open_loop(const LoadConfig& config);

/// Closed loop with `config.in_flight` requests outstanding until
/// `config.requests` were sent.  \throws std::runtime_error on connect failure.
LoadResult run_closed_loop(const LoadConfig& config);

/// Percentile p in [0, 100] of sorted values (nearest rank; 0 when empty).
double percentile(const std::vector<double>& sorted, double p);

}  // namespace pnmbench

#endif  // PNMBENCH_LOADGEN_HPP
