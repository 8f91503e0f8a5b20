#ifndef PNMBENCH_SERVE_WORK_HPP
#define PNMBENCH_SERVE_WORK_HPP

/// \file serve_work.hpp
/// \brief The served-request ladder: two GA-minimized designs behind an
///        in-process serve::Server at its defaults, driven over one
///        connection per phase through light (open loop, v1), heavy (open
///        loop, v1 and v2 alternating) and bulk (closed loop) phases.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "pnm/core/qmlp.hpp"
#include "pnm/serve/metrics.hpp"
#include "trace.hpp"

namespace pnm::serve {
class Server;
}

namespace pnmbench {

/// One deployed design: the best GA front design within 5% accuracy loss
/// of its dataset's baseline, after a save/load round trip through
/// model_io.
struct ServedDesign {
  std::string dataset;
  std::string route;        ///< "" = default model (v1 frames)
  pnm::QuantizedMlp model;  ///< as loaded back from its pnm-model file
  std::vector<std::vector<double>> samples;  ///< scaled test-split features
  double area_gain = 1.0;   ///< baseline area / design area
};

struct DesignSettings {
  std::size_t population = 8;
  std::size_t generations = 4;
  std::size_t train_epochs = 60;
  std::size_t finetune_epochs = 8;
};

struct ServeSetup {
  std::vector<ServedDesign> designs;  ///< [0] = default route
  double area_gain_5pct = 0.0;        ///< geo-mean of the designs' gains
};

/// Trains, minimizes and exports the two served designs (pendigits as the
/// default route, redwine as the v2 route "redwine") from `flow_seed`,
/// writing their model files under `dir`.
/// \throws std::runtime_error when a design does not round-trip.
ServeSetup make_served_designs(std::uint64_t flow_seed, const std::string& dir,
                               const DesignSettings& settings);

struct LadderSettings {
  std::size_t light_requests = 1000;
  double light_rate = 2000.0;
  std::size_t heavy_requests = 10000;
  double heavy_rate = 30000.0;
  std::size_t bulk_requests = 25000;
  std::size_t bulk_in_flight = 32;
};

/// One phase: what the generator saw and the server's counters around it.
struct PhaseResult {
  std::string name;
  LoadResult load;
  pnm::serve::MetricsSnapshot before;
  pnm::serve::MetricsSnapshot after;
};

struct LadderResult {
  std::vector<PhaseResult> phases;  ///< light, heavy, bulk
  double wall_s = 0.0;
};

/// A running server over the setup's designs (default ServeConfig).  The
/// server's threads, and the generator while a ladder runs, are pinned to
/// one CPU, the last the process may use.
class ServeBench {
 public:
  explicit ServeBench(const ServeSetup& setup);
  ~ServeBench();
  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;

  /// Runs the three phases in order.  With an enabled tracer, records a
  /// span per phase and one per open-loop request (due time to response).
  LadderResult run_ladder(const LadderSettings& settings, Tracer& tracer);

 private:
  const ServeSetup* setup_;
  std::unique_ptr<pnm::serve::Server> server_;
};

/// Empty when the server's counters balance at the end of the phase and it
/// admitted no more requests than the generator sent; otherwise the first
/// violated identity.  Server-side errors are not violations: the requests
/// they cost are failed on the generator's side and lower ok_frac.
std::string check_phase(const PhaseResult& phase);

/// serve.<ph>.{mean_batch,batch1_frac,server_p50_us,client_p99_us,requests,
/// errors} and loadgen.<ph>.{late_p99_us,sent}.
void add_phase_layer_metrics(const PhaseResult& phase, std::map<std::string, double>& out);

/// core.infer.predict_us / core.infer.predict_block_us: mean microseconds
/// per sample of predict_quantized_into and predict_block_into on the
/// served designs over their sample streams (offline, no server).
void add_infer_layer_metrics(const ServeSetup& setup, std::map<std::string, double>& out);

/// serve.protocol.codec_us: mean microseconds per request of encoding the
/// request, FrameReader::feed, decoding it, and encoding + decoding the
/// response (offline).
void add_codec_layer_metric(const ServeSetup& setup, std::map<std::string, double>& out);

}  // namespace pnmbench

#endif  // PNMBENCH_SERVE_WORK_HPP
