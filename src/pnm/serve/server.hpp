#ifndef PNM_SERVE_SERVER_HPP
#define PNM_SERVE_SERVER_HPP

/// \file server.hpp
/// \brief The streaming classification server: inference-as-a-service for
///        trained printed-MLP front designs.
///
/// Topology: `reactors` IO threads share one TCP port via SO_REUSEPORT —
/// each reactor owns a listening socket, its own epoll instance, and the
/// read side of every connection the kernel hashed to it, so the accept
/// and decode paths scale without any shared connection table or lock.
/// All reactors admit into ONE Batcher drained by `worker_threads`
/// inference workers, and bump ONE ServeMetrics aggregator (per-reactor
/// admission counters let tests assert the global/per-reactor balance).
/// `reactors = 1` degenerates to the classic single-IO-thread server.
///
/// Models: a ModelRegistry serves any number of named designs behind the
/// port.  Protocol-v1 frames and v2 frames with an empty name route to
/// the default (first-registered) model; v2 frames name their model
/// explicitly.  A v2 request naming no registered model is answered with
/// a typed kErrorV2 frame and the connection keeps serving.
///
/// Pipelined handoff: the admitting reactor quantizes each request's
/// features into the pooled request object while the workers are still
/// predicting the previous batch, overlapping decode+staging with the
/// predict pass.  Workers normally just gather the staged integer lanes;
/// if a hot-swap changed the model's input_bits in between, the worker
/// re-quantizes from the raw features — bit-exact either way, since the
/// encoding depends only on input_bits.
///
/// Hot-swap: per model, the registry holds a mutex-guarded
/// `shared_ptr<const ServedModel>`.  A swap loads and validates the new
/// design file first, then performs one guarded pointer flip of exactly
/// that entry; workers pin a snapshot per *batch route*, so every
/// in-flight request completes on the design it was scheduled against and
/// every response carries that design's (per-model) version tag — zero
/// requests are dropped, none can be misrouted across the flip, and
/// swapping one model can never disturb another's version sequence.
///
/// Responses are written by the worker that computed them: it appends
/// each response and typed error frame of a batch to a per-connection
/// outbox and flushes every outbox with one write (per-connection write
/// lock) after the batch, so a burst of pipelined requests costs one
/// syscall per connection, not one per response.  A client that
/// disappeared mid-batch just has its outbox counted as dropped, one per
/// frame — the batch, the other clients, and the server are unaffected.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "pnm/core/qmlp.hpp"
#include "pnm/serve/batcher.hpp"
#include "pnm/serve/metrics.hpp"
#include "pnm/serve/protocol.hpp"
#include "pnm/serve/registry.hpp"

namespace pnm::serve {

/// Server configuration.
struct ServeConfig {
  std::uint16_t port = 0;            ///< 0 = ephemeral (see Server::port)
  bool loopback_only = true;         ///< bind 127.0.0.1 (tests/benches)
  std::size_t reactors = 1;          ///< accept+IO loops (SO_REUSEPORT when > 1)
  std::size_t batch_max = 32;        ///< micro-batch size bound
  /// Cap on how long a batch may coalesce behind an in-flight batch,
  /// counted from its oldest member's admission.  A batch departs at once
  /// when no other batch is in flight, so this bounds coalescing under
  /// load and is never a wait for a lone request (see serve/batcher.hpp).
  std::int64_t batch_deadline_us = 200;
  std::size_t worker_threads = 2;    ///< inference workers (shared by reactors)
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// The server.  start() spawns the reactor IO threads and workers; stop()
/// (or the destructor) shuts everything down, draining already-admitted
/// requests.
class Server {
 public:
  /// Single-model convenience: serves `model` as the default model of a
  /// fresh registry (name "default").
  ///
  /// \param config  serve topology and batching policy.
  /// \param model   initial design (from_float or load_quantized_mlp);
  ///                its `version` is forced to 1 if left 0.
  Server(ServeConfig config, ServedModel model);

  /// Multi-model server over a prepared registry.
  ///
  /// \param config    serve topology and batching policy.
  /// \param registry  at least one registered model; the first-registered
  ///                  entry is the default (v1) route.  Shared: callers
  ///                  may keep swapping through their own reference.
  Server(ServeConfig config, std::shared_ptr<ModelRegistry> registry);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listening socket(s) and spawns the threads.  After it
  /// returns, port() is final and connects succeed (the kernel backlog
  /// holds early arrivals even before the first epoll dispatch).
  ///
  /// \throws std::runtime_error  when a socket cannot be bound.
  void start();

  /// Stops accepting, drains admitted requests, joins every thread.
  /// Idempotent.
  void stop();

  /// The bound port (valid after start(); all reactors share it).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Loads `path` and atomically flips the *default* model to it.
  ///
  /// \param path   a pnm-model v1 file.
  /// \param error  receives the load/validation error on failure.
  /// \return true on success (the new design is live); false leaves the
  ///         old design serving.
  bool swap_model(const std::string& path, std::string* error);

  /// Loads `path` and atomically flips the named model ("" = default).
  ///
  /// \param name   registered model name.
  /// \param path   a pnm-model v1 file.
  /// \param error  receives the failure reason.
  /// \return true on success; only the named model's version moves.
  bool swap_model_named(std::string_view name, const std::string& path,
                        std::string* error);

  /// The live default-model snapshot (what the next v1 batch is served
  /// with).
  [[nodiscard]] std::shared_ptr<const ServedModel> current_model() const;

  /// The model registry (shared with the constructing caller).
  [[nodiscard]] const std::shared_ptr<ModelRegistry>& registry() const {
    return registry_;
  }

  /// Metrics snapshot including live queue depth, default-model identity,
  /// and the per-model registry stats.
  [[nodiscard]] MetricsSnapshot stats() const;

  /// Request-pool size (tests assert the zero-steady-state-allocation
  /// property through this).
  [[nodiscard]] std::size_t request_pool_created() const { return pool_.created(); }

 private:
  void io_loop(std::size_t reactor);
  void worker_loop();
  void handle_admin_frame(const std::shared_ptr<Connection>& conn, FrameType type,
                          std::span<const std::uint8_t> payload);
  void close_sockets();

  ServeConfig config_;
  std::shared_ptr<ModelRegistry> registry_;

  ServeMetrics metrics_;
  RequestPool pool_;
  Batcher batcher_;

  std::vector<int> listen_fds_;  ///< one per reactor (SO_REUSEPORT siblings)
  std::vector<int> wake_fds_;    ///< shutdown eventfd, one per reactor
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::vector<std::thread> io_threads_;
  std::vector<std::thread> workers_;
};

}  // namespace pnm::serve

#endif  // PNM_SERVE_SERVER_HPP
