#include "pnm/serve/server.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <sys/eventfd.h>
#include <unistd.h>
#include <unordered_map>

#include "pnm/core/infer_simd.hpp"
#include "pnm/core/model_io.hpp"
#include "pnm/core/qmlp.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/util/socket.hpp"

namespace pnm::serve {

/// Per-socket connection state.  The owning reactor holds the read side
/// exclusively; the write side is shared between workers (one flush of a
/// batch's frames each) and that reactor (admin/error replies) under
/// `write_mu`.  The fd stays open until the last shared_ptr drops, so a
/// worker finishing a batch after the reactor saw the hangup writes into
/// a dead-but-valid socket (EPIPE, one dropped response per frame of the
/// flush) — never into a recycled descriptor.
class Connection {
 public:
  Connection(int fd, std::size_t max_frame_bytes) : fd_(fd), reader_(max_frame_bytes) {}
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  FrameReader& reader() { return reader_; }

  /// Marks the connection dead (no further writes are attempted).
  void mark_closed() { closed_.store(true, std::memory_order_release); }
  [[nodiscard]] bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Serialized write of one or more whole frames (never interleaved with
  /// another writer's); false when the peer is gone.  The
  /// stall cap is tighter than send_all's default: with several reactors
  /// feeding one worker pool, a single peer that stops reading must not
  /// park a worker for multiple seconds.
  bool write_frame(const std::vector<std::uint8_t>& bytes) {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (closed()) return false;
    if (send_all(fd_, bytes.data(), bytes.size(), /*stall_ms=*/2000)) return true;
    mark_closed();
    return false;
  }

 private:
  int fd_;
  FrameReader reader_;
  std::atomic<bool> closed_{false};
  std::mutex write_mu_;
};

namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - since)
                                        .count());
}

/// Wraps a lone model into a fresh one-entry registry (name "default").
std::shared_ptr<ModelRegistry> make_single_registry(ServedModel model) {
  auto registry = std::make_shared<ModelRegistry>();
  std::string error;
  if (!registry->register_model("default", std::move(model), &error)) {
    throw std::invalid_argument("Server: " + error);
  }
  return registry;
}

}  // namespace

Server::Server(ServeConfig config, ServedModel model)
    : Server(config, make_single_registry(std::move(model))) {}

Server::Server(ServeConfig config, std::shared_ptr<ModelRegistry> registry)
    : config_(config),
      registry_(std::move(registry)),
      metrics_(config.batch_max, config.reactors),
      batcher_(config.batch_max, config.batch_deadline_us) {
  if (config_.reactors == 0) {
    throw std::invalid_argument("Server: reactors must be >= 1");
  }
  if (config_.worker_threads == 0) {
    throw std::invalid_argument("Server: worker_threads must be >= 1");
  }
  if (registry_ == nullptr || registry_->size() == 0) {
    throw std::invalid_argument("Server: registry holds no models");
  }
}

Server::~Server() { stop(); }

void Server::close_sockets() {
  for (const int fd : listen_fds_) {
    if (fd >= 0) ::close(fd);
  }
  listen_fds_.clear();
  for (const int fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
  }
  wake_fds_.clear();
}

void Server::start() {
  if (running_.exchange(true)) return;
  // With one reactor the classic exclusive bind is kept; with several,
  // every sibling sets SO_REUSEPORT and the kernel spreads incoming
  // connections across their accept queues.
  const bool reuse = config_.reactors > 1;
  const int first = tcp_listen(config_.port, config_.loopback_only, 128, reuse);
  if (first < 0) {
    running_.store(false);
    throw std::runtime_error(std::string("Server: cannot listen: ") + std::strerror(errno));
  }
  listen_fds_.push_back(first);
  port_ = tcp_local_port(first);
  for (std::size_t i = 1; i < config_.reactors; ++i) {
    const int fd = tcp_listen(port_, config_.loopback_only, 128, true);
    if (fd < 0) {
      const std::string why = std::strerror(errno);
      close_sockets();
      running_.store(false);
      throw std::runtime_error("Server: cannot bind reactor socket: " + why);
    }
    listen_fds_.push_back(fd);
  }
  for (std::size_t i = 0; i < config_.reactors; ++i) {
    const int fd = eventfd(0, EFD_NONBLOCK);
    if (fd < 0) {
      close_sockets();
      running_.store(false);
      throw std::runtime_error("Server: eventfd failed");
    }
    wake_fds_.push_back(fd);
  }
  io_threads_.reserve(config_.reactors);
  for (std::size_t i = 0; i < config_.reactors; ++i) {
    io_threads_.emplace_back([this, i] { io_loop(i); });
  }
  workers_.reserve(config_.worker_threads);
  for (std::size_t i = 0; i < config_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  // Wake every reactor; each closes its own connections on the way out.
  const std::uint64_t one = 1;
  for (const int fd : wake_fds_) {
    [[maybe_unused]] const ssize_t rc = ::write(fd, &one, sizeof(one));
  }
  for (std::thread& t : io_threads_) {
    if (t.joinable()) t.join();
  }
  io_threads_.clear();
  // Drain what was admitted, then release the workers.
  batcher_.shutdown();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  close_sockets();
}

std::shared_ptr<const ServedModel> Server::current_model() const {
  return registry_->get({});
}

MetricsSnapshot Server::stats() const {
  const std::shared_ptr<const ServedModel> m = current_model();
  MetricsSnapshot s = metrics_.snapshot(batcher_.depth(), m == nullptr ? 0 : m->version,
                                        m == nullptr ? std::string() : m->source_path);
  s.models = registry_->stats();
  return s;
}

bool Server::swap_model(const std::string& path, std::string* error) {
  return swap_model_named({}, path, error);
}

bool Server::swap_model_named(std::string_view name, const std::string& path,
                              std::string* error) {
  const bool ok = registry_->swap(name, path, error);
  metrics_.on_swap(ok);
  return ok;
}

void Server::handle_admin_frame(const std::shared_ptr<Connection>& conn, FrameType type,
                                std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  if (type == FrameType::kStats) {
    const std::string json = stats().to_json();
    encode_payload_frame(out, FrameType::kStatsResp,
                         std::span<const std::uint8_t>(
                             reinterpret_cast<const std::uint8_t*>(json.data()), json.size()));
  } else {
    // kSwap routes to the default model; kSwapV2 names its target.
    std::string name;
    std::string path;
    bool decoded = true;
    if (type == FrameType::kSwap) {
      path.assign(reinterpret_cast<const char*>(payload.data()), payload.size());
    } else {
      decoded = decode_swap_v2(payload, name, path);
    }
    std::string error;
    if (!decoded) {
      metrics_.on_protocol_error();
      encode_swap_resp(out, false, "malformed swap frame");
    } else if (swap_model_named(name, path, &error)) {
      const std::shared_ptr<const ServedModel> m = registry_->get(name);
      encode_swap_resp(out, true,
                       "model " + (m == nullptr ? name : m->name) + " version " +
                           std::to_string(m == nullptr ? 0 : m->version));
    } else {
      encode_swap_resp(out, false, error);
    }
  }
  if (!conn->write_frame(out)) metrics_.on_dropped_response();
}

void Server::io_loop(std::size_t reactor) {
  Epoll epoll;
  // Tags: 0 = listen socket, 1 = wake eventfd, otherwise a connection id.
  constexpr std::uint64_t kListenTag = 0;
  constexpr std::uint64_t kWakeTag = 1;
  const int listen_fd = listen_fds_[reactor];
  epoll.add(listen_fd, EPOLLIN, kListenTag);
  epoll.add(wake_fds_[reactor], EPOLLIN, kWakeTag);

  std::unordered_map<std::uint64_t, std::shared_ptr<Connection>> conns;
  std::uint64_t next_tag = 2;
  std::vector<epoll_event> events;
  std::vector<std::uint8_t> rx(64 * 1024);
  std::vector<std::uint8_t> reply;

  // Pipelined handoff: quantize at admission, against the model the
  // request routes to *right now*.  The worker re-checks the staged bit
  // width against the model it actually pins, so a swap landing between
  // here and the predict pass costs one re-quantize, never correctness.
  const auto stage_and_admit = [&](ServeRequest* r) {
    const std::shared_ptr<const ServedModel> m = registry_->get(r->model_name);
    if (m != nullptr && r->features.size() == m->mlp.input_size()) {
      quantize_input_into(r->features, m->mlp.input_bits(), r->xq);
      r->staged_bits = m->mlp.input_bits();
    }
    metrics_.on_request(reactor);
    batcher_.push(r);
  };

  const auto drop_connection = [&](std::uint64_t tag) {
    const auto it = conns.find(tag);
    if (it == conns.end()) return;
    if (it->second->reader().mid_frame()) metrics_.on_truncated_frame();
    epoll.remove(it->second->fd());
    it->second->mark_closed();
    metrics_.on_connection_closed();
    conns.erase(it);  // fd closes when in-flight requests release the ref
  };

  // Sends a kError frame; the connection is dropped after it.
  const auto refuse = [&](Connection& conn, const char* why) {
    reply.clear();
    encode_error(reply, why);
    conn.write_frame(reply);
  };

  // Handles one complete frame.  \return false when the connection must
  // be dropped (protocol violation).
  const auto dispatch = [&](const std::shared_ptr<Connection>& conn,
                            const FrameReader::Frame& frame) -> bool {
    switch (frame.type) {
      case FrameType::kPredict: {
        ServeRequest* r = pool_.acquire();
        std::uint32_t id = 0;
        if (!decode_predict(frame.payload, id, r->features)) {
          pool_.release(r);
          metrics_.on_protocol_error();
          refuse(*conn, "malformed predict frame");
          return false;
        }
        r->id = id;
        r->conn = conn;
        stage_and_admit(r);
        return true;
      }
      case FrameType::kPredictV2: {
        ServeRequest* r = pool_.acquire();
        std::uint32_t id = 0;
        if (!decode_predict_v2(frame.payload, id, r->model_name, r->features)) {
          pool_.release(r);
          metrics_.on_protocol_error();
          refuse(*conn, "malformed predict frame");
          return false;
        }
        if (registry_->get(r->model_name) == nullptr) {
          // Request-level failure: typed error, the connection (and its
          // other in-flight requests) keeps serving.
          metrics_.on_unknown_model();
          reply.clear();
          encode_error_v2(reply, ErrorCode::kUnknownModel, "unknown model: " + r->model_name);
          pool_.release(r);
          if (!conn->write_frame(reply)) metrics_.on_dropped_response();
          return true;
        }
        r->id = id;
        r->conn = conn;
        r->v2 = true;
        stage_and_admit(r);
        return true;
      }
      case FrameType::kStats:
      case FrameType::kSwap:
      case FrameType::kSwapV2:
        handle_admin_frame(conn, frame.type, frame.payload);
        return true;
      default:
        metrics_.on_protocol_error();
        refuse(*conn, "unexpected frame type");
        return false;
    }
  };

  bool stopping = false;
  while (!stopping) {
    const int n = epoll.wait(events, -1);
    if (n < 0) break;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        stopping = true;
        break;
      }
      if (tag == kListenTag) {
        for (;;) {
          const int fd = tcp_accept(listen_fd);
          if (fd < 0) break;
          auto conn = std::make_shared<Connection>(fd, config_.max_frame_bytes);
          epoll.add(fd, EPOLLIN | EPOLLRDHUP, next_tag);
          conns.emplace(next_tag, std::move(conn));
          ++next_tag;
          metrics_.on_connection_opened();
        }
        continue;
      }
      const auto it = conns.find(tag);
      if (it == conns.end()) continue;
      const std::shared_ptr<Connection> conn = it->second;
      FrameReader& reader = conn->reader();

      bool drop = (events[i].events & (EPOLLHUP | EPOLLERR)) != 0;
      const bool peer_done = (events[i].events & EPOLLRDHUP) != 0;
      while (!drop) {
        const long got = recv_some(conn->fd(), rx.data(), rx.size());
        if (got <= 0) {
          // 0: orderly close; EAGAIN: nothing left; anything else: hard error.
          drop = got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
          break;
        }
        reader.append(rx.data(), static_cast<std::size_t>(got));
        FrameReader::Frame frame;
        FrameReader::Status status = FrameReader::Status::kNeedMore;
        while ((status = reader.next(frame)) == FrameReader::Status::kFrame) {
          if (!dispatch(conn, frame)) {
            // The connection is refused: frames behind the bad one are
            // discarded unread, not admitted, and being whole they are
            // not a truncation either.
            reader.reset();
            drop = true;
            break;
          }
        }
        if (status == FrameReader::Status::kPoisoned && !drop) {
          // Framing violation (zero/oversized length): unrecoverable.
          metrics_.on_oversized();
          refuse(*conn, "bad frame length");
          drop = true;
        }
        // A short read took everything the socket held.  Epoll is
        // level-triggered, so bytes arriving later are reported by the
        // next wait; another recv now would only return EAGAIN.  (With
        // EPOLLET this loop would have to drain to EAGAIN instead.)
        if (static_cast<std::size_t>(got) < rx.size()) break;
      }
      if (drop || peer_done) drop_connection(tag);
    }
  }

  for (auto& [tag, conn] : conns) {
    epoll.remove(conn->fd());
    conn->mark_closed();
    metrics_.on_connection_closed();
  }
  conns.clear();
}

void Server::worker_loop() {
  // A full 8-lane blocked pass costs roughly one block regardless of how
  // many lanes are live, so sparsely-filled blocks would *lose* to the
  // single-sample kernel.  Blocks are only formed from at least this many
  // queued requests; stragglers take the single-sample path (bit-exact
  // either way, so the split is invisible to clients).
  constexpr std::size_t kMinBlockLanes = 4;
  constexpr std::size_t kB = simd::kSampleBlock;

  /// One connection's frames from the current batch, flushed with a single
  /// write once the batch is computed.
  struct Outbox {
    std::shared_ptr<Connection> conn;
    std::vector<std::uint8_t> bytes;  ///< capacity reused across batches
    std::uint64_t frames = 0;
  };
  std::vector<Outbox> outboxes;  // [0, open) hold the current batch
  std::size_t open = 0;

  std::vector<ServeRequest*> batch;
  std::vector<ServeRequest*> ready;  // one route's requests awaiting predict
  std::string route;  // current route's model name (reused capacity)
  InferScratch scratch;
  BlockScratch block_scratch;
  std::size_t preds[kB];
  const simd::Isa isa = simd::active_isa();
  Departure why = Departure::kIdle;

  // Returns the outbox of r's connection, opening one on its first frame
  // in this batch, and counts the frame about to be appended as a response
  // (count-before-write: once a client has seen every response, every
  // response is in the counters, so a quiescent stats() snapshot always
  // balances against the batch histogram).  The outbox holds the
  // connection until the flush, so r can go back to the pool at once.
  const auto outbox = [&](ServeRequest* r) -> std::vector<std::uint8_t>& {
    metrics_.on_response(elapsed_us(r->admitted));
    std::size_t k = 0;
    while (k < open && outboxes[k].conn != r->conn) ++k;
    if (k == open) {
      if (open == outboxes.size()) outboxes.emplace_back();
      outboxes[k].conn = r->conn;
      outboxes[k].bytes.clear();
      outboxes[k].frames = 0;
      ++open;
    }
    ++outboxes[k].frames;
    return outboxes[k].bytes;
  };

  while (batcher_.pop_batch(batch, &why)) {
    metrics_.on_batch(batch.size(), why);
    // Route the batch: one pass per distinct model name.  Mixed batches
    // are rare (one model dominates any given deployment) and the claim
    // sweep is a pointer scan, so this costs nothing in the common
    // single-route case while keeping the whole batch's admission order
    // within each route.
    std::size_t remaining = batch.size();
    std::size_t first = 0;
    while (remaining > 0) {
      while (batch[first] == nullptr) ++first;
      route.assign(batch[first]->model_name);
      ready.clear();
      for (std::size_t k = first; k < batch.size(); ++k) {
        if (batch[k] != nullptr && batch[k]->model_name == route) {
          ready.push_back(batch[k]);
          batch[k] = nullptr;
          --remaining;
        }
      }

      // Pin one design for the whole route: every member is served — and
      // version-tagged — by the same snapshot, whatever swaps land
      // concurrently on this or any other model.
      const std::shared_ptr<const ServedModel> model = registry_->get(route);
      if (model == nullptr) {
        // Unreachable today (admission validates the name and registry
        // entries are never removed), but a typed reject keeps the
        // accounting identities intact if that ever changes.
        for (ServeRequest* r : ready) {
          metrics_.on_predict_error();
          encode_error_v2(outbox(r), ErrorCode::kUnknownModel, "unknown model: " + route);
          pool_.release(r);
        }
        continue;
      }
      const std::size_t want = model->mlp.input_size();
      const int input_bits = model->mlp.input_bits();

      const auto respond = [&](ServeRequest* r, std::size_t cls) {
        encode_predict_resp(outbox(r), r->id, model->version, static_cast<std::uint32_t>(cls));
        pool_.release(r);
      };

      std::size_t fill = 0;  // compact width-mismatch rejects out of `ready`
      for (ServeRequest* r : ready) {
        if (r->features.size() != want) {
          metrics_.on_predict_error();
          if (r->v2) {
            encode_error_v2(outbox(r), ErrorCode::kWidthMismatch, "feature count mismatch");
          } else {
            encode_error(outbox(r), "feature count mismatch");
          }
          pool_.release(r);
          continue;
        }
        ready[fill++] = r;
      }
      ready.resize(fill);
      // Same count-before-write rule for the per-model ledger: every entry
      // left in `ready` gets exactly one response from this snapshot, so
      // bump the ledger before anything hits the wire.
      if (!ready.empty()) registry_->count_responses(route, ready.size());

      // Multi-sample path: gather each lane's staged integer features into
      // the blocked buffer (feature-major, lane-minor) and classify kB
      // requests per CSR walk.  Lanes staged against a different bit
      // width (swap raced the admission) are re-quantized here.
      std::size_t i = 0;
      while (ready.size() - i >= kMinBlockLanes) {
        const std::size_t lanes = std::min(kB, ready.size() - i);
        block_scratch.xb.assign(want * kB, 0);
        for (std::size_t j = 0; j < lanes; ++j) {
          ServeRequest* r = ready[i + j];
          const std::int64_t* lane;
          if (r->staged_bits == input_bits) {
            lane = r->xq.data();
          } else {
            quantize_input_into(r->features, input_bits, block_scratch.xq);
            lane = block_scratch.xq.data();
          }
          for (std::size_t f = 0; f < want; ++f) {
            block_scratch.xb[f * kB + j] = lane[f];
          }
        }
        model->mlp.predict_block_into(block_scratch.xb.data(), lanes, block_scratch,
                                      preds, isa);
        for (std::size_t j = 0; j < lanes; ++j) respond(ready[i + j], preds[j]);
        i += lanes;
      }
      for (; i < ready.size(); ++i) {
        ServeRequest* r = ready[i];
        if (r->staged_bits == input_bits) {
          respond(r, model->mlp.predict_quantized_into(r->xq, scratch));
        } else {
          quantize_input_into(r->features, input_bits, scratch.xq);
          respond(r, model->mlp.predict_quantized_into(scratch.xq, scratch));
        }
      }
    }

    // One write per connection per batch.  A failed flush drops every
    // frame it carried; the other connections' outboxes are unaffected.
    for (std::size_t k = 0; k < open; ++k) {
      Outbox& o = outboxes[k];
      if (o.conn == nullptr || !o.conn->write_frame(o.bytes)) {
        metrics_.on_dropped_response(o.frames);
      }
      o.conn.reset();  // never pin a closed socket between batches
    }
    open = 0;
    batcher_.finish_batch();
  }
}

}  // namespace pnm::serve
