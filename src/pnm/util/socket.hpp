#ifndef PNM_UTIL_SOCKET_HPP
#define PNM_UTIL_SOCKET_HPP

/// \file socket.hpp
/// \brief Thin POSIX TCP + epoll helpers for the serving layer.
///
/// The serving layer (pnm/serve) needs exactly four things from the OS:
/// a listening socket, outbound connections, reliable full-buffer sends
/// on possibly-nonblocking descriptors, and an edge-free readiness loop.
/// These wrappers keep the raw fd plumbing (SIGPIPE suppression via
/// MSG_NOSIGNAL, EINTR retries, TCP_NODELAY for sub-millisecond
/// micro-batching, partial-write continuation) in one audited place, in
/// the same spirit as fileio.hpp for the persistence layer.  Linux-only
/// (epoll), like the flock-based store.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <sys/epoll.h>
#include <vector>

namespace pnm {

/// Creates a nonblocking TCP listening socket.
///
/// \param port           port to bind (0 picks an ephemeral port; read it
///                       back with local_port()).
/// \param loopback_only  bind 127.0.0.1 (benches/tests/CI) instead of all
///                       interfaces.
/// \param backlog        listen(2) backlog.
/// \param reuse_port     set SO_REUSEPORT before binding: several sockets
///                       may then share one port, the kernel spreading
///                       incoming connections across them — this is what
///                       gives each serve reactor its own accept queue.
///                       Every socket on the port must set it.
/// \return the listening fd, or -1 on failure (errno left set).
int tcp_listen(std::uint16_t port, bool loopback_only = true, int backlog = 128,
               bool reuse_port = false);

/// The port a bound socket actually listens on (resolves port 0).
///
/// \param fd  a bound socket.
/// \return the local port, or 0 on failure.
std::uint16_t tcp_local_port(int fd);

/// Blocking TCP connect with TCP_NODELAY set.  An EINTR during the
/// three-way handshake does NOT abort the attempt: POSIX keeps the
/// connection completing asynchronously (a naive retry loop would see
/// EALREADY and report a spurious failure), so the interrupted path
/// waits for writability and reads SO_ERROR for the real verdict.
///
/// \param host  IPv4 dotted-quad or "localhost".
/// \param port  target port.
/// \return the connected fd, or -1 on failure.
int tcp_connect(const std::string& host, std::uint16_t port);

/// Accepts one pending connection (nonblocking listen socket) and sets
/// the result nonblocking with TCP_NODELAY.  Retries through EINTR and
/// ECONNABORTED (a peer that connected and reset before accept(2) ran —
/// routine under fault injection — must not abort the accept sweep).
///
/// \param listen_fd  the listening socket.
/// \return the connection fd; -1 when nothing is pending or on error.
int tcp_accept(int listen_fd);

/// Marks `fd` nonblocking.
/// \param fd  any descriptor.
/// \return false on fcntl failure.
bool set_nonblocking(int fd);

/// Sends the whole buffer, retrying on EINTR and waiting (poll) through
/// EAGAIN on nonblocking sockets.  MSG_NOSIGNAL: a peer that vanished
/// yields false, never SIGPIPE.
///
/// The stall cap bounds how long the call tolerates *zero progress*: a
/// peer that stops draining its receive window would otherwise park the
/// sending thread forever on a full socket buffer.  The cap is wall
/// time since the last byte the kernel accepted, not total call time,
/// so a large buffer draining slowly-but-steadily still completes.
/// With N reactors sharing one worker pool a single stalled peer can
/// idle 1/workers of the predict capacity for the whole cap, which is
/// why it is now a parameter: serve response writes use a tighter cap
/// than the 5 s default (see Server).  EINTR during the wait does not
/// consume stall budget.
///
/// \param fd        connected socket.
/// \param data      bytes to send.
/// \param n         byte count.
/// \param stall_ms  give up after this many ms without a single byte of
///                  progress (>= 1; default 5000).
/// \return true when every byte was accepted by the kernel.
bool send_all(int fd, const void* data, std::size_t n, int stall_ms = 5000);

/// One recv(2) with EINTR retry.
///
/// \param fd   connected socket.
/// \param buf  destination buffer.
/// \param n    capacity.
/// \return bytes read (> 0); 0 on orderly close; -1 on error or — for
///         nonblocking sockets — when nothing is available (errno EAGAIN).
long recv_some(int fd, void* buf, std::size_t n);

/// A point on the steady clock by which a blocking receive must finish.
using Deadline = std::chrono::steady_clock::time_point;

/// The deadline `timeout_ms` from now; <= 0 means none (Deadline::max()).
Deadline deadline_in(int timeout_ms);

/// One recv(2), after waiting (poll, through EINTR) until `fd` is
/// readable or `deadline` passes.  With no deadline the wait is skipped:
/// a blocking fd blocks in recv, a nonblocking one reports EAGAIN.
///
/// \param fd        connected socket.
/// \param buf       destination buffer.
/// \param n         capacity.
/// \param deadline  give up at this time (Deadline::max(): never).
/// \return bytes read (> 0); 0 on orderly close; -1 on error, on timeout
///         (errno ETIMEDOUT), or when nothing was available (errno EAGAIN).
long recv_before(int fd, void* buf, std::size_t n, Deadline deadline);

/// Receives exactly `n` bytes on a blocking socket, bounded by a timeout.
///
/// \param fd          connected (blocking) socket.
/// \param buf         destination buffer.
/// \param n           bytes required.
/// \param timeout_ms  overall deadline; <= 0 waits forever.
/// \return true when all `n` bytes arrived.
bool recv_exact(int fd, void* buf, std::size_t n, int timeout_ms);

/// RAII epoll instance.  Level-triggered throughout: a connection with
/// bytes still unread is reported again on the next wait, so the serve IO
/// loop may stop reading at a short read instead of draining to EAGAIN,
/// and readiness cannot be lost across the admission queue's backpressure.
class Epoll {
 public:
  /// Creates the epoll instance (throws std::runtime_error on failure —
  /// this only fails on fd exhaustion, which is unrecoverable for a
  /// server anyway).
  Epoll();
  ~Epoll();
  Epoll(const Epoll&) = delete;
  Epoll& operator=(const Epoll&) = delete;

  /// Registers `fd` for `events` (EPOLLIN etc.) with user tag `data`.
  /// \return false on epoll_ctl failure.
  bool add(int fd, std::uint32_t events, std::uint64_t data);

  /// Unregisters `fd` (ignores failure: the fd may already be closed).
  void remove(int fd);

  /// Waits for events.
  ///
  /// \param out         receives ready events (resized to the count).
  /// \param timeout_ms  epoll_wait timeout; -1 blocks.
  /// \return number of ready events (0 on timeout); -1 on error other
  ///         than EINTR (EINTR reports 0).
  int wait(std::vector<epoll_event>& out, int timeout_ms);

 private:
  int fd_ = -1;
};

}  // namespace pnm

#endif  // PNM_UTIL_SOCKET_HPP
