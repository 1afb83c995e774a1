// qcap_serve: the networked query-routing front door (docs/SERVING.md).
//
// A `QueryRoutingServer` turns an installed (Classification, Allocation)
// pair — typically a `Layout` from `BuildLayout` — into a long-running TCP
// service speaking the length-prefixed line protocol: SUBMIT a query
// class, get back the backend(s) the QCAP scheduler routes it to, plus
// STATS / METRICS / HEALTH observability and FAULT injection.
//
// Architecture (the paper's Figure 3 middleware, reduced to its routing
// role): one I/O thread runs a poll(2) event loop over the listener and
// every client session. Sessions are buffered — bytes in, frames decoded
// incrementally, responses queued on a per-session write buffer flushed
// under POLLOUT — so a slow client never blocks the loop. Request
// execution goes through the shared `Dispatcher` under its single routing
// lock, which is what lets the embedding program take live snapshots from
// other threads while traffic flows.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "net/dispatcher.h"
#include "net/frame.h"
#include "net/socket.h"

namespace qcap::net {

/// Serving configuration (docs/SERVING.md, "Deployment & tuning").
struct ServerOptions {
  /// Bind address; serving is loopback-only by default.
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (see port()).
  uint16_t port = 0;
  /// Concurrent session ceiling; further connections are accepted and
  /// immediately closed after an `ERR BUSY` frame.
  size_t max_sessions = 64;
  /// Per-frame payload ceiling; a client declaring more gets
  /// `ERR FRAME_TOO_LARGE` and the session is closed (framing cannot
  /// resynchronize after a length lie).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Per-class token-bucket admission control.
  ServingLimits limits;
};

/// \brief Poll-loop TCP server routing query classes via the Dispatcher.
class QueryRoutingServer {
 public:
  /// Builds the routing table and binds the listening socket (the port is
  /// final after Create; Start only begins serving).
  static Result<std::unique_ptr<QueryRoutingServer>> Create(
      const Classification& cls, const Allocation& alloc,
      const ServerOptions& options);

  /// Stops and joins the I/O thread if still running.
  ~QueryRoutingServer();

  QueryRoutingServer(const QueryRoutingServer&) = delete;
  QueryRoutingServer& operator=(const QueryRoutingServer&) = delete;

  /// Spawns the I/O thread. Fails if already started.
  Status Start();

  /// Signals the I/O thread, closes every session, joins. Idempotent.
  void Stop();

  /// The bound TCP port (resolved even when options.port was 0).
  uint16_t port() const { return listener_.port(); }

  /// The shared routing state — safe to snapshot from any thread.
  Dispatcher& dispatcher() { return *dispatcher_; }
  const Dispatcher& dispatcher() const { return *dispatcher_; }

  /// Sessions accepted over the server's lifetime / open right now.
  uint64_t sessions_accepted() const {
    return sessions_accepted_.load(std::memory_order_relaxed);
  }
  size_t open_sessions() const {
    return open_sessions_.load(std::memory_order_relaxed);
  }

 private:
  /// One buffered client session owned by the poll loop.
  struct Session {
    Socket sock;
    FrameDecoder decoder;
    std::string outbuf;      ///< Encoded responses not yet written.
    size_t out_offset = 0;   ///< Prefix of outbuf already sent.
    bool closing = false;    ///< Flush outbuf, then close.
    explicit Session(Socket s, size_t max_frame)
        : sock(std::move(s)), decoder(max_frame) {}
  };

  QueryRoutingServer(std::unique_ptr<Dispatcher> dispatcher,
                     Listener listener, const ServerOptions& options);

  void Loop();
  void AcceptPending();
  /// Reads, decodes, executes; returns false when the session must close
  /// immediately (EOF / error).
  bool ServiceReadable(Session* session);
  /// Flushes the write buffer; returns false on a fatal write error.
  bool FlushWrites(Session* session);
  /// Monotonic seconds since Start (the one wall-clock source).
  double NowSeconds() const;

  std::unique_ptr<Dispatcher> dispatcher_;
  Listener listener_;
  ServerOptions options_;
  std::thread io_thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> sessions_accepted_{0};
  std::atomic<size_t> open_sessions_{0};
  int wake_pipe_[2] = {-1, -1};  ///< Stop() writes a byte to wake poll().
  /// Session table: written only by the IO thread inside Loop();
  /// Start()/Stop() touch it only before the thread starts / after it
  /// joins, so no lock is needed.
  QCAP_THREAD_CONFINED("io_thread_")
  std::vector<std::unique_ptr<Session>> sessions_;
  /// steady_clock origin captured by Start (epoch nanoseconds); written
  /// once before io_thread_ spawns, read-only afterwards.
  QCAP_THREAD_CONFINED("io_thread_")
  int64_t start_ns_ = 0;
};

}  // namespace qcap::net
