// avserved's network front-end: a single-threaded, level-triggered epoll
// event loop (accept / read / write, non-blocking fds) speaking AVNET001
// (server/protocol.h), with request handling fanned out onto a worker
// ThreadPool.
//
// Threading model:
//
//   loop thread    accept4 + recv into per-connection FrameDecoders + send
//                  from per-connection out-buffers (partial reads/writes are
//                  connection state, never blocking); wakes on an eventfd
//                  when workers produce output.
//   worker pool    complete frames are handed to the pool; frames of ONE
//                  connection are handled strictly in order by at most one
//                  worker at a time (a per-connection queue + busy flag), so
//                  responses come back in request order and per-connection
//                  session state needs no locking. Different connections
//                  proceed in parallel.
//
// Request handling reads one ValidationService snapshot per
// request (VALIDATE / VALIDATE_TABLE) or pins the open-time snapshot
// (SESSION_*), so no response ever mixes rule-store generations, no matter
// how training/retraining churns concurrently.
//
// Graceful drain (SHUTDOWN frame, RequestDrain(), SIGTERM in avserved):
// stop accepting, stop reading new bytes, finish every frame already
// received, flush every write buffer, then close and exit the loop.
// RequestDrain is async-signal-safe (an atomic store + eventfd write).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/rule_lifecycle.h"
#include "core/validation_service.h"
#include "server/protocol.h"

namespace av::net {

struct ServerConfig {
  /// Loopback by default: avserved is a pipeline-local sidecar; fronting a
  /// fleet is the distributed-indexing road-map item, not this daemon.
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; the bound port is Server::port()
  size_t num_workers = 0;  ///< 0 = hardware concurrency
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  int backlog = 64;
  /// SAVE_RULES target. Empty disables the endpoint.
  std::string rules_path;
  /// Per-connection cap on buffered reply bytes. A client that keeps
  /// sending requests but never drains its socket would otherwise hold
  /// every reply in `outbox` forever; past the cap the connection is
  /// evicted — buffered replies dropped, remaining queued frames
  /// discarded, socket closed. 0 disables the cap.
  size_t max_outbox_bytes = 64u << 20;
};

class Server {
 public:
  /// `service` must outlive the server. `lifecycle` is optional; when set,
  /// TRAIN routes through it (stamping TTL meta) and serving outcomes feed
  /// its violation counters.
  Server(ValidationService* service, ServerConfig cfg,
         RuleLifecycle* lifecycle = nullptr);
  ~Server();  ///< drains and joins

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the event loop thread.
  Status Start();

  /// The actually-bound port (after Start; resolves port 0).
  uint16_t port() const { return port_; }

  /// Begins the graceful drain. Async-signal-safe; idempotent.
  void RequestDrain();

  /// Waits for the event loop to finish draining and exit.
  void Join();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  // Counters (exported by the STATS endpoint; readable from tests).
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  uint64_t frames_handled() const;
  uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }
  uint64_t connections_evicted() const {
    return connections_evicted_.load(std::memory_order_relaxed);
  }

 private:
  struct ColumnSessionState {
    ValidationSession session;
    uint64_t store_version;
    std::string name;
  };
  struct TableSessionState {
    TableSession session;
    uint64_t rows_fed = 0;
  };

  /// Per-connection state. Fields are owned by exactly one side: the loop
  /// thread (decoder, epoll bookkeeping) or the currently-dispatched worker
  /// (sessions — serialized by `busy`); the handoff queue and out-buffer
  /// are the only shared fields, guarded by `mu`.
  struct Conn {
    Conn(int fd_in, uint32_t max_frame_bytes)
        : fd(fd_in), decoder(/*expect_hello=*/true, max_frame_bytes) {}

    const int fd;

    // --- loop thread only ---
    FrameDecoder decoder;
    bool want_write = false;  ///< EPOLLOUT armed
    bool read_closed = false;

    // --- shared (guarded by mu) ---
    std::mutex mu;
    std::deque<Frame> pending;
    bool busy = false;  ///< a worker currently owns `pending`/sessions
    std::string outbox;
    bool close_after_flush = false;
    /// Outbox cap tripped (slow reader): replies are dropped, queued
    /// frames discarded, and the loop thread reaps the connection as soon
    /// as the worker lets go.
    bool evicted = false;

    // --- worker only (serialized by busy) ---
    uint64_t next_session_id = 1;
    std::map<uint64_t, ColumnSessionState> column_sessions;
    std::map<uint64_t, TableSessionState> table_sessions;
  };

  void LoopMain();
  void AcceptAll();
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  /// Sends as much buffered output as the socket takes; arms EPOLLOUT on a
  /// partial write. Returns false when the connection should be reaped.
  bool FlushConn(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void Wake();

  /// Worker-side: drains `conn`'s pending queue in order.
  void HandlerLoop(std::shared_ptr<Conn> conn);
  /// Dispatches one request frame; returns the encoded reply frame.
  std::string HandleFrame(Conn* conn, const Frame& frame);

  /// Encodes a kReplyOk / kReplyError frame (and counts it).
  std::string OkReply(std::string payload);
  std::string ErrorReply(const Status& st);

  std::string HandleValidate(WireReader& r);
  std::string HandleValidateTable(WireReader& r);
  std::string HandleSessionOpen(Conn* conn, WireReader& r);
  std::string HandleSessionFeed(Conn* conn, WireReader& r);
  std::string HandleSessionFinish(Conn* conn, WireReader& r);
  std::string HandleTrain(WireReader& r);
  std::string HandleSaveRules();
  std::string HandleStats();

  ValidationService* service_;
  RuleLifecycle* lifecycle_;
  ServerConfig cfg_;
  ThreadPool pool_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd; open from Start until ~Server
  uint16_t port_ = 0;
  std::thread loop_;

  // Loop-thread-only connection table.
  std::map<int, std::shared_ptr<Conn>> conns_;

  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> in_flight_{0};  ///< frames received, reply not queued

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> connections_evicted_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> replies_ok_{0};
  std::atomic<uint64_t> replies_error_{0};
  /// Per-opcode handled-frame counts, indexed by request opcode.
  std::array<std::atomic<uint64_t>, 16> frames_by_opcode_{};
  uint64_t started_at_ms_ = 0;
};

}  // namespace av::net
