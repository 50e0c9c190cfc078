#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <utility>

#include "common/strings.h"
#include "core/validator.h"

namespace av::net {

namespace {

uint64_t WallMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

void PutReport(WireWriter* w, const ValidationReport& report) {
  w->PutU64(report.total);
  w->PutU64(report.nonconforming);
  w->PutF64(report.theta_test);
  w->PutF64(report.p_value);
  w->PutU8(report.flagged ? 1 : 0);
  w->PutU32(static_cast<uint32_t>(report.sample_violations.size()));
  for (const std::string& v : report.sample_violations) w->PutStr(v);
}

void PutTableReport(WireWriter* w, const TableReport& table) {
  w->PutU64(table.store_version);
  w->PutU32(static_cast<uint32_t>(table.columns.size()));
  for (const TableReport::ColumnOutcome& col : table.columns) {
    w->PutStr(col.name);
    w->PutU8(col.status.ok() ? 1 : 0);
    PutReport(w, col.report);
  }
}

/// Feeds the verdict of every column that has a rule to the lifecycle's
/// violation counter.
void RecordOutcomes(RuleLifecycle* lifecycle, const TableReport& table) {
  if (lifecycle == nullptr) return;
  for (const TableReport::ColumnOutcome& col : table.columns) {
    if (col.status.ok()) lifecycle->RecordOutcome(col.name, col.report.flagged);
  }
}

}  // namespace

Server::Server(ValidationService* service, ServerConfig cfg,
               RuleLifecycle* lifecycle)
    : service_(service),
      lifecycle_(lifecycle),
      cfg_(std::move(cfg)),
      pool_(cfg_.num_workers) {}

Server::~Server() {
  RequestDrain();
  Join();
  // The eventfd outlives the loop and the handlers: a handler wakes the
  // loop as it finishes, which can be after the loop has seen the server
  // idle and exited, so the fd closes only once every handler has returned.
  pool_.Wait();
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " + cfg_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status st = Status::IOError(
        StrFormat("bind %s:%u: %s", cfg_.bind_address.c_str(),
                  static_cast<unsigned>(cfg_.port), std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, cfg_.backlog) != 0) {
    const Status st =
        Status::IOError(StrFormat("listen: %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    return Status::IOError("epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  started_at_ms_ = WallMs();
  loop_ = std::thread([this] { LoopMain(); });
  return Status::OK();
}

void Server::RequestDrain() {
  // Async-signal-safe: one atomic store + one write(2) on the eventfd.
  draining_.store(true, std::memory_order_release);
  Wake();
}

void Server::Join() {
  if (loop_.joinable()) loop_.join();
}

void Server::Wake() {
  if (wake_fd_ < 0) return;
  const uint64_t v = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &v, sizeof(v));
}

uint64_t Server::frames_handled() const {
  uint64_t total = 0;
  for (const auto& c : frames_by_opcode_) {
    total += c.load(std::memory_order_relaxed);
  }
  return total;
}

// ---------------------------------------------------------------- the loop

void Server::LoopMain() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool accepting = true;

  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, 100);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        AcceptAll();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drainv = 0;
        while (::read(wake_fd_, &drainv, sizeof(drainv)) > 0) {
        }
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // reaped earlier this tick
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        HandleReadable(it->second);
      }
      // EPOLLOUT readiness is folded into the flush-all pass below.
    }

    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && accepting) {
      // Stop accepting and stop reading: in-flight frames still finish and
      // their replies still flush, but no new work enters.
      accepting = false;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
      for (auto& [fd, conn] : conns_) {
        (void)fd;
        if (!conn->read_closed) {
          conn->read_closed = true;
          ::shutdown(conn->fd, SHUT_RD);
          epoll_event ev{};
          ev.events = conn->want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u;
          ev.data.fd = conn->fd;
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
        }
      }
    }

    // Flush every connection with buffered output (worker wakeups do not
    // say which connection produced it; the table is small) and reap the
    // ones that are done.
    std::vector<int> dead;
    for (auto& [fd, conn] : conns_) {
      if (!FlushConn(conn)) dead.push_back(fd);
    }
    for (const int fd : dead) {
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      CloseConn(it->second);
      conns_.erase(it);
    }

    if (draining && in_flight_.load(std::memory_order_acquire) == 0) {
      bool idle = true;
      for (auto& [fd, conn] : conns_) {
        (void)fd;
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->busy || !conn->pending.empty() || !conn->outbox.empty()) {
          idle = false;
          break;
        }
      }
      if (idle) break;
    }
  }

  // Drained: every accepted frame is answered and flushed; close up shop.
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    CloseConn(conn);
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::close(epoll_fd_);
  epoll_fd_ = -1;
}

void Server::AcceptAll() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient accept error: try later
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>(fd, cfg_.max_frame_bytes);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_.emplace(fd, std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::HandleReadable(const std::shared_ptr<Conn>& conn) {
  if (conn->read_closed) return;
  {
    // An evicted connection is on its way to the reaper; parsing more of
    // its requests would only queue frames whose replies get dropped.
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->evicted) return;
  }
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      const Status st =
          conn->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
      if (!st.ok()) {
        // Broken framing has no recoverable frame boundary: answer with the
        // error, then close once the reply (and any earlier replies) flush.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        WireWriter w;
        w.PutU8(static_cast<uint8_t>(st.code()));
        w.PutStr(st.message());
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          conn->outbox += EncodeFrame(
              static_cast<uint8_t>(Opcode::kReplyError), w.str());
          conn->close_after_flush = true;
        }
        conn->read_closed = true;
        ::shutdown(conn->fd, SHUT_RD);
        break;
      }
      continue;
    }
    if (n == 0) {  // orderly EOF: finish what we have, then close
      conn->read_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    // Hard transport error: drop buffered output and reap.
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->outbox.clear();
    conn->close_after_flush = true;
    conn->read_closed = true;
    return;
  }

  // Hand complete frames to the worker pool, one dispatcher per
  // connection at a time (in-order replies, lock-free session state).
  Frame frame;
  bool submit = false;
  while (conn->decoder.Next(&frame)) {
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->pending.push_back(std::move(frame));
    if (!conn->busy) {
      conn->busy = true;
      submit = true;
    }
  }
  if (submit) {
    std::shared_ptr<Conn> owned = conn;
    pool_.Submit([this, owned = std::move(owned)]() mutable {
      HandlerLoop(std::move(owned));
    });
  }
}

bool Server::FlushConn(const std::shared_ptr<Conn>& conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->evicted) {
    // Slow reader over the outbox cap: nothing will be flushed; reap as
    // soon as no worker still owns the connection (the worker drains the
    // queued frames, settling the in-flight accounting, then lets go).
    return conn->busy || !conn->pending.empty();
  }
  while (!conn->outbox.empty()) {
    const ssize_t n = ::send(conn->fd, conn->outbox.data(),
                             conn->outbox.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->outbox.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        epoll_event ev{};
        ev.events = (conn->read_closed ? 0u : EPOLLIN) | EPOLLOUT;
        ev.data.fd = conn->fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
      }
      return true;  // socket full; EPOLLOUT will bring us back
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer went away: reap
  }
  if (conn->want_write) {
    conn->want_write = false;
    epoll_event ev{};
    ev.events = conn->read_closed ? 0u : EPOLLIN;
    ev.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }
  const bool done = (conn->close_after_flush || conn->read_closed) &&
                    conn->pending.empty() && !conn->busy;
  return !done;
}

void Server::CloseConn(const std::shared_ptr<Conn>& conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
}

// -------------------------------------------------------------- the workers

void Server::HandlerLoop(std::shared_ptr<Conn> conn) {
  for (;;) {
    Frame frame;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->evicted) {
        // Discard frames whose replies would be dropped anyway; the
        // decrement keeps the drain accounting exact so a graceful
        // shutdown doesn't wait on them.
        in_flight_.fetch_sub(conn->pending.size(),
                             std::memory_order_acq_rel);
        conn->pending.clear();
        conn->busy = false;
        break;
      }
      if (conn->pending.empty()) {
        conn->busy = false;
        break;
      }
      frame = std::move(conn->pending.front());
      conn->pending.pop_front();
    }
    std::string reply = HandleFrame(conn.get(), frame);
    bool evicted_now = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->evicted) {
        conn->outbox += reply;
        if (cfg_.max_outbox_bytes != 0 &&
            conn->outbox.size() > cfg_.max_outbox_bytes) {
          // The client is not draining its socket; dropping the buffer —
          // not just capping it — is the point, so release the capacity.
          conn->evicted = true;
          std::string().swap(conn->outbox);
          evicted_now = true;
        }
      }
    }
    if (evicted_now) {
      connections_evicted_.fetch_add(1, std::memory_order_relaxed);
    }
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    Wake();
  }
  Wake();
}

std::string Server::OkReply(std::string payload) {
  replies_ok_.fetch_add(1, std::memory_order_relaxed);
  return EncodeFrame(static_cast<uint8_t>(Opcode::kReplyOk), payload);
}

std::string Server::ErrorReply(const Status& st) {
  replies_error_.fetch_add(1, std::memory_order_relaxed);
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(st.code()));
  w.PutStr(st.message());
  return EncodeFrame(static_cast<uint8_t>(Opcode::kReplyError), w.str());
}

std::string Server::HandleFrame(Conn* conn, const Frame& frame) {
  if (!IsRequestOpcode(frame.opcode)) {
    return ErrorReply(Status::InvalidArgument(
        StrFormat("unknown opcode 0x%02x", frame.opcode)));
  }
  frames_by_opcode_[frame.opcode & 0x0f].fetch_add(1,
                                                   std::memory_order_relaxed);
  WireReader r(frame.payload);
  switch (static_cast<Opcode>(frame.opcode)) {
    case Opcode::kValidate:
      return HandleValidate(r);
    case Opcode::kValidateTable:
      return HandleValidateTable(r);
    case Opcode::kSessionOpen:
      return HandleSessionOpen(conn, r);
    case Opcode::kSessionFeed:
      return HandleSessionFeed(conn, r);
    case Opcode::kSessionFinish:
      return HandleSessionFinish(conn, r);
    case Opcode::kTrain:
      return HandleTrain(r);
    case Opcode::kSaveRules:
      if (!r.Done()) {
        return ErrorReply(
            Status::InvalidArgument("malformed SAVE_RULES payload"));
      }
      return HandleSaveRules();
    case Opcode::kStats:
      if (!r.Done()) {
        return ErrorReply(Status::InvalidArgument("malformed STATS payload"));
      }
      return HandleStats();
    case Opcode::kShutdown: {
      if (!r.Done()) {
        return ErrorReply(
            Status::InvalidArgument("malformed SHUTDOWN payload"));
      }
      // Ack first, then drain: the reply is flushed as part of the drain's
      // finish-in-flight guarantee.
      std::string reply = OkReply(std::string());
      RequestDrain();
      return reply;
    }
    default:
      return ErrorReply(Status::InvalidArgument("unknown opcode"));
  }
}

std::string Server::HandleValidate(WireReader& r) {
  const std::string name(r.GetStr());
  const std::vector<std::string> values = r.GetValues();
  if (!r.Done()) {
    return ErrorReply(Status::InvalidArgument("malformed VALIDATE payload"));
  }
  // One snapshot per request: rule lookup and judgement come from
  // the same store generation, and the reply says which.
  const auto snapshot = service_->Snapshot();
  const auto* entry = snapshot->rules.Find(name);
  if (entry == nullptr) {
    return ErrorReply(
        Status::NotFound("no rule for column '" + name + "'"));
  }
  const ValidationReport report =
      ValidateColumn(*entry->rule, ColumnView(values),
                     service_->options().max_sample_violations);
  if (lifecycle_ != nullptr) lifecycle_->RecordOutcome(name, report.flagged);
  WireWriter w;
  w.PutU64(snapshot->version);
  PutReport(&w, report);
  return OkReply(w.Take());
}

std::string Server::HandleValidateTable(WireReader& r) {
  const uint32_t ncols = r.GetU32();
  // Each column costs >= 8 bytes (two length prefixes): forged counts are
  // rejected before any allocation.
  if (!r.ok() || ncols > r.remaining() / 8) {
    return ErrorReply(
        Status::InvalidArgument("malformed VALIDATE_TABLE payload"));
  }
  std::vector<std::pair<std::string, std::vector<std::string>>> cols;
  cols.reserve(ncols);
  for (uint32_t i = 0; i < ncols && r.ok(); ++i) {
    std::string name(r.GetStr());
    std::vector<std::string> values = r.GetValues();
    cols.emplace_back(std::move(name), std::move(values));
  }
  if (!r.Done()) {
    return ErrorReply(
        Status::InvalidArgument("malformed VALIDATE_TABLE payload"));
  }
  std::vector<NamedColumn> named;
  named.reserve(cols.size());
  for (const auto& [name, values] : cols) {
    named.push_back({name, ColumnView(values)});
  }
  // ValidateAll loads ONE snapshot and judges every column by it.
  const TableReport table = service_->ValidateAll(named);
  RecordOutcomes(lifecycle_, table);
  WireWriter w;
  PutTableReport(&w, table);
  return OkReply(w.Take());
}

std::string Server::HandleSessionOpen(Conn* conn, WireReader& r) {
  const uint8_t kind = r.GetU8();
  if (kind == 0) {
    const std::string name(r.GetStr());
    if (!r.Done()) {
      return ErrorReply(
          Status::InvalidArgument("malformed SESSION_OPEN payload"));
    }
    const auto snapshot = service_->Snapshot();
    const auto* entry = snapshot->rules.Find(name);
    if (entry == nullptr) {
      return ErrorReply(
          Status::NotFound("no rule for column '" + name + "'"));
    }
    const uint64_t id = conn->next_session_id++;
    conn->column_sessions.emplace(
        id, ColumnSessionState{
                ValidationSession(entry->rule,
                                  service_->options().max_sample_violations),
                snapshot->version, name});
    WireWriter w;
    w.PutU64(id);
    w.PutU64(snapshot->version);
    return OkReply(w.Take());
  }
  if (kind == 1) {
    if (!r.Done()) {
      return ErrorReply(
          Status::InvalidArgument("malformed SESSION_OPEN payload"));
    }
    const uint64_t id = conn->next_session_id++;
    TableSessionState state{service_->OpenTableSession(), 0};
    const uint64_t version = state.session.store_version();
    conn->table_sessions.emplace(id, std::move(state));
    WireWriter w;
    w.PutU64(id);
    w.PutU64(version);
    return OkReply(w.Take());
  }
  return ErrorReply(Status::InvalidArgument("bad session kind"));
}

std::string Server::HandleSessionFeed(Conn* conn, WireReader& r) {
  const uint64_t id = r.GetU64();
  if (const auto it = conn->column_sessions.find(id);
      it != conn->column_sessions.end()) {
    const std::vector<std::string> values = r.GetValues();
    if (!r.Done()) {
      return ErrorReply(
          Status::InvalidArgument("malformed SESSION_FEED payload"));
    }
    it->second.session.Feed(ColumnView(values));
    WireWriter w;
    w.PutU64(it->second.session.stats().total);
    return OkReply(w.Take());
  }
  if (const auto it = conn->table_sessions.find(id);
      it != conn->table_sessions.end()) {
    const uint32_t ncols = r.GetU32();
    if (!r.ok() || ncols > r.remaining() / 8) {
      return ErrorReply(
          Status::InvalidArgument("malformed SESSION_FEED payload"));
    }
    std::vector<std::pair<std::string, std::vector<std::string>>> cols;
    cols.reserve(ncols);
    for (uint32_t i = 0; i < ncols && r.ok(); ++i) {
      std::string name(r.GetStr());
      std::vector<std::string> values = r.GetValues();
      cols.emplace_back(std::move(name), std::move(values));
    }
    if (!r.Done()) {
      return ErrorReply(
          Status::InvalidArgument("malformed SESSION_FEED payload"));
    }
    for (const auto& [name, values] : cols) {
      it->second.session.Feed(name, ColumnView(values));
      it->second.rows_fed += values.size();
    }
    WireWriter w;
    w.PutU64(it->second.rows_fed);
    return OkReply(w.Take());
  }
  return ErrorReply(Status::NotFound(
      StrFormat("no open session %llu", static_cast<unsigned long long>(id))));
}

std::string Server::HandleSessionFinish(Conn* conn, WireReader& r) {
  const uint64_t id = r.GetU64();
  if (!r.Done()) {
    return ErrorReply(
        Status::InvalidArgument("malformed SESSION_FINISH payload"));
  }
  if (const auto it = conn->column_sessions.find(id);
      it != conn->column_sessions.end()) {
    const ValidationReport report = it->second.session.Finish();
    if (lifecycle_ != nullptr) {
      lifecycle_->RecordOutcome(it->second.name, report.flagged);
    }
    WireWriter w;
    w.PutU64(it->second.store_version);
    PutReport(&w, report);
    conn->column_sessions.erase(it);
    return OkReply(w.Take());
  }
  if (const auto it = conn->table_sessions.find(id);
      it != conn->table_sessions.end()) {
    const TableReport table = it->second.session.Finish();
    RecordOutcomes(lifecycle_, table);
    WireWriter w;
    PutTableReport(&w, table);
    conn->table_sessions.erase(it);
    return OkReply(w.Take());
  }
  return ErrorReply(Status::NotFound(
      StrFormat("no open session %llu", static_cast<unsigned long long>(id))));
}

std::string Server::HandleTrain(WireReader& r) {
  const uint8_t method_raw = r.GetU8();
  const uint64_t ttl_ms = r.GetU64();
  const std::string name(r.GetStr());
  const std::vector<std::string> values = r.GetValues();
  if (!r.Done() || method_raw > static_cast<uint8_t>(Method::kFmdvVH)) {
    return ErrorReply(Status::InvalidArgument("malformed TRAIN payload"));
  }
  if (name.empty()) {
    return ErrorReply(Status::InvalidArgument("empty column name"));
  }
  const Method method = static_cast<Method>(method_raw);
  Result<ValidationRule> rule =
      lifecycle_ != nullptr
          ? lifecycle_->Train(name, ColumnView(values), method,
                              ttl_ms == 0
                                  ? std::nullopt
                                  : std::optional<uint64_t>(ttl_ms))
          : service_->Train(name, ColumnView(values), method);
  if (!rule.ok()) return ErrorReply(rule.status());
  WireWriter w;
  w.PutU64(service_->version());
  w.PutStr(rule->Describe());
  return OkReply(w.Take());
}

std::string Server::HandleSaveRules() {
  if (cfg_.rules_path.empty()) {
    return ErrorReply(
        Status::InvalidArgument("no rules path configured (--rules)"));
  }
  const Status st = service_->Save(cfg_.rules_path);
  if (!st.ok()) return ErrorReply(st);
  WireWriter w;
  w.PutStr(cfg_.rules_path);
  return OkReply(w.Take());
}

std::string Server::HandleStats() {
  const auto snapshot = service_->Snapshot();
  std::string text;
  text += StrFormat("uptime_ms=%llu\n",
                    static_cast<unsigned long long>(WallMs() -
                                                    started_at_ms_));
  text += StrFormat(
      "connections_accepted=%llu\nconnections_active=%llu\n",
      static_cast<unsigned long long>(
          connections_accepted_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          connections_accepted_.load(std::memory_order_relaxed) -
          connections_closed_.load(std::memory_order_relaxed)));
  text += StrFormat("connections_evicted=%llu\n",
                    static_cast<unsigned long long>(connections_evicted_.load(
                        std::memory_order_relaxed)));
  static constexpr struct {
    Opcode op;
    const char* name;
  } kOps[] = {
      {Opcode::kValidate, "validate"},
      {Opcode::kValidateTable, "validate_table"},
      {Opcode::kSessionOpen, "session_open"},
      {Opcode::kSessionFeed, "session_feed"},
      {Opcode::kSessionFinish, "session_finish"},
      {Opcode::kTrain, "train"},
      {Opcode::kSaveRules, "save_rules"},
      {Opcode::kStats, "stats"},
      {Opcode::kShutdown, "shutdown"},
  };
  for (const auto& [op, opname] : kOps) {
    text += StrFormat(
        "frames_%s=%llu\n", opname,
        static_cast<unsigned long long>(
            frames_by_opcode_[static_cast<uint8_t>(op) & 0x0f].load(
                std::memory_order_relaxed)));
  }
  text += StrFormat(
      "replies_ok=%llu\nreplies_error=%llu\nprotocol_errors=%llu\n",
      static_cast<unsigned long long>(
          replies_ok_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          replies_error_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          protocol_errors_.load(std::memory_order_relaxed)));
  text += StrFormat("store_version=%llu\nstore_rules=%llu\n",
                    static_cast<unsigned long long>(snapshot->version),
                    static_cast<unsigned long long>(snapshot->rules.size()));
  if (lifecycle_ != nullptr) {
    text += StrFormat(
        "lifecycle_retrains=%llu\nlifecycle_retrains_failed=%llu\n"
        "lifecycle_retrains_skipped=%llu\nlifecycle_scans=%llu\n",
        static_cast<unsigned long long>(lifecycle_->retrains_completed()),
        static_cast<unsigned long long>(lifecycle_->retrains_failed()),
        static_cast<unsigned long long>(lifecycle_->retrains_skipped()),
        static_cast<unsigned long long>(lifecycle_->scans()));
  }
  text += StrFormat("draining=%d\n", draining() ? 1 : 0);
  WireWriter w;
  w.PutStr(text);
  return OkReply(w.Take());
}

}  // namespace av::net
