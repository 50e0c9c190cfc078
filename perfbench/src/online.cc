// Online half: the initial rule set, the server process (configured as
// avserved configures itself, with every thread count explicit) and the
// session runner — restart, onboard with TRAIN, validate held-out batches —
// either over loopback (serve_loopback) or in process (the lake workloads),
// checked reply by reply against an in-process reference.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "avbench.h"
#include "common/durable_file.h"
#include "core/rule_lifecycle.h"
#include "core/validation_service.h"
#include "corpus/format.h"
#include "pattern/tokenized_column.h"
#include "server/protocol.h"
#include "server/server.h"

extern char** environ;

namespace avbench {

namespace net = av::net;

namespace {

/// The serving configuration of avserved (min_coverage 5), with the
/// ValidationService pool sized explicitly.
av::AutoValidateOptions ServingOptions() {
  av::AutoValidateOptions opts;
  opts.min_coverage = 5;
  return opts;
}

constexpr size_t kServicePoolThreads = 1;
constexpr size_t kServerWorkers = 1;
constexpr size_t kConnections = 2;
/// The in-process session calls the library from one thread, as the
/// server's one worker runs requests one at a time. Two in-process callers
/// train concurrently, and their contention in ValidationService::Upsert
/// made the TRAIN p50 depend on which columns the seed's request order
/// paired up (0.30-0.36 ms for one seed, 0.40-0.44 ms for another, in
/// every set of runs).
constexpr size_t kLocalCallers = 1;
/// An unstepped session runs at least this many rounds.
constexpr size_t kMinRounds = 3;

av::Result<av::Corpus> LoadLake(const std::string& dir) {
  return av::LoadLakeFromDir(dir, av::LakeFormat::kCsv);
}

}  // namespace

av::Result<RulesSummary> TrainInitialRules(const std::string& lake_dir,
                                           const av::PatternIndex& index, size_t threads,
                                           const std::string& rules_path) {
  auto lake = LoadLake(lake_dir);
  if (!lake.ok()) return lake.status();
  const Plan plan = MakePlan(*lake);
  av::ValidationService service(&index, ServingOptions(), threads);
  std::vector<av::NamedColumn> cols;
  for (size_t c : plan.initial) {
    cols.push_back({plan.columns[c].name, av::ColumnView(plan.columns[c].train)});
  }
  RulesSummary summary;
  summary.attempted = cols.size();
  for (const auto& o : service.TrainAll(cols)) summary.stored += o.status.ok() ? 1 : 0;
  AV_RETURN_NOT_OK(service.Save(rules_path));
  return summary;
}

int CmdRules(const Args& args) {
  const auto t0 = Clock::now();
  auto index = av::PatternIndex::Load(args.Str("index"));
  if (!index.ok()) return Fail("load index: " + index.status().ToString());
  auto summary =
      TrainInitialRules(args.Str("lake"), *index, args.U64("threads", 2), args.Str("rules"));
  if (!summary.ok()) return Fail("initial rules: " + summary.status().ToString());
  JsonOut out;
  out.Num("rules_s", SecondsSince(t0));
  out.Int("initial_columns", summary->attempted);
  out.Int("initial_rules", summary->stored);
  out.Print();
  return 0;
}

// ------------------------------------------------------------------ server

int CmdServe(const Args& args) {
  // The session that started this server owns it: never outlive it.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() == 1) return Fail("the session exited before the server started");
  const auto t0 = Clock::now();
  auto index = av::PatternIndex::Load(args.Str("index"));
  if (!index.ok()) return Fail("load index: " + index.status().ToString());
  const double index_load_s = SecondsSince(t0);

  const auto t1 = Clock::now();
  av::ValidationService service(&*index, ServingOptions(), kServicePoolThreads);
  const av::Status loaded = service.Load(args.Str("rules"));
  if (!loaded.ok()) return Fail("load rules: " + loaded.ToString());
  const double rules_load_s = SecondsSince(t1);

  av::RuleLifecycle lifecycle(&service, av::RuleLifecycleOptions{});
  net::ServerConfig cfg;
  cfg.num_workers = kServerWorkers;
  cfg.rules_path = args.Str("rules");
  const auto t2 = Clock::now();
  net::Server server(&service, cfg, &lifecycle);
  const av::Status started = server.Start();
  if (!started.ok()) return Fail("start: " + started.ToString());
  const double start_s = SecondsSince(t2);
  lifecycle.StartScanner();
  std::printf("listening on 127.0.0.1:%u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  server.Join();
  lifecycle.StopScanner();
  JsonOut out;
  out.Num("index_load_s", index_load_s);
  out.Num("rules_load_s", rules_load_s);
  out.Num("start_s", start_s);
  out.Num("peak_rss_mb", PeakRssMb());
  std::ofstream(args.Str("report")) << out.Render() << "\n";
  return 0;
}

namespace {

/// An avbench child process (server or restart probe) whose first stdout
/// line is read back; killed and reaped on every path.
class ChildProcess {
 public:
  ChildProcess() = default;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ~ChildProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_ != nullptr) std::fclose(out_);
  }

  av::Status Spawn(const std::vector<std::string>& argv) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) return av::Status::IOError("pipe");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    std::vector<char*> cargv;
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    const std::string exe = std::filesystem::read_symlink("/proc/self/exe").string();
    const int rc = posix_spawn(&pid_, exe.c_str(), &fa, nullptr, cargv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    if (rc != 0) {
      pid_ = -1;
      close(fds[0]);
      return av::Status::IOError(std::string("spawn: ") + std::strerror(rc));
    }
    out_ = fdopen(fds[0], "r");
    return av::Status::OK();
  }

  /// The child's first line of output.
  av::Result<std::string> Line() {
    char line[4096];
    if (out_ == nullptr || std::fgets(line, sizeof(line), out_) == nullptr) {
      return av::Status::IOError("child exited without output");
    }
    return std::string(line);
  }

  /// Reads a server's "listening on ADDR:PORT" line.
  av::Result<uint16_t> Port() {
    auto line = Line();
    if (!line.ok()) return line.status();
    const size_t colon = line->rfind(':');
    if (colon == std::string::npos) return av::Status::Corruption("bad line: " + *line);
    return static_cast<uint16_t>(std::strtoul(line->c_str() + colon + 1, nullptr, 10));
  }

  /// Waits for a clean exit; returns the child's peak RSS in MiB.
  av::Result<double> Wait() {
    int status = 0;
    rusage ru{};
    const pid_t pid = pid_;
    pid_ = -1;
    if (wait4(pid, &status, 0, &ru) != pid) return av::Status::IOError("wait4");
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return av::Status::Internal("server exited abnormally");
    }
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

 private:
  pid_t pid_ = -1;
  FILE* out_ = nullptr;
};

// --------------------------------------------------------- replies

/// One decoded reply, in the form every check compares.
struct ColumnResult {
  std::string name;
  bool has_rule = false;
  av::ValidationReport report;
};
struct Outcome {
  bool ok = false;
  std::string error;  ///< "code:message" when !ok
  uint64_t version = 0;
  std::string rule;   ///< TRAIN: the rule's description
  std::vector<ColumnResult> columns;
};

bool SameReport(const av::ValidationReport& a, const av::ValidationReport& b) {
  return a.total == b.total && a.nonconforming == b.nonconforming &&
         a.theta_test == b.theta_test && a.p_value == b.p_value &&
         a.flagged == b.flagged && a.sample_violations == b.sample_violations;
}

/// Equal apart from the store version (checked on its own).
bool SameOutcome(const Outcome& a, const Outcome& b) {
  if (a.ok != b.ok || a.error != b.error || a.rule != b.rule ||
      a.columns.size() != b.columns.size()) {
    return false;
  }
  for (size_t i = 0; i < a.columns.size(); ++i) {
    const ColumnResult& x = a.columns[i];
    const ColumnResult& y = b.columns[i];
    if (x.name != y.name || x.has_rule != y.has_rule) return false;
    if (x.has_rule && !SameReport(x.report, y.report)) return false;
  }
  return true;
}

std::string ErrorText(const av::Status& st) {
  return std::to_string(static_cast<int>(st.code())) + ":" + st.message();
}

av::ValidationReport GetReport(net::WireReader& r) {
  av::ValidationReport rep;
  rep.total = r.GetU64();
  rep.nonconforming = r.GetU64();
  rep.theta_test = r.GetF64();
  rep.p_value = r.GetF64();
  rep.flagged = r.GetU8() != 0;
  const uint32_t n = r.GetU32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) rep.sample_violations.emplace_back(r.GetStr());
  return rep;
}

enum class Kind : uint8_t { kTrain, kValidate, kTable };

/// Decodes a reply frame; nullopt when it is malformed.
std::optional<Outcome> Decode(Kind kind, const net::Frame& f) {
  Outcome o;
  net::WireReader r(f.payload);
  if (f.opcode == static_cast<uint8_t>(net::Opcode::kReplyError)) {
    const uint8_t code = r.GetU8();
    o.error = std::to_string(code) + ":" + std::string(r.GetStr());
    if (!r.Done()) return std::nullopt;
    return o;
  }
  if (f.opcode != static_cast<uint8_t>(net::Opcode::kReplyOk)) return std::nullopt;
  o.ok = true;
  o.version = r.GetU64();
  if (kind == Kind::kTrain) {
    o.rule = std::string(r.GetStr());
  } else if (kind == Kind::kValidate) {
    o.columns.push_back({"", true, GetReport(r)});
  } else {
    const uint32_t n = r.GetU32();
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
      ColumnResult c;
      c.name = std::string(r.GetStr());
      c.has_rule = r.GetU8() != 0;
      c.report = GetReport(r);
      if (!c.has_rule) c.report = av::ValidationReport();
      o.columns.push_back(std::move(c));
    }
  }
  if (!r.Done()) return std::nullopt;
  return o;
}

Outcome FromTable(const av::TableReport& t) {
  Outcome o;
  o.ok = true;
  o.version = t.store_version;
  for (const auto& col : t.columns) {
    ColumnResult c;
    c.name = col.name;
    c.has_rule = col.status.ok();
    if (c.has_rule) c.report = col.report;
    o.columns.push_back(std::move(c));
  }
  return o;
}

// --------------------------------------------------------- requests

/// One request of the session, kept both encoded (the wire frame) and
/// structured (for the in-process callers).
struct Request {
  Kind kind = Kind::kValidate;
  std::string frame;  ///< AVNET001 request frame
  const std::string* name = nullptr;
  const std::vector<std::string>* values = nullptr;
  const TableOp* table = nullptr;
};

std::string EncodeRequest(const Request& req) {
  net::WireWriter w;
  net::Opcode op = net::Opcode::kValidate;
  if (req.kind == Kind::kTrain) {
    op = net::Opcode::kTrain;
    w.PutU8(static_cast<uint8_t>(av::Method::kFmdvVH));
    w.PutU64(0);
    w.PutStr(*req.name);
    w.PutValues(*req.values);
  } else if (req.kind == Kind::kValidate) {
    w.PutStr(*req.name);
    w.PutValues(*req.values);
  } else {
    op = net::Opcode::kValidateTable;
    w.PutU32(static_cast<uint32_t>(req.table->columns.size()));
    for (const auto& [name, values] : req.table->columns) {
      w.PutStr(name);
      w.PutValues(values);
    }
  }
  return net::EncodeFrame(static_cast<uint8_t>(op), w.str());
}

/// Parses an encoded request the way the server does (the decode span).
bool DecodeRequest(const std::string& frame) {
  net::FrameDecoder dec(/*expect_hello=*/true);
  if (!dec.Feed(std::string_view(net::kHello, net::kHelloSize)).ok()) return false;
  if (!dec.Feed(frame).ok()) return false;
  net::Frame f;
  if (!dec.Next(&f)) return false;
  net::WireReader r(f.payload);
  if (f.opcode == static_cast<uint8_t>(net::Opcode::kValidateTable)) {
    const uint32_t n = r.GetU32();
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
      r.GetStr();
      r.GetValues();
    }
  } else {
    r.GetStr();
    r.GetValues();
  }
  return r.Done();
}

// --------------------------------------------------------- callers

/// Issues one request and returns the reply frame.
class Caller {
 public:
  virtual ~Caller() = default;
  virtual av::Result<net::Frame> Call(const Request& req) = 0;
};

/// One AVNET001 connection whose caller spins on the socket for its reply,
/// so a latency sample holds the server and the transport but no client
/// wake-up.
class RemoteCaller : public Caller {
 public:
  RemoteCaller() = default;
  RemoteCaller(const RemoteCaller&) = delete;
  RemoteCaller& operator=(const RemoteCaller&) = delete;
  ~RemoteCaller() override {
    if (fd_ >= 0) close(fd_);
  }

  av::Status Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return av::Status::IOError("socket");
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return av::Status::IOError(std::string("connect: ") + std::strerror(errno));
    }
    return Send(std::string_view(net::kHello, net::kHelloSize));
  }

  av::Result<net::Frame> Call(const Request& req) override { return Exchange(req.frame); }

  av::Result<net::Frame> Exchange(std::string_view frame) {
    AV_RETURN_NOT_OK(Send(frame));
    net::Frame reply;
    char buf[64 * 1024];
    while (!decoder_.Next(&reply)) {
      const ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        AV_RETURN_NOT_OK(decoder_.Feed(std::string_view(buf, static_cast<size_t>(n))));
      } else if (n == 0) {
        return av::Status::IOError("connection closed by server");
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        return av::Status::IOError(std::string("recv: ") + std::strerror(errno));
      }
    }
    return reply;
  }

  /// STATS: the server's key=value text.
  av::Result<std::string> Stats() {
    auto reply = Exchange(net::EncodeFrame(static_cast<uint8_t>(net::Opcode::kStats), ""));
    if (!reply.ok()) return reply.status();
    net::WireReader r(reply->payload);
    std::string text(r.GetStr());
    if (reply->opcode != static_cast<uint8_t>(net::Opcode::kReplyOk) || !r.Done()) {
      return av::Status::Corruption("bad STATS reply");
    }
    return text;
  }

  /// SHUTDOWN: acked, then the server drains and exits.
  av::Status Shutdown() {
    auto reply = Exchange(net::EncodeFrame(static_cast<uint8_t>(net::Opcode::kShutdown), ""));
    if (!reply.ok()) return reply.status();
    if (reply->opcode != static_cast<uint8_t>(net::Opcode::kReplyOk)) {
      return av::Status::Corruption("bad SHUTDOWN reply");
    }
    return av::Status::OK();
  }

 private:
  av::Status Send(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return av::Status::IOError(std::string("send: ") + std::strerror(errno));
      }
      off += static_cast<size_t>(n);
    }
    return av::Status::OK();
  }

  int fd_ = -1;
  net::FrameDecoder decoder_{/*expect_hello=*/false};
};

void PutReport(net::WireWriter* w, const av::ValidationReport& rep) {
  w->PutU64(rep.total);
  w->PutU64(rep.nonconforming);
  w->PutF64(rep.theta_test);
  w->PutF64(rep.p_value);
  w->PutU8(rep.flagged ? 1 : 0);
  w->PutU32(static_cast<uint32_t>(rep.sample_violations.size()));
  for (const std::string& v : rep.sample_violations) w->PutStr(v);
}

net::Frame ErrorFrame(const av::Status& st) {
  net::WireWriter w;
  w.PutU8(static_cast<uint8_t>(st.code()));
  w.PutStr(st.message());
  return {static_cast<uint8_t>(net::Opcode::kReplyError), w.Take()};
}

/// The library embedding: the same service, lifecycle and calls, no wire.
/// Replies are encoded in the server's reply layout so both modes share
/// one decoder and one set of checks.
class LocalCaller : public Caller {
 public:
  LocalCaller(av::ValidationService* service, av::RuleLifecycle* lifecycle)
      : service_(service), lifecycle_(lifecycle) {}
  av::Result<net::Frame> Call(const Request& req) override {
    net::WireWriter w;
    if (req.kind == Kind::kTrain) {
      auto rule = lifecycle_->Train(*req.name, av::ColumnView(*req.values));
      if (!rule.ok()) return ErrorFrame(rule.status());
      w.PutU64(service_->version());
      w.PutStr(rule->Describe());
    } else if (req.kind == Kind::kValidate) {
      const uint64_t version = service_->version();
      auto rep = service_->Validate(*req.name, av::ColumnView(*req.values));
      if (!rep.ok()) return ErrorFrame(rep.status());
      w.PutU64(version);
      PutReport(&w, *rep);
    } else {
      std::vector<av::NamedColumn> named;
      for (const auto& [name, values] : req.table->columns) {
        named.push_back({name, av::ColumnView(values)});
      }
      const av::TableReport t = service_->ValidateAll(named);
      w.PutU64(t.store_version);
      w.PutU32(static_cast<uint32_t>(t.columns.size()));
      for (const auto& col : t.columns) {
        w.PutStr(col.name);
        w.PutU8(col.status.ok() ? 1 : 0);
        PutReport(&w, col.report);
      }
    }
    return net::Frame{static_cast<uint8_t>(net::Opcode::kReplyOk), w.Take()};
  }

 private:
  av::ValidationService* service_;
  av::RuleLifecycle* lifecycle_;
};

/// In-process serving stack of the lake workloads' session: the server's
/// configuration without the server.
struct LocalStack {
  av::PatternIndex index;
  std::unique_ptr<av::ValidationService> service;
  std::unique_ptr<av::RuleLifecycle> lifecycle;
};

av::Result<std::unique_ptr<LocalStack>> LoadLocalStack(const std::string& index_path,
                                                       const std::string& rules_path) {
  auto stack = std::make_unique<LocalStack>();
  auto loaded = av::PatternIndex::Load(index_path);
  if (!loaded.ok()) return loaded.status();
  stack->index = std::move(*loaded);
  stack->service = std::make_unique<av::ValidationService>(&stack->index, ServingOptions(),
                                                           kServicePoolThreads);
  AV_RETURN_NOT_OK(stack->service->Load(rules_path));
  stack->lifecycle =
      std::make_unique<av::RuleLifecycle>(stack->service.get(), av::RuleLifecycleOptions{});
  return stack;
}

// --------------------------------------------------------- the session

/// Samples of one request list, added to by every round of the session.
struct PhaseResult {
  std::vector<double> micros[3];  ///< by Kind
  std::vector<uint32_t> pass[3];  ///< the pass of each sample in `micros`
  std::vector<std::optional<net::Frame>> first;  ///< first reply per request
  uint32_t passes = 0;  ///< passes so far, numbered across rounds
  uint64_t sent[3] = {0, 0, 0};
  uint64_t transport_errors = 0;
  uint64_t repeat_mismatches = 0;
  uint64_t version_mismatches = 0;
  uint64_t rows = 0;
  std::vector<uint64_t> train_versions;  ///< store version of each stored rule
  double seconds = 0;
};

uint64_t RowsOf(const Request& req) {
  if (req.kind == Kind::kTable) {
    uint64_t n = 0;
    for (const auto& col : req.table->columns) n += col.second.size();
    return n;
  }
  return req.values->size();
}

/// Runs `reqs` from one thread per caller, caller i taking requests i,
/// i+k, ... in turn, and adds the samples to `res`. Each pass covers every
/// request once; passes repeat until `seconds` have elapsed (at least
/// `min_passes`). A reply that succeeds leads with the store version: a
/// VALIDATE or VALIDATE_TABLE reply must carry `version`, and apart from
/// the version a repeated request must get its first reply's bytes. With a
/// tracer, each call is a span whose request id is id_offset plus the
/// request's index.
void RunPhase(const std::vector<Caller*>& callers, std::span<const Request> reqs,
              size_t id_offset, double seconds, size_t min_passes, uint64_t version,
              Tracer* tracer, PhaseResult* res) {
  res->first.resize(reqs.size());
  const size_t k = callers.size();
  struct Local {
    std::vector<double> micros[3];
    std::vector<uint32_t> pass[3];
    uint64_t sent[3] = {0, 0, 0};
    uint64_t transport_errors = 0, mismatches = 0, version_mismatches = 0, rows = 0;
    uint32_t passes = 0;
    std::vector<uint64_t> train_versions;
    struct Timed {
      size_t request;
      Clock::time_point start, end;
    };
    std::vector<Timed> timed;
  };
  std::vector<Local> locals(k);
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < k; ++t) {
    threads.emplace_back([&, t] {
      Local& L = locals[t];
      for (uint32_t pass = 0;; ++pass) {
        if (pass >= min_passes && SecondsSince(start) >= seconds) break;
        if (t >= reqs.size()) break;
        L.passes = pass + 1;
        for (size_t i = t; i < reqs.size(); i += k) {
          const Request& req = reqs[i];
          const auto c0 = Clock::now();
          auto reply = callers[t]->Call(req);
          const auto c1 = Clock::now();
          const int kind = static_cast<int>(req.kind);
          ++L.sent[kind];
          if (!reply.ok()) {
            ++L.transport_errors;
            return;  // the connection is gone
          }
          L.micros[kind].push_back(std::chrono::duration<double, std::micro>(c1 - c0).count());
          L.pass[kind].push_back(res->passes + pass);
          L.rows += RowsOf(req);
          if (tracer != nullptr) L.timed.push_back({i, c0, c1});
          size_t skip = 0;
          if (reply->opcode == static_cast<uint8_t>(net::Opcode::kReplyOk)) {
            net::WireReader r(reply->payload);
            const uint64_t got = r.GetU64();
            if (req.kind == Kind::kTrain) {
              L.train_versions.push_back(got);
            } else if (got != version) {
              ++L.version_mismatches;
            }
            skip = 8;
          }
          const auto tail = [skip](const net::Frame& f) {
            return std::string_view(f.payload).substr(std::min(skip, f.payload.size()));
          };
          std::optional<net::Frame>& first = res->first[i];
          if (!first) {
            first = std::move(*reply);
          } else if (first->opcode != reply->opcode || tail(*first) != tail(*reply)) {
            ++L.mismatches;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  res->seconds += SecondsSince(start);
  uint32_t passes = 0;
  for (Local& L : locals) {
    for (int kind = 0; kind < 3; ++kind) {
      res->micros[kind].insert(res->micros[kind].end(), L.micros[kind].begin(),
                               L.micros[kind].end());
      res->pass[kind].insert(res->pass[kind].end(), L.pass[kind].begin(), L.pass[kind].end());
      res->sent[kind] += L.sent[kind];
    }
    res->transport_errors += L.transport_errors;
    res->repeat_mismatches += L.mismatches;
    res->version_mismatches += L.version_mismatches;
    res->rows += L.rows;
    res->train_versions.insert(res->train_versions.end(), L.train_versions.begin(),
                               L.train_versions.end());
    passes = std::max(passes, L.passes);
    if (tracer != nullptr) {
      static const char* kNames[] = {"remote.train", "remote.validate", "remote.table"};
      for (const auto& t : L.timed) {
        tracer->Add(kNames[static_cast<int>(reqs[t.request].kind)], t.start, t.end,
                    static_cast<int64_t>(id_offset + t.request));
      }
    }
  }
  res->passes += passes;
}

std::map<std::string, uint64_t> ParseStats(const std::string& text) {
  std::map<std::string, uint64_t> kv;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const size_t eq = line.find('=');
    if (eq != std::string::npos) {
      kv[line.substr(0, eq)] = std::strtoull(line.c_str() + eq + 1, nullptr, 10);
    }
  }
  return kv;
}

/// p50 and p99 per window of consecutive passes holding at least 1000
/// samples (ten beyond each window's p99). The figures are the means over
/// the windows, the highest and lowest 5% left out. The shared machine
/// switches between a fast and a slow state in stretches of 0.1-1 s, and
/// each window lands in one of them: a median over the windows jumps from
/// one state to the other as the share of slow time crosses a half, while
/// a mean moves in proportion to that share, as a long timed step does.
/// Passes before `first_pass` are warm-up: left out, and their p50 recorded
/// apart.
void PutPercentiles(JsonOut* out, const std::string& name, const PhaseResult& phase,
                    int kind, double scale, uint32_t first_pass = 0) {
  std::vector<double> v, warmup;
  std::map<uint32_t, std::vector<double>> by_pass;
  for (size_t i = 0; i < phase.micros[kind].size(); ++i) {
    const double x = phase.micros[kind][i] * scale;
    if (phase.pass[kind][i] < first_pass) {
      warmup.push_back(x);
    } else {
      v.push_back(x);
      by_pass[phase.pass[kind][i]].push_back(x);
    }
  }
  std::vector<double> p50s, p99s, window;
  for (auto& [p, samples] : by_pass) {
    window.insert(window.end(), samples.begin(), samples.end());
    if (window.size() >= 1000) {
      p50s.push_back(Percentile(window, 0.50));
      p99s.push_back(Percentile(window, 0.99));
      window.clear();
    }
  }
  if (p99s.empty()) {
    p50s.push_back(Percentile(v, 0.50));
    p99s.push_back(Percentile(v, 0.99));
  }
  out->Num(name + "_p50", TrimmedMean(p50s, 0.05));
  out->Num(name + "_p99", TrimmedMean(p99s, 0.05));
  out->Num(name + "_p50_pooled", Percentile(v, 0.50));
  out->Num(name + "_p99_pooled", Percentile(v, 0.99));
  out->Num(name + "_warmup_p50", Percentile(warmup, 0.50));
  out->Int(name + "_n", v.size());
  out->Int(name + "_p99_windows", p99s.size());
  out->Arr(name + "_p50_by_window", p50s);
  out->Arr(name + "_p99_by_window", p99s);
}

}  // namespace

int CmdProbe(const Args& args) {
  auto frame = av::ReadFileToString(args.Str("request"));
  if (!frame.ok()) return Fail("read request: " + frame.status().ToString());
  net::FrameDecoder dec(/*expect_hello=*/false);
  net::Frame req;
  if (!dec.Feed(*frame).ok() || !dec.Next(&req)) return Fail("bad probe request");
  net::WireReader r(req.payload);
  const std::string name(r.GetStr());
  const std::vector<std::string> values = r.GetValues();
  if (!r.Done()) return Fail("bad probe request");

  const auto t0 = Clock::now();
  auto stack = LoadLocalStack(args.Str("index"), args.Str("rules"));
  if (!stack.ok()) return Fail("restart: " + stack.status().ToString());
  Request probe;
  probe.name = &name;
  probe.values = &values;
  auto reply = LocalCaller((*stack)->service.get(), (*stack)->lifecycle.get()).Call(probe);
  const double seconds = SecondsSince(t0);
  if (!reply.ok()) return Fail("probe: " + reply.status().ToString());
  std::ofstream(args.Str("reply"), std::ios::binary)
      << static_cast<char>(reply->opcode) << reply->payload;
  std::printf("%.9f\n", seconds);
  return 0;
}

int CmdSession(const Args& args) {
  const bool remote = args.Str("mode", "remote") == "remote";
  const bool traced = args.U64("trace", 0) != 0;
  const bool stepped = args.U64("stepped", 0) != 0;
  const std::string index_path = args.Str("index");
  const std::string rules_path = args.Str("rules");
  const std::string work = args.Str("work");
  const uint64_t seed = args.U64("seed", 1);
  const double seconds = args.F64("seconds", 10);  // unstepped: the session's length
  const double slice = args.F64("slice-seconds", 0.5);

  auto lake = LoadLake(args.Str("lake"));
  if (!lake.ok()) return Fail("load lake: " + lake.status().ToString());
  Plan plan = MakePlan(*lake);
  lake = av::Corpus();
  auto rules_file = av::ReadFileToString(rules_path);
  if (!rules_file.ok()) return Fail("read rules: " + rules_file.status().ToString());
  auto initial = av::ValidationService::ParseRuleSetBuffer(*rules_file);
  if (!initial.ok()) return Fail("parse rules: " + initial.status().ToString());
  std::vector<std::string> ruled;
  for (const auto& [name, rule] : initial->rules) ruled.push_back(name);
  if (ruled.empty()) return Fail("the initial rule set is empty");

  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const auto fail = [&](const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  };

  // The probe that ends each restart: a VALIDATE of the first initial rule.
  const auto first_col = std::find_if(plan.columns.begin(), plan.columns.end(),
                                      [&](const PlanColumn& c) { return c.name == ruled.front(); });
  if (first_col == plan.columns.end()) return Fail("the rule set names no lake column");
  Request probe;
  probe.kind = Kind::kValidate;
  probe.name = &first_col->name;
  probe.values = first_col->batch.empty() ? &first_col->train : &first_col->batch;
  probe.frame = EncodeRequest(probe);
  const std::string probe_path = work + "/probe.frame";
  std::ofstream(probe_path, std::ios::binary) << probe.frame;

  Tracer tracer;
  std::vector<double> restart_s;
  std::vector<std::string> server_reports;
  std::unique_ptr<ChildProcess> server;  // remote: the serving process
  std::vector<std::unique_ptr<RemoteCaller>> remotes;
  std::unique_ptr<LocalStack> stack;
  std::vector<Outcome> probe_replies;
  uint64_t base_version = 0;

  // A restart: a process that did not build the index loads the index and
  // rule files and answers the probe. Over loopback the first restart's
  // server is the one the session then uses; later ones are started,
  // probed and shut down beside it. In process each restart is a fresh
  // `avbench probe`, and the session's own stack is loaded after the first.
  const auto restart = [&](size_t r) -> av::Status {
    const std::string report = work + "/server_" + std::to_string(r) + ".json";
    const auto t0 = Clock::now();
    std::optional<net::Frame> reply;
    ++attempted;
    if (remote) {
      auto child = std::make_unique<ChildProcess>();
      AV_RETURN_NOT_OK(child->Spawn({"avbench", "serve", "--index", index_path, "--rules",
                                     rules_path, "--report", report}));
      auto port = child->Port();
      if (!port.ok()) return port.status();
      std::vector<std::unique_ptr<RemoteCaller>> conns;
      for (size_t c = 0; c < (r == 0 ? kConnections : 1); ++c) {
        conns.push_back(std::make_unique<RemoteCaller>());
        AV_RETURN_NOT_OK(conns.back()->Connect(*port));
      }
      auto got = conns[0]->Call(probe);
      if (got.ok()) reply = std::move(*got);
      restart_s.push_back(SecondsSince(t0));
      if (r == 0) {
        server = std::move(child);
        remotes = std::move(conns);
      } else {
        ++attempted;
        const av::Status st = conns[0]->Shutdown();
        conns.clear();
        if (!st.ok()) fail("shutdown: " + st.ToString());
        auto rss = child->Wait();
        if (!rss.ok()) fail(rss.status().ToString());
        server_reports.push_back(report);
      }
    } else {
      ChildProcess child;
      AV_RETURN_NOT_OK(child.Spawn({"avbench", "probe", "--index", index_path, "--rules",
                                    rules_path, "--request", probe_path, "--reply", report}));
      auto line = child.Line();
      auto rss = child.Wait();
      if (r == 0) {
        auto loaded = LoadLocalStack(index_path, rules_path);
        if (!loaded.ok()) return loaded.status();
        stack = std::move(*loaded);
      }
      if (!line.ok() || !rss.ok()) {
        fail("restart probe process failed");
        return av::Status::OK();
      }
      auto bytes = av::ReadFileToString(report);
      if (bytes.ok() && !bytes->empty()) {
        reply = net::Frame{static_cast<uint8_t>((*bytes)[0]), bytes->substr(1)};
      }
      restart_s.push_back(std::strtod(line->c_str(), nullptr));
    }
    const auto decoded = reply ? Decode(Kind::kValidate, *reply) : std::nullopt;
    if (!decoded || !decoded->ok) {
      fail("restart probe failed");
    } else {
      if (r == 0) base_version = decoded->version;
      probe_replies.push_back(*decoded);
    }
    return av::Status::OK();
  };

  // Every round is one restart, one TRAIN pass over the remaining tables'
  // columns (every pass retrains the same columns, so passes are repeated
  // measurements), then VALIDATE passes and VALIDATE_TABLE passes for
  // `slice` seconds each (run apart, so a VALIDATE never queues behind a
  // multi-ms train or a whole table on the one worker). Traced runs add a
  // second VALIDATE and VALIDATE_TABLE slice with a span per call, so the
  // spans' own cost is measured.
  std::vector<Request> trains;
  for (size_t c : plan.onboard) {
    Request req;
    req.kind = Kind::kTrain;
    req.name = &plan.columns[c].name;
    req.values = &plan.columns[c].train;
    req.frame = EncodeRequest(req);
    trains.push_back(std::move(req));
  }
  std::vector<Caller*> callers;
  std::vector<std::unique_ptr<LocalCaller>> locals;
  std::vector<Outcome> train_replies(trains.size());
  uint64_t trained_ok = 0, round0_version = 0;
  std::vector<Request> reqs;
  size_t nv = 0;
  PhaseResult onboard, validate, table, validate_traced, table_traced;
  std::vector<double> rows_per_s;  // per round
  if (stepped) AckStep(0);
  const auto timed_start = Clock::now();
  size_t rounds = 0;
  for (;; ++rounds) {
    if (stepped ? !AwaitStep()
                : (rounds >= kMinRounds && SecondsSince(timed_start) >= seconds)) {
      break;
    }
    const av::Status st = restart(rounds);
    if (!st.ok()) return Fail("restart: " + st.ToString());
    if (rounds == 0) {
      for (size_t c = 0; c < (remote ? kConnections : kLocalCallers); ++c) {
        if (remote) {
          callers.push_back(remotes[c].get());
        } else {
          locals.push_back(
              std::make_unique<LocalCaller>(stack->service.get(), stack->lifecycle.get()));
          callers.push_back(locals.back().get());
        }
      }
    }
    RunPhase(callers, trains, 1u << 30, 0, 1, 0, traced ? &tracer : nullptr, &onboard);
    if (rounds == 0) {
      // The first pass's replies decide which columns now have a rule.
      for (size_t i = 0; i < trains.size(); ++i) {
        const auto o = onboard.first[i] ? Decode(Kind::kTrain, *onboard.first[i]) : std::nullopt;
        if (!o) {
          fail("malformed TRAIN reply");
          continue;
        }
        train_replies[i] = *o;
        if (o->ok) {
          ++trained_ok;
          ruled.push_back(*trains[i].name);
        }
      }
      round0_version = base_version + trained_ok;
      PlanValidates(&plan, ruled, seed);
      for (const ValidateOp& op : plan.validates) {
        Request req;
        req.kind = Kind::kValidate;
        req.name = &op.name;
        req.values = op.values;
        req.frame = EncodeRequest(req);
        reqs.push_back(std::move(req));
      }
      nv = reqs.size();
      for (const TableOp& op : plan.tables) {
        Request req;
        req.kind = Kind::kTable;
        req.table = &op;
        req.frame = EncodeRequest(req);
        reqs.push_back(std::move(req));
      }
    }
    const std::span<const Request> vspan(reqs.data(), nv);
    const std::span<const Request> tspan(reqs.data() + nv, reqs.size() - nv);
    const uint64_t version = base_version + onboard.train_versions.size();
    const uint64_t rows0 = validate.rows + table.rows;
    const double seconds0 = validate.seconds + table.seconds;
    RunPhase(callers, vspan, 0, slice, 1, version, nullptr, &validate);
    RunPhase(callers, tspan, nv, slice, 1, version, nullptr, &table);
    rows_per_s.push_back(static_cast<double>(validate.rows + table.rows - rows0) /
                         (validate.seconds + table.seconds - seconds0));
    if (traced) {
      RunPhase(callers, vspan, 0, slice, 1, version, &tracer, &validate_traced);
      RunPhase(callers, tspan, nv, slice, 1, version, &tracer, &table_traced);
    }
    if (stepped) AckStep(rounds + 1);
  }
  if (rounds == 0) return Fail("the session ran no round");
  for (const PhaseResult* p : {&onboard, &validate, &table, &validate_traced, &table_traced}) {
    attempted += p->sent[0] + p->sent[1] + p->sent[2];
    failed += p->transport_errors + p->repeat_mismatches + p->version_mismatches;
    if (p->repeat_mismatches > 0) failures.push_back("a repeated request got another reply");
    if (p->version_mismatches > 0) failures.push_back("a reply from an unexpected store version");
  }
  const auto first_reply = [&](size_t i) -> const std::optional<net::Frame>& {
    return i < nv ? validate.first[i] : table.first[i - nv];
  };
  const auto traced_reply = [&](size_t i) -> const std::optional<net::Frame>& {
    return i < nv ? validate_traced.first[i] : table_traced.first[i - nv];
  };

  // ---- STATS and shutdown.
  std::map<std::string, uint64_t> stats;
  double server_rss_mb = 0;
  if (remote) {
    ++attempted;
    auto text = remotes[0]->Stats();
    if (!text.ok()) {
      fail("STATS: " + text.status().ToString());
    } else {
      stats = ParseStats(*text);
    }
    ++attempted;
    const av::Status st = remotes[0]->Shutdown();
    remotes.clear();
    if (!st.ok()) fail("shutdown: " + st.ToString());
    auto rss = server->Wait();
    if (!rss.ok()) {
      fail(rss.status().ToString());
    } else {
      server_rss_mb = *rss;
    }
    server_reports.push_back(work + "/server_0.json");
    const uint64_t validates = 1 + validate.sent[1] + validate_traced.sent[1];
    const uint64_t tables = table.sent[2] + table_traced.sent[2];
    if (stats["protocol_errors"] != 0) fail("STATS protocol_errors != 0");
    if (stats["replies_error"] != onboard.sent[0] - onboard.train_versions.size()) {
      fail("STATS replies_error differs from the infeasible TRAINs");
    }
    if (stats["connections_evicted"] != 0) fail("STATS connections_evicted != 0");
    if (stats["frames_validate"] != validates || stats["frames_validate_table"] != tables ||
        stats["frames_train"] != onboard.sent[0] || stats["frames_stats"] != 1) {
      fail("STATS frame counts differ from the requests sent");
    }
  }
  stack.reset();
  locals.clear();

  // ---- reference: in-process Train / Validate / ValidateAll on a fresh
  // copy of the index and the initial rules; in a traced run these calls
  // are the in-process twins of the remote ones.
  Tracer* tw = traced ? &tracer : nullptr;
  auto ref_index = av::PatternIndex::Load(index_path);
  if (!ref_index.ok()) return Fail("reference index: " + ref_index.status().ToString());
  av::ValidationService ref(&*ref_index, ServingOptions(), kServicePoolThreads);
  const av::Status ref_loaded = ref.Load(rules_path);
  if (!ref_loaded.ok()) return Fail("reference rules: " + ref_loaded.ToString());
  auto probe_want = ref.Validate(*probe.name, av::ColumnView(*probe.values));
  for (const Outcome& got : probe_replies) {
    if (!probe_want.ok() || !SameReport(got.columns.front().report, *probe_want) ||
        got.version != base_version) {
      fail("restart probe reply differs from the in-process reference");
    }
  }
  uint64_t feasible = 0;
  std::vector<uint64_t> ok_versions = onboard.train_versions;
  for (size_t i = 0; i < trains.size(); ++i) {
    Outcome want;
    av::Result<av::ValidationRule> rule = [&] {
      std::optional<ScopedSpan> s;
      if (tw) s.emplace(tw, "core.train", -1, static_cast<int64_t>(i));
      return ref.engine().Train(av::ColumnView(*trains[i].values), av::Method::kFmdvVH);
    }();
    if (rule.ok()) {
      ++feasible;
      want.ok = true;
      want.rule = rule->Describe();
      std::optional<ScopedSpan> s;
      if (tw) s.emplace(tw, "core.publish", -1, static_cast<int64_t>(i));
      ref.Upsert(*trains[i].name, std::move(*rule));
    } else {
      want.error = ErrorText(rule.status());
    }
    if (!SameOutcome(train_replies[i], want)) fail("TRAIN " + *trains[i].name + " differs");
  }
  // Each stored rule is one store generation. In process the two callers
  // train concurrently, so only the server (one worker) numbers replies
  // consecutively.
  std::sort(ok_versions.begin(), ok_versions.end());
  for (size_t i = 0; remote && i < ok_versions.size(); ++i) {
    if (ok_versions[i] != base_version + 1 + i) {
      fail("TRAIN store versions are not consecutive");
      break;
    }
  }

  uint64_t flagged = 0, validated = 0, drift_flagged = 0;
  std::vector<double> distinct_ratio;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Request& req = reqs[i];
    const int64_t rid = static_cast<int64_t>(i);
    if (tw) {
      std::string frame;
      {
        ScopedSpan s(tw, "server.encode", -1, rid);
        frame = EncodeRequest(req);
      }
      ScopedSpan s(tw, "server.decode", -1, rid);
      if (!DecodeRequest(frame)) fail("request frame does not decode");
    }
    Outcome want;
    if (req.kind == Kind::kValidate) {
      if (tw) {
        ScopedSpan s(tw, "pattern.batch_tokenize", -1, rid);
        av::TokenizedColumn::Build(av::ColumnView(*req.values));
      }
      av::Result<av::ValidationReport> rep = [&] {
        std::optional<ScopedSpan> s;
        if (tw) s.emplace(tw, "core.validate", -1, rid);
        return ref.Validate(*req.name, av::ColumnView(*req.values));
      }();
      if (rep.ok()) {
        want.ok = true;
        want.columns.push_back({"", true, *rep});
        ++validated;
        flagged += rep->flagged ? 1 : 0;
        if (plan.validates[i].drifted && rep->flagged) ++drift_flagged;
      } else {
        want.error = ErrorText(rep.status());
      }
      std::unordered_set<std::string_view> distinct(req.values->begin(), req.values->end());
      distinct_ratio.push_back(static_cast<double>(distinct.size()) /
                               static_cast<double>(std::max<size_t>(1, req.values->size())));
    } else {
      std::vector<av::NamedColumn> named;
      for (const auto& [name, values] : req.table->columns) {
        named.push_back({name, av::ColumnView(values)});
      }
      std::optional<ScopedSpan> s;
      if (tw) s.emplace(tw, "core.table", -1, rid);
      want = FromTable(ref.ValidateAll(named));
    }
    const auto got = first_reply(i) ? Decode(req.kind, *first_reply(i)) : std::nullopt;
    if (!got) {
      fail("malformed or missing reply");
    } else if (!SameOutcome(*got, want)) {
      fail("reply " + std::to_string(i) + " differs from the in-process reference");
    } else if (got->ok && got->version != round0_version) {
      fail("reply from an unexpected store version");
    }
    if (traced && traced_reply(i) && first_reply(i) &&
        traced_reply(i)->payload != first_reply(i)->payload) {
      fail("traced reply differs");
    }
  }

  // ---- results.
  JsonOut out;
  out.Int("attempted", attempted);
  out.Int("failed", failed);
  std::string why;
  for (const std::string& f : failures) why += f + "; ";
  out.Str("failures", why);
  out.Num("restart_s", Median(restart_s));
  out.Arr("restart_s_all", restart_s);
  // The first TRAIN pass onboards into a store that grows from the initial
  // rules to all of them, and every later pass retrains into the full one;
  // the first pass is left out when there are later ones.
  PutPercentiles(&out, "train_ms", onboard, 0, 1e-3, onboard.passes > 1 ? 1 : 0);
  out.Num("train_phase_s", onboard.seconds);
  PutPercentiles(&out, "validate_us", validate, 1, 1);
  PutPercentiles(&out, "table_us", table, 2, 1);
  out.Num("serve_rows_per_s", Median(rows_per_s));
  out.Int("rounds", rounds);
  out.Num("validate_phase_s", validate.seconds + table.seconds);
  out.Num("server_peak_rss_mb", server_rss_mb);
  out.Int("onboard_columns", trains.size());
  out.Int("onboard_feasible", trained_ok);
  out.Int("validate_ops", plan.validates.size());
  out.Int("table_ops", plan.tables.size());
  out.Int("drifted_ops", plan.drifted);
  out.Int("drifted_flagged", drift_flagged);
  out.Num("distinct_ratio_p10", Percentile(distinct_ratio, 0.10));
  out.Num("distinct_ratio_p50", Percentile(distinct_ratio, 0.50));
  out.Num("distinct_ratio_p90", Percentile(distinct_ratio, 0.90));
  std::vector<double> widths;
  for (const TableOp& t : plan.tables) widths.push_back(static_cast<double>(t.columns.size()));
  out.Num("table_width_min", Percentile(widths, 0));
  out.Num("table_width_p50", Percentile(widths, 0.5));
  out.Num("table_width_max", Percentile(widths, 1));
  if (remote) {
    for (const char* key : {"replies_error", "protocol_errors", "connections_evicted"}) {
      out.Int(std::string("stats_") + key, stats[key]);
    }
  }
  if (traced) {
    std::vector<double> load, rules_load, start;
    for (const std::string& path : server_reports) {
      std::ifstream in(path);
      std::string line;
      std::getline(in, line);
      const auto field = [&line](const std::string& key) {
        const size_t at = line.find("\"" + key + "\": ");
        if (at == std::string::npos) return 0.0;
        return std::strtod(line.c_str() + at + key.size() + 4, nullptr);
      };
      load.push_back(field("index_load_s"));
      rules_load.push_back(field("rules_load_s"));
      start.push_back(field("start_s"));
    }
    out.Num("index.load_s", Median(load));
    out.Num("core.rules_load_s", Median(rules_load));
    out.Num("server.start_s", Median(start));
    const auto p50 = [&](const char* name) { return Percentile(tracer.Micros(name), 0.5); };
    const auto p99 = [&](const char* name) { return Percentile(tracer.Micros(name), 0.99); };
    out.Num("core.train_us_p50", p50("core.train"));
    out.Num("core.train_us_p99", p99("core.train"));
    out.Num("core.train_feasible_ratio",
            static_cast<double>(feasible) /
                static_cast<double>(std::max<size_t>(1, trains.size())));
    out.Num("core.publish_us_p50", p50("core.publish"));
    out.Num("core.validate_us_p50", p50("core.validate"));
    out.Num("core.validate_us_p99", p99("core.validate"));
    out.Num("core.table_us_p50", p50("core.table"));
    out.Num("core.table_us_p99", p99("core.table"));
    out.Num("core.flagged_share",
            static_cast<double>(flagged) / static_cast<double>(std::max<uint64_t>(1, validated)));
    out.Num("core.distinct_ratio_p50", Percentile(distinct_ratio, 0.5));
    out.Num("pattern.batch_tokenize_us_p50", p50("pattern.batch_tokenize"));
    out.Num("server.encode_us_p50", p50("server.encode"));
    out.Num("server.decode_us_p50", p50("server.decode"));
    out.Num("server.overhead_us_p50", p50("remote.validate") - p50("core.validate"));
    out.Num("server.table_overhead_us_p50", p50("remote.table") - p50("core.table"));
    out.Num("trace.validate_overhead_pct",
            100.0 * (p50("remote.validate") / Percentile(validate.micros[1], 0.5) - 1.0));
    const std::string spans = args.Str("spans");
    if (!spans.empty()) tracer.Write(spans);
  }
  out.Print();
  return 0;
}

}  // namespace avbench
