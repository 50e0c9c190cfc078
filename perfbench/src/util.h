// Shared helpers of avbench: argument parsing, timing,
// percentiles, one-line JSON results, the in-memory span recorder used by
// traced runs, and a counting FileOps for the durable-write layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/file_ops.h"

namespace avbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// `--key=value` / `--key value` flags after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string Str(const std::string& key, const std::string& def = "") const;
  uint64_t U64(const std::string& key, uint64_t def) const;
  double F64(const std::string& key, double def) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// Nearest-rank percentile (q in [0,1]) of `v`; sorts a copy.
double Percentile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Mean of `v` without its lowest and highest `trim` share (none of it
/// when that share holds less than one value).
double TrimmedMean(std::vector<double> v, double trim);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Stepped mode: perfbench/run.py keeps the processes of a workload alive
/// and lets them run in turns, one step each, so that every metric samples
/// the whole run rather than one stretch of it. AwaitStep blocks until the
/// next "step" line arrives on stdin and is false at end of input; AckStep
/// reports a finished step with one line on stdout (step 0: ready, set-up
/// done, so no set-up overlaps another process's step).
bool AwaitStep();
void AckStep(size_t step);

/// Hex PolyHash64 of a file's bytes ("" when unreadable).
std::string FileHashHex(const std::string& path);
uint64_t FileBytes(const std::string& path);

/// Flat JSON object printed as one line (the benchmark result format).
class JsonOut {
 public:
  void Num(const std::string& key, double v);
  void Int(const std::string& key, uint64_t v);
  void Bool(const std::string& key, bool v);
  void Str(const std::string& key, const std::string& v);
  void Arr(const std::string& key, const std::vector<double>& v);
  std::string Render() const;
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Spans kept in memory and written out when the run ends: name, start and
/// end (ns since the recorder's origin), parent span and request id.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    int64_t request = -1;
    double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  };

  int64_t Begin(const std::string& name, int64_t parent = -1, int64_t request = -1);
  void End(int64_t id);
  /// Adds a span timed elsewhere (e.g. on another thread).
  void Add(const std::string& name, Clock::time_point start, Clock::time_point end,
           int64_t request);
  /// Total seconds of all spans named `name`.
  double Total(const std::string& name) const;
  /// Durations (µs) of all spans named `name`.
  std::vector<double> Micros(const std::string& name) const;
  /// Writes one JSON line per span.
  bool Write(const std::string& path) const;

 private:
  int64_t Ns(Clock::time_point t) const;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const std::string& name, int64_t parent = -1,
             int64_t request = -1)
      : t_(t), id_(t != nullptr ? t->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int64_t id_;
};

/// Forwards every durable-write syscall to the real one and counts it.
class CountingFileOps : public av::FileOps {
 public:
  int Open(const char* path, int flags, mode_t mode) override;
  ssize_t Write(int fd, const void* buf, size_t n) override;
  int Fsync(int fd) override;
  int Close(int fd) override;
  int Rename(const char* from, const char* to) override;
  int Unlink(const char* path) override;
  int FsyncDir(const char* dir) override;

  uint64_t write_calls = 0;
  uint64_t bytes_written = 0;
  uint64_t fsyncs = 0;  ///< file and directory fsyncs
};

}  // namespace avbench
