#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "common/durable_file.h"
#include "common/hash.h"

namespace avbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) continue;
    a = a.substr(2);
    const size_t eq = a.find('=');
    if (eq != std::string::npos) {
      kv_[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[a] = argv[++i];
    } else {
      kv_[a] = "1";
    }
  }
}

std::string Args::Str(const std::string& key, const std::string& def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

uint64_t Args::U64(const std::string& key, uint64_t def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : std::strtoull(it->second.c_str(), nullptr, 10);
}

double Args::F64(const std::string& key, double def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double TrimmedMean(std::vector<double> v, double trim) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t k = static_cast<size_t>(trim * static_cast<double>(v.size()));
  double sum = 0;
  for (size_t i = k; i < v.size() - k; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * k);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool AwaitStep() {
  std::string line;
  return static_cast<bool>(std::getline(std::cin, line));
}

void AckStep(size_t step) {
  std::printf("step %zu\n", step);
  std::fflush(stdout);
}

std::string FileHashHex(const std::string& path) {
  auto data = av::ReadFileToString(path);
  if (!data.ok()) return "";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(av::PolyHash64(*data)));
  return buf;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string NumText(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

void JsonOut::Num(const std::string& key, double v) { fields_.emplace_back(key, NumText(v)); }
void JsonOut::Int(const std::string& key, uint64_t v) {
  fields_.emplace_back(key, std::to_string(v));
}
void JsonOut::Bool(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
}
void JsonOut::Str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, JsonEscape(v));
}
void JsonOut::Arr(const std::string& key, const std::vector<double>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + NumText(v[i]);
  fields_.emplace_back(key, s + "]");
}

std::string JsonOut::Render() const {
  std::string s = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    s += (i ? ", " : "") + JsonEscape(fields_[i].first) + ": " + fields_[i].second;
  }
  return s + "}";
}

void JsonOut::Print() const {
  std::printf("%s\n", Render().c_str());
  std::fflush(stdout);
}

int64_t Tracer::Ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
}

int64_t Tracer::Begin(const std::string& name, int64_t parent, int64_t request) {
  spans_.push_back(Span{name, Ns(Clock::now()), 0, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) { spans_[static_cast<size_t>(id)].end_ns = Ns(Clock::now()); }

void Tracer::Add(const std::string& name, Clock::time_point start, Clock::time_point end,
                 int64_t request) {
  spans_.push_back(Span{name, Ns(start), Ns(end), -1, request});
}

double Tracer::Total(const std::string& name) const {
  double t = 0;
  for (const Span& s : spans_) {
    if (s.name == name) t += s.seconds();
  }
  return t;
}

std::vector<double> Tracer::Micros(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.seconds() * 1e6);
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << JsonEscape(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

int CountingFileOps::Open(const char* path, int flags, mode_t mode) {
  return av::RealFileOps().Open(path, flags, mode);
}
ssize_t CountingFileOps::Write(int fd, const void* buf, size_t n) {
  const ssize_t r = av::RealFileOps().Write(fd, buf, n);
  ++write_calls;
  if (r > 0) bytes_written += static_cast<uint64_t>(r);
  return r;
}
int CountingFileOps::Fsync(int fd) {
  ++fsyncs;
  return av::RealFileOps().Fsync(fd);
}
int CountingFileOps::Close(int fd) { return av::RealFileOps().Close(fd); }
int CountingFileOps::Rename(const char* from, const char* to) {
  return av::RealFileOps().Rename(from, to);
}
int CountingFileOps::Unlink(const char* path) { return av::RealFileOps().Unlink(path); }
int CountingFileOps::FsyncDir(const char* dir) {
  ++fsyncs;
  return av::RealFileOps().FsyncDir(dir);
}

}  // namespace avbench
