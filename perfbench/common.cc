#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

void LogSamples(const std::string& what, const std::vector<double>& values) {
  std::string line = "perfbench: ";
  line += what;
  line += " median ";
  line += std::to_string(Median(values));
  line += " of";
  for (const double value : values) line += ' ' + std::to_string(value);
  std::fprintf(stderr, "%s\n", line.c_str());
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void OrDie(const paris::util::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

size_t DataLines(const std::string& path) {
  size_t count = 0;
  for (const std::string& line : ReadLines(path)) {
    count += !line.empty() && line[0] != '#';
  }
  return count;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code error;
  const uintmax_t size = std::filesystem::file_size(path, error);
  if (error) Die("cannot stat " + path + ": " + error.message());
  return size;
}

uint64_t Fingerprint(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  Die("no VmHWM in /proc/self/status");
}

int Tracer::Begin(const std::string& name) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, Now(), 0.0, parent, group_});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<size_t>(id)].end = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::Add(const std::string& name, double start, double end,
                int parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, start, end, parent, group_});
  return static_cast<int>(spans_.size() - 1);
}

double Tracer::SelfTime(size_t id) const {
  const Span& span = spans_[id];
  std::vector<std::pair<double, double>> children;
  for (const Span& child : spans_) {
    if (child.parent == static_cast<int>(id)) {
      children.emplace_back(std::max(child.start, span.start),
                            std::min(child.end, span.end));
    }
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = span.start;
  for (const auto& [start, end] : children) {
    const double from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return (span.end - span.start) - covered;
}

double Tracer::Total(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.end - span.start;
  }
  return total;
}

double Tracer::SelfTotal(const std::string& name) const {
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += SelfTime(i);
  }
  return total;
}

double Tracer::SelfTotalWithPrefix(const std::string& prefix) const {
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name.rfind(prefix, 0) == 0) total += SelfTime(i);
  }
  return total;
}

size_t Tracer::Count(const std::string& name) const {
  return static_cast<size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& span) { return span.name == name; }));
}

void Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) Die("cannot write " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"group\":%d}",
                  span.start - origin, span.end - origin, span.parent,
                  span.group);
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\""
        << span.name << "\"," << buffer;
  }
  out << "\n]}\n";
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) Die(name + " is not a finite number");
  metrics_[name] = {value, unit};
}

bool Report::Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  return ok;
}

double Report::success_ratio() const {
  if (attempted_ == 0) return 0.0;
  const size_t ok = attempted_ > failed_ ? attempted_ - failed_ : 0;
  return static_cast<double>(ok) / static_cast<double>(attempted_);
}

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.first);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << metric.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
