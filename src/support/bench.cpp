#include "support/bench.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "support/strings.h"

namespace bolt::support {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* json_dir() { return std::getenv("BOLT_BENCH_JSON"); }

/// Quoted JSON string literal (shared escaping rules).
std::string quoted(const std::string& s) {
  std::string out;
  json_quote_into(out, s);
  return out;
}

}  // namespace

BenchTimer::BenchTimer() : start_ns_(now_ns()) {}

double BenchTimer::elapsed_ms() const {
  return static_cast<double>(now_ns() - start_ns_) / 1e6;
}

void BenchTimer::reset() { start_ns_ = now_ns(); }

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

void BenchReport::metric(const std::string& metric_name, double value,
                         const std::string& unit) {
  metrics_.push_back(Entry{metric_name, value, unit});
}

std::string BenchReport::to_json() const {
  std::string out = "{\n  \"bench\": " + quoted(name_) + ",\n";
  // Machine context: figures from hosts with different core counts do not
  // compare.
  out += "  \"num_cpus\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  out += "  \"metrics\": [";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.6f", m.value);
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": " + quoted(m.name) + ", \"value\": " + value +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

BenchReport::~BenchReport() {
  const char* dir = json_dir();
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return;
  }
  const std::string json = to_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
}

}  // namespace bolt::support
