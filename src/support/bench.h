// Machine-readable bench output for CI perf trajectories.
//
// Each bench binary builds a BenchReport, records named metrics, and on
// destruction writes `BENCH_<name>.json` into the directory named by the
// BOLT_BENCH_JSON environment variable (nothing is written when the
// variable is unset, so interactive runs stay plain-text). CI sets it
// when it runs the paper reproductions (`ctest -L paper`) and archives the
// JSON files per commit; the benchmark driver (boltbench/) writes its
// report the same way (the ZMap lesson: sustained measurement keeps fast
// code fast).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bolt::support {

/// Wall-clock stopwatch for bench sections.
class BenchTimer {
 public:
  BenchTimer();
  /// Milliseconds since construction or the last reset().
  double elapsed_ms() const;
  void reset();

 private:
  std::uint64_t start_ns_;
};

class BenchReport {
 public:
  /// `name` becomes the file stem: BENCH_<name>.json.
  explicit BenchReport(std::string name);
  /// Writes the JSON file if BOLT_BENCH_JSON is set (best effort: failure
  /// to write warns on stderr but never kills a bench run).
  ~BenchReport();

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// Records a metric.
  void metric(const std::string& metric_name, double value,
              const std::string& unit = "");

  /// The serialized report (exposed for tests).
  std::string to_json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::string name_;
  std::vector<Entry> metrics_;
};

}  // namespace bolt::support
