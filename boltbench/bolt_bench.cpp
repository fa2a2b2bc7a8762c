// bolt_bench — the benchmark of Bolt's two loops, end to end and by layer.
//
//   bolt_bench --workload W --seed N [--seconds S] [--trace 0|1] [--work DIR]
//   bolt_bench [--work DIR]   every workload at seed 1, recorded through
//                             support::BenchReport as BENCH_bolt_bench.json
//
// Workloads (README.md says why each exists):
//   nat_zipf      bolt_cli monitor nat over a seeded Zipf trace
//   router_drift  bolt_cli monitor router over a seeded headroom-eroding
//                 IPv4-options trace, with delta windows (exit 3: drift)
//   nat_follow    the --follow daemon over a seeded long-run trace, alone
//                 and as a 4-instance fleet folded by bolt merge
//   gen_all       core::ContractGenerator::generate for every registered
//                 target (the inputs are the NF programs; the seed is unused)
// Each is a closed loop with one caller: 1-thread and 4-thread operations
// alternate, and which one goes first alternates too.
//
// The product only sees generated files (pcap, stored contract) or, for
// gen_all, the registered NF programs. Every operation's output is checked:
// exit codes, benign reports, report and delta bytes identical across reps,
// thread counts and daemon/batch/merge, contracts identical across reps and
// to the committed goldens.
//
// --trace 1 instead times each layer's public calls from outside, on one
// thread, replaying the batch engine's per-partition loop: one steady_clock
// stamp pair per run of 64 calls. Spans go to <work>/TRACE_<workload>.json.
//
// stdout: a detail line (per-metric median/p25/p75/n and the workload's
// traffic mix), then the result line {"correct","attempted","failed",
// "metrics"}.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/bolt.h"
#include "core/targets.h"
#include "hw/models.h"
#include "monitor/accum.h"
#include "monitor/attribute.h"
#include "monitor/follow.h"
#include "monitor/monitor.h"
#include "monitor/report.h"
#include "net/flow.h"
#include "net/pcap.h"
#include "net/workload.h"
#include "obs/delta.h"
#include "obs/drift.h"
#include "obs/fleet.h"
#include "perf/contract_io.h"
#include "perf/expr_vm.h"
#include "support/assert.h"
#include "support/bench.h"
#include "support/io.h"
#include "support/strings.h"
#include "symbex/executor.h"

extern char** environ;

using namespace bolt;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}
double ms_since(Clock::time_point a) { return ns_between(a, Clock::now()) / 1e6; }

constexpr std::size_t kManyThreads = 4;  // the reference host's nproc
constexpr std::size_t kRun = 64;         // calls per stamp pair when tracing
constexpr int kSetupReps = 15;
constexpr int kMinReps = 3;  // pairs of operations, or traced passes

// Input sizes: one 1-thread operation takes a few hundred ms on the
// reference host, so a 10 s run holds enough of them for a steady median.
constexpr std::size_t kZipfPackets = 200'000;
constexpr std::size_t kDriftWindows = 11;
constexpr std::size_t kDriftPacketsPerWindow = 18'182;
constexpr std::size_t kFollowPackets = 200'000;
// Bursts of ~48 ms and 100 ms epochs: about one closed window, so one
// spool file, per burst. Each file costs ~0.5 ms of kernel time on the
// reference host's shared disk, whose speed swings far more than its
// CPUs', so few files keep the daemon's time mostly the monitor's own.
constexpr std::size_t kFollowBursts = 42;
constexpr std::uint64_t kFollowEpochNs = 100'000'000;

const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"op_1t_ms", "ms"},
    {"op_4t_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"net.pcap_parse_ns", "ns"},        {"net.pcap_tail_ns", "ns"},
    {"monitor.partition_ns", "ns"},     {"core.partition_setup_us", "us"},
    {"ir.execute_ns", "ns"},            {"ir.execute_nometer_ns", "ns"},
    {"hw.cycle_meter_ns", "ns"},        {"dslib.expire_us", "us"},
    {"dslib.expired_per_sweep", "count"},
    {"monitor.attribute_ns", "ns"},     {"monitor.attr_memo_hit_ratio", "ratio"},
    {"perf.validate_ns", "ns"},         {"monitor.accumulate_ns", "ns"},
    {"monitor.report_ms", "ms"},        {"monitor.stream_feed_ns", "ns"},
    {"obs.delta_window_us", "us"},      {"obs.spool_write_us", "us"},
    {"obs.merge_ms", "ms"},             {"symbex.explore_ms", "ms"},
    {"symbex.solve_ms", "ms"},          {"core.replay_coalesce_ms", "ms"},
    {"symbex.paths", "count"},          {"symbex.solver_calls", "count"},
    {"symbex.feas_cache_hit_ratio", "ratio"},
    {"scaling_4t", "ratio"},            {"monitor.run_1t_ns", "ns"},
    {"residual_pct", "%"},              {"trace_overhead_pct", "%"},
};

// ------------------------------------------------------------- statistics

struct Summary {
  double median = 0, p25 = 0, p75 = 0;
  std::size_t n = 0;
};

// Quartiles by the same rule as Python's statistics.quantiles(n=4)
// ("exclusive"), so these agree with compare.py.
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n < 2) {
    s.p25 = s.p75 = v[0];
    return s;
  }
  auto quartile = [&](long i) {
    const long m = static_cast<long>(n) + 1;
    const long j = std::clamp<long>(i * m / 4, 1, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) / 4;
  };
  s.p25 = quartile(1);
  s.p75 = quartile(3);
  return s;
}

double median(const std::vector<double>& v) { return summarize(v).median; }

// ------------------------------------------------------- product processes

struct ProcResult {
  int code = -1;  ///< exit code (128 + signal when killed)
  double wall_ms = 0;
  double rss_mb = 0;
};

/// Starts `program` with `args`, stdout and stderr into `log`. -1 on
/// failure. Linux carries the spawning process's peak RSS across exec into
/// the child's ru_maxrss, so the driver must stay small while it spawns:
/// it makes its traffic in a child of its own (--make-traffic).
pid_t spawn(const std::string& program, const std::vector<std::string>& args,
            const fs::path& log) {
  std::vector<std::string> full{program};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : full) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

pid_t spawn_cli(const std::vector<std::string>& args, const fs::path& log) {
  return spawn(BOLT_CLI_PATH, args, log);
}

/// Waits for `pid` and returns its exit code and peak RSS.
ProcResult reap(pid_t pid) {
  ProcResult r;
  if (pid < 0) return r;
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) return r;
  }
  r.code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  r.rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return r;
}

ProcResult run_cli(const std::vector<std::string>& args, const fs::path& log) {
  const auto t0 = Clock::now();
  ProcResult r = reap(spawn_cli(args, log));
  r.wall_ms = ms_since(t0);
  return r;
}

/// Whole file, or "" when it is missing.
std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string golden_contract(const std::string& nf) {
  return slurp(fs::path(BOLT_GOLDEN_DIR) / ("contract_" + nf + ".json"));
}

/// First `"key":<integer>` in a rendered report (the top-level one for
/// every key this driver reads).
std::uint64_t json_u64(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// ------------------------------------------------------------------ result

class Result {
 public:
  /// One product operation: attempted, and failed unless `ok`.
  void op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "bolt_bench: FAILED %s\n", what.c_str());
    }
  }
  void sample(const std::string& name, double value) {
    series(name).samples.push_back(value);
  }
  /// A metric whose value is the largest sample (peak memory).
  void peak(const std::string& name, double value) {
    Series& s = series(name);
    s.use_max = true;
    s.samples.push_back(value);
  }
  double value(const std::string& name) {
    const Series& s = series(name);
    if (s.samples.empty()) return 0;
    return s.use_max ? *std::max_element(s.samples.begin(), s.samples.end())
                     : median(s.samples);
  }
  bool correct() const { return attempted_ > 0 && failed_ == 0; }

  std::map<std::string, double> mix;  ///< traffic-mix counts

  /// Prints the detail line and the result line for `names`.
  void print(const std::string& workload, std::uint64_t seed, bool trace,
             const std::vector<std::pair<const char*, const char*>>& names) {
    std::string detail = "{\"workload\":";
    support::json_quote_into(detail, workload);
    detail += ",\"seed\":" + std::to_string(seed) +
              ",\"trace\":" + (trace ? "1" : "0") + ",\"stats\":{";
    std::string metrics;
    for (const auto& [name, unit] : names) {
      const Summary sum = summarize(series(name).samples);
      const std::string head = "\"" + std::string(name) + "\":{\"value\":" +
                               num(value(name)) + ",\"unit\":\"" + unit + "\"";
      if (!metrics.empty()) metrics += ',';
      metrics += head + "}";
      if (detail.back() != '{') detail += ',';
      detail += head + ",\"median\":" + num(sum.median) + ",\"p25\":" +
                num(sum.p25) + ",\"p75\":" + num(sum.p75) +
                ",\"n\":" + std::to_string(sum.n) + "}";
    }
    detail += "},\"mix\":{";
    bool first = true;
    for (const auto& [key, v] : mix) {
      if (!first) detail += ',';
      first = false;
      support::json_quote_into(detail, key);
      detail += ":" + num(v);
    }
    detail += "}}";
    std::printf("%s\n", detail.c_str());
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_), metrics.c_str());
    std::fflush(stdout);
  }

 private:
  struct Series {
    bool use_max = false;
    std::vector<double> samples;
  };
  Series& series(const std::string& name) { return series_[name]; }
  static std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
  }

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, Series> series_;
};

// ------------------------------------------------------ monitor workloads

struct MonitorSpec {
  std::string nf;              ///< registered target
  std::uint64_t epoch_ns = 0;  ///< bolt_cli --epoch-ns
  bool delta = false;          ///< bolt_cli --delta-every 1
  int exit_code = 0;           ///< bolt_cli's expected exit code
  bool follow = false;         ///< daemon + fleet instead of batch runs
};

bool monitor_spec(const std::string& workload, MonitorSpec* out) {
  if (workload == "nat_zipf") {
    *out = {"nat", 1'000'000'000, false, 0, false};
  } else if (workload == "router_drift") {
    // Exit 3: the drift detector alerts before any bound is crossed.
    *out = {"router", 1'000'000'000, true, 3, false};
  } else if (workload == "nat_follow") {
    *out = {"nat", kFollowEpochNs, true, 0, true};
  } else {
    return false;
  }
  return true;
}

std::vector<net::Packet> make_traffic(const std::string& workload,
                                      std::uint64_t seed) {
  if (workload == "nat_zipf") {
    net::ZipfSpec spec;
    spec.seed = seed;
    spec.flow_pool = 2048;
    spec.skew = 1.1;
    spec.packet_count = kZipfPackets;
    return net::zipf_traffic(spec);
  }
  if (workload == "router_drift") {
    net::DriftSpec spec;
    spec.seed = seed;
    spec.windows = kDriftWindows;
    spec.packets_per_window = kDriftPacketsPerWindow;
    spec.option_words = 10;
    return net::drift_traffic(spec);
  }
  net::LongRunSpec spec;
  spec.seed = seed;
  spec.packet_count = kFollowPackets;
  spec.bursts = kFollowBursts;
  return net::long_run_traffic(spec);
}

/// Writes the workload's pcap; prints its packet count and new-flow share
/// (distinct five-tuples per packet). Runs in a child of the driver.
int write_traffic(const std::string& workload, std::uint64_t seed,
                  const fs::path& out) {
  const std::vector<net::Packet> packets = make_traffic(workload, seed);
  std::unordered_set<std::uint64_t> flows;
  for (const net::Packet& p : packets) {
    if (const auto tuple = net::extract_five_tuple(p)) flows.insert(tuple->key());
  }
  net::write_pcap(out.string(), packets);
  std::printf("%zu %.12g\n", packets.size(),
              static_cast<double>(flows.size()) /
                  static_cast<double>(std::max<std::size_t>(packets.size(), 1)));
  return 0;
}

/// Traffic-mix counts a later change can quote, from the reference report
/// and delta stream: packets per contract class, idle expirations, epoch
/// sweeps, delta windows and drift alerts.
void record_mix(const std::string& report, const std::string& delta,
                Result& r) {
  r.mix["idle_expirations"] =
      static_cast<double>(json_u64(report, "state_expired_idle"));
  r.mix["epoch_sweeps"] = static_cast<double>(json_u64(report, "epoch_sweeps"));
  r.mix["windows"] = static_cast<double>(count_of(delta, "\n"));
  r.mix["drift_alerts"] = static_cast<double>(count_of(delta, "\"eta_windows\""));
  const std::string open = "{\"input_class\":\"";
  for (std::size_t at = report.find(open); at != std::string::npos;
       at = report.find(open, at + 1)) {
    const std::size_t name_end = report.find('"', at + open.size());
    const std::string name = report.substr(at + open.size(), name_end - at - open.size());
    const std::uint64_t n = json_u64(report.substr(name_end), "packets");
    if (n > 0) r.mix["class." + name] = static_cast<double>(n);
  }
}

/// Stores the workload's contract the way an operator deploys one
/// (`bolt_cli contract <nf> --out`), kSetupReps times: setup_s is their
/// median. Returns the stored artifact's path.
fs::path store_contract(const std::string& nf, const fs::path& dir,
                        Result& r) {
  const std::string golden = golden_contract(nf);
  std::string first;
  for (int k = 0; k < kSetupReps; ++k) {
    const fs::path path = dir / ("contract" + std::to_string(k) + ".json");
    const ProcResult p =
        run_cli({"contract", nf, "--out", path.string()}, dir / "contract.log");
    const std::string bytes = slurp(path);
    if (k == 0) first = bytes;
    r.op(p.code == 0 && !bytes.empty() && bytes == first &&
             (golden.empty() || bytes == golden),
         "bolt_cli contract " + nf);
    r.sample("setup_s", p.wall_ms / 1000.0);
    r.peak("peak_rss_mb", p.rss_mb);
  }
  return dir / "contract0.json";
}

std::vector<std::string> monitor_args(const MonitorSpec& spec,
                                      const fs::path& contract,
                                      const fs::path& pcap) {
  std::vector<std::string> args{"monitor",   spec.nf,
                                "--contract", contract.string(),
                                "--pcap",     pcap.string(),
                                "--epoch-ns", std::to_string(spec.epoch_ns)};
  if (spec.delta) {
    args.push_back("--delta-every");
    args.push_back("1");
  }
  return args;
}

/// The first run's report and delta stream; every later run must match them
/// byte for byte.
struct Reference {
  std::string report;
  std::string delta;
  std::uint64_t packets = 0;

  bool matches(const fs::path& report_path, const fs::path& delta_path) {
    const std::string rep = slurp(report_path);
    const std::string del = slurp(delta_path);
    if (report.empty()) {
      // Benign traffic: every packet attributed, no bound crossed.
      if (json_u64(rep, "packets") != packets ||
          json_u64(rep, "unattributed") != 0 ||
          json_u64(rep, "violations") != 0) {
        return false;
      }
      report = rep;
      delta = del;
      return true;
    }
    return rep == report && del == delta;
  }
};

/// nat_zipf / router_drift: `bolt_cli monitor` at 1 and 4 threads.
void e2e_batch(const MonitorSpec& spec, const fs::path& contract,
               const fs::path& pcap, const fs::path& dir, double seconds,
               Reference& ref, Result& r) {
  const fs::path report = dir / "report.json";
  const fs::path delta = dir / "delta.jsonl";
  const auto start = Clock::now();
  for (int pair = 0; pair < kMinReps || ms_since(start) < seconds * 1e3;
       ++pair) {
    for (int k = 0; k < 2; ++k) {
      const std::size_t threads = (pair + k) % 2 == 0 ? 1 : kManyThreads;
      std::vector<std::string> args = monitor_args(spec, contract, pcap);
      args.insert(args.end(), {"--threads", std::to_string(threads),
                               "--report", report.string()});
      if (spec.delta) args.insert(args.end(), {"--delta-out", delta.string()});
      fs::remove(report);
      fs::remove(delta);
      const ProcResult p = run_cli(args, dir / "monitor.log");
      r.op(p.code == spec.exit_code && ref.matches(report, delta),
           "bolt_cli monitor " + spec.nf + " --threads " +
               std::to_string(threads));
      r.sample(threads == 1 ? "op_1t_ms" : "op_4t_ms", p.wall_ms);
      r.peak("peak_rss_mb", p.rss_mb);
    }
  }
}

/// nat_follow: the daemon alone (catch-up on the finished file, op_1t_ms)
/// and a 4-instance fleet plus `bolt merge` (op_4t_ms). The batch monitor
/// and a merge of the single daemon's spool must give the same bytes.
void e2e_follow(const MonitorSpec& spec, const fs::path& contract,
                const fs::path& pcap, const fs::path& dir, double seconds,
                Reference& ref, Result& r) {
  std::vector<std::string> daemon = monitor_args(spec, contract, pcap);
  daemon.insert(daemon.end(), {"--follow", "--idle-exit-ms", "1"});
  const fs::path report = dir / "report.json";
  const fs::path delta = dir / "delta.jsonl";
  const fs::path spool1 = dir / "spool1";
  const fs::path spool4 = dir / "spool4";
  auto fresh = [&] {
    fs::remove(report);
    fs::remove(delta);
  };
  const std::vector<std::string> outputs{"--report", report.string(),
                                         "--delta-out", delta.string()};

  const auto start = Clock::now();
  for (int pair = 0; pair < kMinReps || ms_since(start) < seconds * 1e3;
       ++pair) {
    for (int k = 0; k < 2; ++k) {
      fresh();
      if ((pair + k) % 2 == 0) {
        fs::remove_all(spool1);
        std::vector<std::string> args = daemon;
        args.insert(args.end(), {"--spool", spool1.string()});
        args.insert(args.end(), outputs.begin(), outputs.end());
        const ProcResult p = run_cli(args, dir / "daemon.log");
        r.op(p.code == spec.exit_code && ref.matches(report, delta),
             "bolt_cli monitor --follow");
        r.sample("op_1t_ms", p.wall_ms);
        r.peak("peak_rss_mb", p.rss_mb);
        continue;
      }
      fs::remove_all(spool4);
      const auto t0 = Clock::now();
      std::vector<pid_t> pids;
      for (std::size_t i = 0; i < kManyThreads; ++i) {
        std::vector<std::string> args = daemon;
        args.insert(args.end(),
                    {"--fleet",
                     std::to_string(i) + "/" + std::to_string(kManyThreads),
                     "--spool", spool4.string()});
        pids.push_back(
            spawn_cli(args, dir / ("fleet" + std::to_string(i) + ".log")));
      }
      bool ok = true;
      for (const pid_t pid : pids) {
        const ProcResult p = reap(pid);
        ok = ok && p.code == spec.exit_code;
        r.peak("peak_rss_mb", p.rss_mb);
      }
      std::vector<std::string> merge{"merge", spec.nf, "--spool",
                                     spool4.string()};
      merge.insert(merge.end(), outputs.begin(), outputs.end());
      const ProcResult m = run_cli(merge, dir / "merge.log");
      r.op(ok && m.code == spec.exit_code && ref.matches(report, delta),
           "4-instance fleet + bolt merge");
      r.sample("op_4t_ms", ms_since(t0));
      r.peak("peak_rss_mb", m.rss_mb);
    }
  }

  fresh();
  std::vector<std::string> batch = monitor_args(spec, contract, pcap);
  batch.insert(batch.end(), {"--threads", "1"});
  batch.insert(batch.end(), outputs.begin(), outputs.end());
  const ProcResult b = run_cli(batch, dir / "batch.log");
  r.op(b.code == spec.exit_code && ref.matches(report, delta),
       "batch monitor equals the daemon");
  fresh();
  std::vector<std::string> merge{"merge", spec.nf, "--spool", spool1.string()};
  merge.insert(merge.end(), outputs.begin(), outputs.end());
  const ProcResult m = run_cli(merge, dir / "merge.log");
  r.op(m.code == spec.exit_code && ref.matches(report, delta),
       "merge of the daemon's spool equals the daemon");
}

// ---------------------------------------------------------------- gen_all

/// Generates `name`'s contract at `threads`; returns the stored-artifact
/// bytes and adds the generate() wall time to *ms.
std::string generate(const std::string& name, std::size_t threads, double* ms,
                     std::size_t* paths = nullptr) {
  perf::PcvRegistry reg;
  core::NfTarget target;
  BOLT_CHECK(core::make_named_target(name, reg, target), "unknown target");
  core::BoltOptions options;
  options.threads = threads;
  const auto t0 = Clock::now();
  const core::GenerationResult g =
      core::ContractGenerator(reg, options).generate(target.analysis());
  *ms += ms_since(t0);
  if (paths != nullptr) *paths = g.total_paths;
  return perf::contract_to_json(g.contract, reg) + "\n";
}

/// Contract bytes must repeat across reps and thread counts, and equal the
/// committed golden where one exists.
struct ContractCheck {
  std::map<std::string, std::string> first;
  bool ok(const std::string& name, const std::string& bytes) {
    auto [it, inserted] = first.emplace(name, bytes);
    const std::string golden = golden_contract(name);
    return (inserted || it->second == bytes) &&
           (golden.empty() || bytes == golden);
  }
};

void e2e_gen(double seconds, Result& r) {
  const std::vector<std::string>& names = core::named_targets();
  for (int k = 0; k < kSetupReps; ++k) {
    const auto t0 = Clock::now();
    for (const std::string& name : names) {
      perf::PcvRegistry reg;
      core::NfTarget target;
      BOLT_CHECK(core::make_named_target(name, reg, target), "unknown target");
    }
    r.sample("setup_s", ms_since(t0) / 1000.0);
  }
  ContractCheck check;
  const auto start = Clock::now();
  for (int pair = 0; pair < kMinReps || ms_since(start) < seconds * 1e3;
       ++pair) {
    for (int k = 0; k < 2; ++k) {
      const std::size_t threads = (pair + k) % 2 == 0 ? 1 : kManyThreads;
      double ms = 0;
      for (const std::string& name : names) {
        std::size_t paths = 0;
        const std::string bytes = generate(name, threads, &ms, &paths);
        r.op(check.ok(name, bytes), "generate " + name);
        r.mix["paths." + name] = static_cast<double>(paths);
      }
      r.sample(threads == 1 ? "op_1t_ms" : "op_4t_ms", ms);
    }
  }
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  r.peak("peak_rss_mb", static_cast<double>(self.ru_maxrss) / 1024.0);
}

// ------------------------------------------------------------------ trace

/// Spans of one traced pass (name, start, end, parent), kept in memory and
/// written out at the end. A disabled trace only returns durations.
class Trace {
 public:
  explicit Trace(bool record) : record_(record), origin_(Clock::now()) {}

  /// Records a finished span; returns its id (-1 when not recording).
  int add(const char* name, int parent, Clock::time_point start,
          Clock::time_point end) {
    if (!record_) return -1;
    spans_.push_back({name, parent, ns_between(origin_, start),
                      ns_between(origin_, end)});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// An enclosing span, closed by close(); children may name it as parent.
  int open(const char* name, int parent) {
    const auto now = Clock::now();
    return add(name, parent, now, now);
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = ns_between(origin_, Clock::now());
  }

  bool write(const fs::path& path, const std::string& workload) const {
    std::string out = "{\"workload\":";
    support::json_quote_into(out, workload);
    out += ",\"unit\":\"ns\",\"spans\":[";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "%s{\"id\":%zu,\"name\":\"%s\",\"start\":%.0f,\"end\":%.0f,"
                    "\"parent\":%d}",
                    i == 0 ? "" : ",\n", i, s.name, s.start_ns, s.end_ns,
                    s.parent);
      out += buf;
    }
    out += "]}\n";
    return support::write_file(path.string(), out);
  }

 private:
  struct Span {
    const char* name;
    int parent;
    double start_ns;
    double end_ns;
  };
  bool record_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Busy time (ns) and work counts of one traced pass, per layer.
struct Layers {
  double parse = 0, tail = 0, partition = 0, setup = 0, execute = 0;
  double nometer = 0, expire = 0, attribute = 0, validate = 0;
  double accumulate = 0, report = 0, delta = 0, stream = 0, spool = 0;
  double merge = 0, explore = 0, solve = 0, generate = 0;
  double run_1t = 0, engine_1t = 0, engine_4t = 0, replay_wall = 0;
  double gen_4t = 0;
  std::uint64_t packets = 0, tailed = 0, streamed = 0, partitions = 0;
  std::uint64_t sweeps = 0, expired = 0, resolves = 0, memo_hits = 0;
  std::uint64_t rows = 0, windows = 0, spool_writes = 0;
  std::uint64_t paths = 0, solver_calls = 0, feas_hits = 0, feas_misses = 0;

  std::map<std::string, double> metrics() const {
    auto per = [](double total, double count) {
      return count > 0 ? total / count : 0.0;
    };
    const double n = static_cast<double>(packets);
    std::map<std::string, double> m;
    m["net.pcap_parse_ns"] = per(parse, n);
    m["net.pcap_tail_ns"] = per(tail, static_cast<double>(tailed));
    m["monitor.partition_ns"] = per(partition, n);
    m["core.partition_setup_us"] =
        per(setup, static_cast<double>(partitions)) / 1e3;
    m["ir.execute_ns"] = per(execute, n);
    m["ir.execute_nometer_ns"] = per(nometer, n);
    m["hw.cycle_meter_ns"] = per(execute - nometer, n);
    m["dslib.expire_us"] = per(expire, static_cast<double>(sweeps)) / 1e3;
    m["dslib.expired_per_sweep"] =
        per(static_cast<double>(expired), static_cast<double>(sweeps));
    m["monitor.attribute_ns"] = per(attribute, static_cast<double>(resolves));
    m["monitor.attr_memo_hit_ratio"] = per(static_cast<double>(memo_hits),
                                           static_cast<double>(resolves));
    m["perf.validate_ns"] = per(validate, static_cast<double>(rows));
    m["monitor.accumulate_ns"] = per(accumulate, static_cast<double>(rows));
    m["monitor.report_ms"] = report / 1e6;
    m["monitor.stream_feed_ns"] = per(stream, static_cast<double>(streamed));
    m["obs.delta_window_us"] = per(delta, static_cast<double>(windows)) / 1e3;
    m["obs.spool_write_us"] =
        per(spool, static_cast<double>(spool_writes)) / 1e3;
    m["obs.merge_ms"] = merge / 1e6;
    m["symbex.explore_ms"] = explore / 1e6;
    m["symbex.solve_ms"] = solve / 1e6;
    m["core.replay_coalesce_ms"] = (generate - explore - solve) / 1e6;
    m["symbex.paths"] = static_cast<double>(paths);
    m["symbex.solver_calls"] = static_cast<double>(solver_calls);
    m["symbex.feas_cache_hit_ratio"] =
        per(static_cast<double>(feas_hits),
            static_cast<double>(feas_hits + feas_misses));
    m["scaling_4t"] = packets > 0 ? per(engine_1t, engine_4t)
                                  : per(generate, gen_4t);
    m["monitor.run_1t_ns"] = per(run_1t, n);
    const double layer_sum = parse + partition + setup + execute + expire +
                             attribute + validate + accumulate + report +
                             delta;
    m["residual_pct"] = run_1t > 0 ? (run_1t - layer_sum) / run_1t * 100 : 0;
    m["trace_overhead_pct"] =
        run_1t > 0 ? (replay_wall - run_1t) / run_1t * 100 : 0;
    return m;
  }
};

/// Generation layers for `names`, each target on one thread: explore and
/// solve through a standalone symbex::Executor, then the whole generate();
/// replay + coalesce is the remainder. Returns the stored-artifact bytes.
std::map<std::string, std::string> trace_generation(
    const std::vector<std::string>& names, Layers& L, Trace& T, int parent) {
  std::map<std::string, std::string> contracts;
  for (const std::string& name : names) {
    perf::PcvRegistry reg;
    core::NfTarget target;
    BOLT_CHECK(core::make_named_target(name, reg, target), "unknown target");
    const core::NfAnalysis analysis = target.analysis();
    std::map<std::int64_t, symbex::SymbolicModel> models;
    for (const auto& [id, spec] : *analysis.methods) models.emplace(id, spec.model);
    symbex::ExecutorOptions options;
    options.threads = 1;

    auto s = Clock::now();
    symbex::Executor executor(analysis.programs, std::move(models), options);
    std::vector<symbex::PathResult> paths = executor.run();
    auto e = Clock::now();
    L.explore += ns_between(s, e);
    T.add("symbex.explore", parent, s, e);
    s = e;
    executor.solve_inputs(paths);
    e = Clock::now();
    L.solve += ns_between(s, e);
    T.add("symbex.solve", parent, s, e);
    const symbex::ExecutorStats& stats = executor.stats();
    L.paths += stats.completed_paths;
    L.solver_calls += stats.solver_calls;
    L.feas_hits += stats.feas_cache_hits;
    L.feas_misses += stats.feas_cache_misses;

    s = Clock::now();
    double ms = 0;
    contracts[name] = generate(name, 1, &ms);
    L.generate += ms * 1e6;
    T.add("core.generate", parent, s, Clock::now());
  }
  return contracts;
}

/// The batch engine's per-partition loop (MonitorEngine's QueueTask and
/// Validator) replayed through public calls on one thread, each layer timed
/// over runs of kRun consecutive calls. Row fill and batching are the
/// engine's own glue; they run here untimed and land in residual_pct.
class EngineReplay {
 public:
  EngineReplay(const perf::Contract& contract, const perf::PcvRegistry& reg,
               const monitor::MonitorOptions& options, Layers& L, Trace& T)
      : contract_(contract), reg_(reg), options_(options), L_(L), T_(T) {
    const std::size_t entries = contract_.entries().size();
    stride_ = std::max<std::size_t>(reg_.size(), 1);
    for (std::size_t i = 0; i < entries; ++i) {
      const perf::ContractEntry& entry = contract_.entries()[i];
      std::array<perf::CompiledExpr, 3> exprs;
      for (const perf::Metric m : perf::kAllMetrics) {
        exprs[perf::metric_index(m)] = perf::CompiledExpr::compile(entry.perf.get(m));
        stride_ = std::max(stride_, exprs[perf::metric_index(m)].slot_count());
      }
      vms_.push_back(std::move(exprs));
      entry_index_.emplace(entry.input_class, i);
      names_.push_back(entry.input_class);
    }
    if (options_.delta_every > 0 && options_.epoch_ns > 0) {
      window_ns_ = options_.epoch_ns * options_.delta_every;
    }
    classes_.assign(entries, monitor::ClassAccum{});
    pending_.resize(entries);
    for (std::size_t e = 0; e < entries; ++e) {
      Batch& b = pending_[e];
      b.entry = static_cast<std::uint32_t>(e);
      b.slots.resize(kRun * stride_);
      for (auto& col : b.measured) col.resize(kRun);
      b.indices.resize(kRun);
      b.windows.resize(kRun);
    }
    for (auto& col : predicted_) col.resize(kRun);
  }

  /// Runs the packets through `nf`; returns the report JSON and the delta
  /// stream as bolt_cli writes them.
  std::pair<std::string, std::string> run(const std::string& nf,
                                          const std::vector<net::Packet>& packets,
                                          int parent) {
    const std::size_t P = options_.partitions;
    std::vector<std::vector<std::uint64_t>> work(P);
    std::array<std::size_t, kRun> part{};
    for (std::size_t i = 0; i < packets.size(); i += kRun) {
      const std::size_t m = std::min(kRun, packets.size() - i);
      const auto s = Clock::now();
      for (std::size_t j = 0; j < m; ++j) {
        part[j] = monitor::partition_of(packets[i + j], P);
      }
      const auto e = Clock::now();
      L_.partition += ns_between(s, e);
      T_.add("monitor.partition_of", parent, s, e);
      for (std::size_t j = 0; j < m; ++j) work[part[j]].push_back(i + j);
    }
    for (std::size_t p = 0; p < P; ++p) {
      const int span = T_.open("partition", parent);
      run_partition(nf, packets, work[p], span);
      T_.close(span);
    }
    for (Batch& b : pending_) validate(b, parent);
    L_.expired += totals_.expired_idle;

    auto s = Clock::now();
    monitor::MonitorReport report = monitor::build_report(
        contract_.nf_name(), packets.size(), P, options_.check_cycles,
        options_.epoch_ns, names_, std::move(classes_), totals_);
    const std::string json = monitor::report_to_json(report) + "\n";
    auto e = Clock::now();
    L_.report += ns_between(s, e);
    T_.add("monitor.report", parent, s, e);

    std::string delta;
    obs::DriftDetector detector(options_.drift);
    for (const auto& [window, accums] : deltas_) {
      s = Clock::now();
      const obs::DeltaWindow w = monitor::build_delta_window(
          window, window_ns_, names_, accums, detector, nullptr);
      const std::string line = obs::delta_window_to_json(w);
      e = Clock::now();
      L_.delta += ns_between(s, e);
      T_.add("obs.delta_window", parent, s, e);
      ++L_.windows;
      delta += line + "\n";
    }
    return {json, delta};
  }

 private:
  struct Batch {
    std::uint32_t entry = 0;
    std::size_t rows = 0;
    std::vector<std::uint64_t> slots;
    std::array<std::vector<std::uint64_t>, 3> measured;
    std::vector<std::uint64_t> indices;
    std::vector<std::uint64_t> windows;
  };

  void run_partition(const std::string& nf,
                     const std::vector<net::Packet>& packets,
                     const std::vector<std::uint64_t>& indices, int parent) {
    auto s = Clock::now();
    perf::PcvRegistry local_reg;
    core::NfTarget target;
    BOLT_CHECK(core::make_named_target(nf, local_reg, target), "unknown target");
    hw::ConservativeModel cycles(options_.cycle_costs);
    const bool check_cycles = options_.check_cycles;
    const auto runner = target.make_runner(
        options_.framework, check_cycles ? &cycles : nullptr, options_.engine);
    monitor::ClassResolver resolver(&entry_index_);
    resolver.bind(target);
    auto e = Clock::now();
    L_.setup += ns_between(s, e);
    T_.add("core.partition_setup", parent, s, e);
    ++L_.partitions;

    constexpr std::uint32_t kUnmapped = ~0u;
    std::vector<std::uint32_t> pcv_slot(local_reg.size(), kUnmapped);
    for (const perf::PcvId id : local_reg.all()) {
      if (reg_.contains(local_reg.name(id))) {
        pcv_slot[id] = reg_.require(local_reg.name(id));
      }
    }
    ir::RunLabels& labels = runner->labels();
    std::vector<std::uint32_t> loop_slot(labels.loop_count(), kUnmapped);
    for (std::size_t flat = 0; flat < labels.loop_count(); ++flat) {
      if (reg_.contains(labels.loop_name(flat))) {
        loop_slot[flat] = reg_.require(labels.loop_name(flat));
      }
    }

    const bool track_state = target.has_state_observers();
    const bool epochs_on = options_.epoch_ns > 0 && track_state;
    bool have_epoch = false;
    std::uint64_t next_boundary = 0;
    std::array<ir::RunResult, kRun> runs;
    std::array<std::uint64_t, kRun> cyc{};
    std::array<std::uint32_t, kRun> entry{};
    std::vector<std::pair<Clock::time_point, Clock::time_point>> sweeps;
    net::Packet scratch;

    for (std::size_t i = 0; i < indices.size(); i += kRun) {
      const std::size_t m = std::min(kRun, indices.size() - i);
      double expire_ns = 0;
      sweeps.clear();
      s = Clock::now();
      for (std::size_t j = 0; j < m; ++j) {
        const net::Packet& packet = packets[indices[i + j]];
        if (epochs_on) {
          const std::uint64_t ts = packet.timestamp_ns();
          if (!have_epoch) {
            have_epoch = true;
            next_boundary = (ts / options_.epoch_ns + 1) * options_.epoch_ns;
          } else if (ts >= next_boundary) {
            const std::uint64_t epoch = ts / options_.epoch_ns;
            const auto xs = Clock::now();
            totals_.expired_idle += target.expire_state(epoch * options_.epoch_ns);
            const auto xe = Clock::now();
            sweeps.emplace_back(xs, xe);
            expire_ns += ns_between(xs, xe);
            ++totals_.epoch_sweeps;
            next_boundary = (epoch + 1) * options_.epoch_ns;
          }
        }
        scratch = packet;
        if (check_cycles) cycles.begin_packet();
        runner->process_into(scratch, runs[j]);
        cyc[j] = check_cycles ? cycles.packet_cycles() : 0;
        if (track_state) {
          totals_.high_water = std::max<std::uint64_t>(
              totals_.high_water, target.state_occupancy());
        }
      }
      e = Clock::now();
      const int block = T_.add("ir.process_into", parent, s, e);
      for (const auto& [xs, xe] : sweeps) T_.add("dslib.expire_state", block, xs, xe);
      L_.execute += ns_between(s, e) - expire_ns;
      L_.expire += expire_ns;
      L_.sweeps += sweeps.size();

      s = e;
      for (std::size_t j = 0; j < m; ++j) {
        entry[j] = resolver.resolve(runs[j], labels, monitor::kUnattributedEntry,
                                    &L_.memo_hits);
      }
      e = Clock::now();
      L_.attribute += ns_between(s, e);
      T_.add("monitor.resolve", parent, s, e);
      L_.resolves += m;

      for (std::size_t j = 0; j < m; ++j) {
        const std::uint64_t index = indices[i + j];
        if (entry[j] == monitor::kUnattributedEntry) {
          if (!totals_.any_unattributed || index < totals_.first_unattributed) {
            totals_.any_unattributed = true;
            totals_.first_unattributed = index;
          }
          ++totals_.unattributed;
          continue;
        }
        Batch& b = pending_[entry[j]];
        std::uint64_t* row = b.slots.data() + b.rows * stride_;
        std::fill_n(row, stride_, 0);
        for (const auto& [id, value] : runs[j].pcvs.values()) {
          if (id < pcv_slot.size() && pcv_slot[id] != kUnmapped) {
            row[pcv_slot[id]] = value;
          }
        }
        for (std::size_t flat = 0; flat < runs[j].loop_trips.size(); ++flat) {
          const std::uint64_t trips = runs[j].loop_trips[flat];
          if (trips != 0 && loop_slot[flat] != kUnmapped) row[loop_slot[flat]] = trips;
        }
        b.measured[0][b.rows] = runs[j].instructions;
        b.measured[1][b.rows] = runs[j].mem_accesses;
        b.measured[2][b.rows] = cyc[j];
        b.indices[b.rows] = index;
        if (window_ns_ > 0) b.windows[b.rows] = packets[index].timestamp_ns() / window_ns_;
        if (++b.rows == kRun) validate(b, parent);
      }
    }
    totals_.state_tracked = totals_.state_tracked || track_state;
    if (track_state) totals_.residents += target.state_occupancy();
  }

  void validate(Batch& b, int parent) {
    const std::size_t rows = b.rows;
    if (rows == 0) return;
    auto s = Clock::now();
    for (const perf::Metric m : perf::kAllMetrics) {
      if (m == perf::Metric::kCycles && !options_.check_cycles) continue;
      const int mi = perf::metric_index(m);
      vms_[b.entry][mi].eval_batch(b.slots.data(), stride_, rows,
                                   predicted_[mi].data(), scratch_);
    }
    auto e = Clock::now();
    L_.validate += ns_between(s, e);
    T_.add("perf.eval_batch", parent, s, e);

    s = e;
    monitor::ClassAccum& acc = classes_[b.entry];
    acc.packets += rows;
    for (std::size_t r = 0; r < rows; ++r) {
      monitor::DeltaEntryAccum* da = nullptr;
      if (window_ns_ > 0) {
        auto [it, inserted] = deltas_.try_emplace(b.windows[r]);
        if (inserted) it->second.resize(names_.size());
        da = &it->second[b.entry];
        ++da->packets;
      }
      monitor::Offender worst;
      bool has_offender = false;
      for (const perf::Metric m : perf::kAllMetrics) {
        if (m == perf::Metric::kCycles && !options_.check_cycles) continue;
        const int mi = perf::metric_index(m);
        const std::uint64_t measured = b.measured[mi][r];
        const std::int64_t bound = predicted_[mi][r];
        acc.metrics[mi].record(b.indices[r], measured, bound);
        const bool violated = static_cast<std::int64_t>(measured) > bound;
        if (da != nullptr) {
          da->headroom_pm[mi].add(monitor::util_pm(measured, bound));
          if (violated) ++da->violations[mi];
        }
        if (violated) {
          acc.violation_margin_pm.add(
              bound > 0 ? (measured - static_cast<std::uint64_t>(bound)) * 1000 /
                              static_cast<std::uint64_t>(bound)
                        : monitor::kDegenerateUtilPm);
        }
        if (!has_offender ||
            monitor::util_cmp(measured, bound, worst.measured, worst.predicted) > 0) {
          has_offender = true;
          worst.packet_index = b.indices[r];
          worst.metric = m;
          worst.predicted = bound;
          worst.measured = measured;
        }
      }
      if (has_offender) acc.add_offender(worst, options_.max_offenders);
    }
    e = Clock::now();
    L_.accumulate += ns_between(s, e);
    T_.add("monitor.accumulate", parent, s, e);
    L_.rows += rows;
    b.rows = 0;
  }

  const perf::Contract& contract_;
  const perf::PcvRegistry& reg_;
  const monitor::MonitorOptions options_;
  Layers& L_;
  Trace& T_;
  std::size_t stride_ = 0;
  std::uint64_t window_ns_ = 0;
  std::vector<std::array<perf::CompiledExpr, 3>> vms_;
  std::unordered_map<std::string, std::size_t> entry_index_;
  std::vector<std::string> names_;
  std::vector<monitor::ClassAccum> classes_;
  std::map<std::uint64_t, std::vector<monitor::DeltaEntryAccum>> deltas_;
  monitor::RunTotals totals_;
  std::vector<Batch> pending_;
  std::array<std::vector<std::int64_t>, 3> predicted_;
  perf::BatchScratch scratch_;
};

/// NfRunner::process_into with no sink attached, over the same partitions
/// and epoch sweeps (untimed) as the replay: execute without the meter.
void trace_nometer(const std::string& nf, const std::vector<net::Packet>& packets,
                   const monitor::MonitorOptions& options, Layers& L, Trace& T,
                   int parent) {
  const std::size_t P = options.partitions;
  std::vector<std::vector<std::uint64_t>> work(P);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    work[monitor::partition_of(packets[i], P)].push_back(i);
  }
  ir::RunResult run;
  net::Packet scratch;
  for (const std::vector<std::uint64_t>& indices : work) {
    perf::PcvRegistry reg;
    core::NfTarget target;
    BOLT_CHECK(core::make_named_target(nf, reg, target), "unknown target");
    const auto runner = target.make_runner(options.framework, nullptr, options.engine);
    const bool epochs_on = options.epoch_ns > 0 && target.has_state_observers();
    std::uint64_t next_boundary = 0;
    for (std::size_t i = 0; i < indices.size(); i += kRun) {
      const std::size_t m = std::min(kRun, indices.size() - i);
      double expire_ns = 0;
      const auto s = Clock::now();
      for (std::size_t j = 0; j < m; ++j) {
        const net::Packet& packet = packets[indices[i + j]];
        const std::uint64_t ts = packet.timestamp_ns();
        if (epochs_on && next_boundary == 0) {
          next_boundary = (ts / options.epoch_ns + 1) * options.epoch_ns;
        } else if (epochs_on && ts >= next_boundary) {
          const auto xs = Clock::now();
          target.expire_state(ts / options.epoch_ns * options.epoch_ns);
          expire_ns += ms_since(xs) * 1e6;
          next_boundary = (ts / options.epoch_ns + 1) * options.epoch_ns;
        }
        scratch = packet;
        runner->process_into(scratch, run);
      }
      const auto e = Clock::now();
      L.nometer += ns_between(s, e) - expire_ns;
      T.add("ir.process_into.nometer", parent, s, e);
    }
  }
}

/// The daemon's layers, on one thread: PcapTail::poll over the finished
/// file, StreamMonitor::feed packet by packet, spool writes per closed
/// window, then read_spool + merge_partials. Returns the streamed and the
/// merged report JSON.
std::pair<std::string, std::string> trace_stream(
    const std::string& nf, const fs::path& pcap, const perf::Contract& contract,
    const perf::PcvRegistry& reg, const monitor::MonitorOptions& options,
    const fs::path& spool, Layers& L, Trace& T, int parent) {
  auto s = Clock::now();
  net::PcapTail tail(pcap.string());
  std::vector<net::Packet> packets;
  for (std::vector<net::Packet> chunk = tail.poll(); !chunk.empty();
       chunk = tail.poll()) {
    packets.insert(packets.end(), std::make_move_iterator(chunk.begin()),
                   std::make_move_iterator(chunk.end()));
  }
  auto e = Clock::now();
  L.tail += ns_between(s, e);
  L.tailed += packets.size();
  T.add("net.pcap_tail", parent, s, e);

  fs::remove_all(spool);
  fs::create_directories(spool);
  std::vector<std::string> names;
  for (const perf::ContractEntry& entry : contract.entries()) {
    names.push_back(entry.input_class);
  }
  double callback_ns = 0;
  bool spool_ok = true;
  // What bolt_cli's on-window callback does with --spool.
  auto on_window = [&](const monitor::ClosedWindow& cw) {
    if (cw.stats->packets == 0) return;
    const auto ws = Clock::now();
    obs::WindowPartial wp;
    wp.nf = contract.nf_name();
    wp.window = cw.window;
    wp.window_ns = cw.window_ns;
    for (std::size_t i = 0; i < cw.accums->size(); ++i) {
      if ((*cw.accums)[i].packets == 0) continue;
      wp.classes.push_back(names[i]);
      wp.accums.push_back((*cw.accums)[i]);
    }
    wp.packets = cw.stats->packets;
    wp.unattributed = cw.stats->unattributed;
    wp.first_unattributed = cw.stats->first_unattributed;
    wp.any_unattributed = cw.stats->any_unattributed;
    wp.epoch_sweeps = cw.stats->epoch_sweeps;
    wp.expired_idle = cw.stats->expired_idle;
    wp.high_water = cw.stats->high_water;
    wp.late_packets = cw.stats->late_packets;
    spool_ok = support::write_file(
                   obs::spool_window_path(spool.string(), nf, 0, cw.window),
                   obs::window_partial_to_json(wp) + "\n") &&
               spool_ok;
    const auto we = Clock::now();
    const double ns = ns_between(ws, we);
    L.spool += ns;
    callback_ns += ns;
    ++L.spool_writes;
    T.add("obs.spool_write", parent, ws, we);
  };

  monitor::StreamMonitor sm(contract, reg, monitor::MonitorEngine::named_factory(nf),
                            options, {}, on_window);
  for (std::size_t i = 0; i < packets.size(); i += kRun) {
    const std::size_t m = std::min(kRun, packets.size() - i);
    const double before = callback_ns;
    s = Clock::now();
    for (std::size_t j = 0; j < m; ++j) sm.feed(packets[i + j]);
    e = Clock::now();
    L.stream += ns_between(s, e) - (callback_ns - before);
    T.add("monitor.stream_feed", parent, s, e);
  }
  L.streamed += packets.size();
  const monitor::StreamResult result = sm.finish();

  obs::FinalPartial fp;
  fp.nf = contract.nf_name();
  fp.stream_packets = sm.packets_fed();
  fp.partitions = options.partitions;
  fp.cycles_checked = options.check_cycles;
  fp.epoch_ns = options.epoch_ns;
  fp.max_offenders = options.max_offenders;
  fp.entries = names;
  fp.residents = result.report.state_residents;
  fp.state_tracked = result.report.state_tracked;
  spool_ok = support::write_file(obs::spool_final_path(spool.string(), nf, 0),
                                 obs::final_partial_to_json(fp) + "\n") &&
             spool_ok;

  s = Clock::now();
  std::vector<obs::WindowPartial> windows;
  std::vector<obs::FinalPartial> finals;
  obs::read_spool(spool.string(), nf, &windows, &finals);
  const obs::FleetMergeResult merged =
      obs::merge_partials(windows, finals, obs::DriftOptions{});
  e = Clock::now();
  L.merge += ns_between(s, e);
  T.add("obs.merge", parent, s, e);
  if (!spool_ok) return {"spool write failed", ""};
  return {monitor::report_to_json(result.report) + "\n",
          monitor::report_to_json(merged.report) + "\n"};
}

/// Untraced MonitorEngine::run at `threads`, returning the report and delta
/// stream as bolt_cli renders them.
std::pair<std::string, std::string> engine_run(
    const std::string& nf, const std::vector<net::Packet>& packets,
    const perf::Contract& contract, const perf::PcvRegistry& reg,
    monitor::MonitorOptions options, std::size_t threads) {
  options.threads = threads;
  const monitor::MonitorEngine engine(contract, reg, options);
  obs::RunObservations observations;
  const monitor::MonitorReport report =
      engine.run(packets, monitor::MonitorEngine::named_factory(nf), nullptr,
                 options.delta_every > 0 ? &observations : nullptr);
  std::string delta;
  for (const obs::DeltaWindow& w : observations.deltas) {
    delta += obs::delta_window_to_json(w) + "\n";
  }
  return {monitor::report_to_json(report) + "\n", delta};
}

/// Records one pass's per-layer metrics as samples.
void sample_layers(const Layers& L, Result& r) {
  for (const auto& [name, value] : L.metrics()) r.sample(name, value);
}

void trace_monitor(const std::string& workload, const MonitorSpec& spec,
                   const fs::path& contract_path, const fs::path& pcap,
                   const fs::path& dir, const fs::path& trace_path,
                   double seconds, Reference& ref, Result& r) {
  std::vector<std::string> args = monitor_args(spec, contract_path, pcap);
  args.insert(args.end(), {"--threads", "1", "--report", (dir / "report.json").string()});
  if (spec.delta) args.insert(args.end(), {"--delta-out", (dir / "delta.jsonl").string()});
  const ProcResult p = run_cli(args, dir / "monitor.log");
  r.op(p.code == spec.exit_code && ref.matches(dir / "report.json", dir / "delta.jsonl"),
       "bolt_cli monitor (reference for the traced pass)");

  perf::PcvRegistry reg;
  const perf::Contract contract = perf::load_contract(contract_path.string(), reg);
  const std::string stored = slurp(contract_path);
  monitor::MonitorOptions options;
  options.epoch_ns = spec.epoch_ns;
  options.delta_every = spec.delta ? 1 : 0;

  const auto start = Clock::now();
  for (int pass = 0; pass < kMinReps || ms_since(start) < seconds * 1e3; ++pass) {
    const bool first = pass == 0;
    Layers L;
    Trace T(first);
    const int root = T.open("pass", -1);
    const int gen = T.open("generation", root);
    const auto contracts = trace_generation({spec.nf}, L, T, gen);
    T.close(gen);

    const auto wall0 = Clock::now();
    auto s = wall0;
    const std::vector<net::Packet> packets = net::read_pcap(pcap.string());
    auto e = Clock::now();
    L.parse += ns_between(s, e);
    L.packets += packets.size();
    T.add("net.read_pcap", root, s, e);
    const int replay_span = T.open("engine_replay", root);
    EngineReplay replay(contract, reg, options, L, T);
    const auto traced = replay.run(spec.nf, packets, replay_span);
    T.close(replay_span);
    L.replay_wall += ms_since(wall0) * 1e6;

    const int nometer = T.open("nometer", root);
    trace_nometer(spec.nf, packets, options, L, T, nometer);
    T.close(nometer);

    s = Clock::now();
    std::pair<std::string, std::string> untraced;
    {
      const std::vector<net::Packet> again = net::read_pcap(pcap.string());
      const auto engine0 = Clock::now();
      untraced = engine_run(spec.nf, again, contract, reg, options, 1);
      e = Clock::now();
      L.engine_1t += ns_between(engine0, e);
    }
    L.run_1t += ns_between(s, e);
    T.add("untraced.run_1t", root, s, e);
    s = Clock::now();
    const auto many = engine_run(spec.nf, packets, contract, reg, options, kManyThreads);
    e = Clock::now();
    L.engine_4t += ns_between(s, e);
    T.add("untraced.run_4t", root, s, e);

    std::pair<std::string, std::string> streamed;
    if (spec.follow) {
      const int stream = T.open("daemon", root);
      streamed = trace_stream(spec.nf, pcap, contract, reg, options,
                              dir / "trace_spool", L, T, stream);
      T.close(stream);
    }
    T.close(root);

    if (first) {
      auto same = [&](const std::pair<std::string, std::string>& out) {
        return out.first == ref.report && out.second == ref.delta;
      };
      r.op(contracts.at(spec.nf) == stored, "in-process contract equals the stored one");
      r.op(same(traced), "traced replay equals bolt_cli's report");
      r.op(same(untraced), "MonitorEngine at 1 thread equals bolt_cli's report");
      r.op(same(many), "MonitorEngine at 4 threads equals bolt_cli's report");
      if (spec.follow) {
        r.op(streamed.first == ref.report, "StreamMonitor equals bolt_cli's report");
        r.op(streamed.second == ref.report, "merged spool equals bolt_cli's report");
      }
      r.op(T.write(trace_path, workload), "write " + trace_path.string());
    }
    sample_layers(L, r);
  }
}

void trace_gen(const fs::path& trace_path, double seconds, Result& r) {
  const std::vector<std::string>& names = core::named_targets();
  ContractCheck check;
  const auto start = Clock::now();
  for (int pass = 0; pass < kMinReps || ms_since(start) < seconds * 1e3; ++pass) {
    Layers L;
    Trace T(pass == 0);
    const int root = T.open("pass", -1);
    const auto contracts = trace_generation(names, L, T, root);
    const auto s = Clock::now();
    double ms = 0;
    for (const std::string& name : names) {
      std::size_t paths = 0;
      r.op(check.ok(name, generate(name, kManyThreads, &ms, &paths)),
           "generate " + name);
      r.mix["paths." + name] = static_cast<double>(paths);
    }
    L.gen_4t += ms * 1e6;
    T.add("untraced.generate_4t", root, s, Clock::now());
    T.close(root);
    for (const auto& [name, bytes] : contracts) {
      r.op(check.ok(name, bytes), "generate " + name + " (traced)");
    }
    if (pass == 0) r.op(T.write(trace_path, "gen_all"), "write " + trace_path.string());
    sample_layers(L, r);
  }
}

// ------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path work = "bolt_bench_work";
  fs::path make_traffic;  ///< child mode: write the workload's pcap here
};

const std::vector<std::string> kWorkloads = {"nat_zipf", "router_drift",
                                             "nat_follow", "gen_all"};

Result run_workload(const Args& args) {
  Result r;
  const fs::path dir =
      args.work / (args.workload + "-" + std::to_string(args.seed));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path trace_path = args.work / ("TRACE_" + args.workload + ".json");

  MonitorSpec spec;
  if (!monitor_spec(args.workload, &spec)) {
    if (args.trace) {
      trace_gen(trace_path, args.seconds, r);
    } else {
      e2e_gen(args.seconds, r);
    }
    fs::remove_all(dir);
    return r;
  }

  const fs::path pcap = dir / "traffic.pcap";
  Reference ref;
  const fs::path made = dir / "traffic.txt";
  const ProcResult p = reap(spawn(
      fs::read_symlink("/proc/self/exe").string(),
      {"--make-traffic", pcap.string(), "--workload", args.workload, "--seed",
       std::to_string(args.seed)},
      made));
  double new_flow_share = 0;
  std::istringstream(slurp(made)) >> ref.packets >> new_flow_share;
  BOLT_CHECK(p.code == 0 && ref.packets > 0, "bolt_bench: making traffic failed");
  r.mix["packets"] = static_cast<double>(ref.packets);
  r.mix["new_flow_share"] = new_flow_share;
  const fs::path contract = store_contract(spec.nf, dir, r);
  if (args.trace) {
    trace_monitor(args.workload, spec, contract, pcap, dir, trace_path,
                  args.seconds, ref, r);
  } else if (spec.follow) {
    e2e_follow(spec, contract, pcap, dir, args.seconds, ref, r);
  } else {
    e2e_batch(spec, contract, pcap, dir, args.seconds, ref, r);
  }
  record_mix(ref.report, ref.delta, r);
  fs::remove_all(dir);
  return r;
}

int usage() {
  std::fprintf(stderr,
               "usage: bolt_bench --workload W --seed N [--seconds S] "
               "[--trace 0|1] [--work DIR]\n"
               "       bolt_bench [--work DIR]   (every workload, seed 1)\n"
               "workloads: nat_zipf router_drift nat_follow gen_all\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work") {
      args.work = value;
    } else if (flag == "--make-traffic") {
      args.make_traffic = value;
    } else {
      return usage();
    }
  }
  if (!args.workload.empty() &&
      std::find(kWorkloads.begin(), kWorkloads.end(), args.workload) ==
          kWorkloads.end()) {
    return usage();
  }

  if (!args.make_traffic.empty()) {
    return write_traffic(args.workload, args.seed, args.make_traffic);
  }
  if (!args.workload.empty()) {
    Result r = run_workload(args);
    r.print(args.workload, args.seed, args.trace,
            args.trace ? kPerLayer : kEndToEnd);
    return r.correct() ? 0 : 1;
  }
  // No workload: every workload at seed 1, archived for the CI trend table.
  support::BenchReport report("bolt_bench");
  bool all_correct = true;
  for (const std::string& workload : kWorkloads) {
    args.workload = workload;
    Result r = run_workload(args);
    r.print(workload, args.seed, false, kEndToEnd);
    all_correct = all_correct && r.correct();
    for (const auto& [name, unit] : kEndToEnd) {
      report.metric(workload + "." + name, r.value(name), unit);
    }
  }
  return all_correct ? 0 : 1;
}
