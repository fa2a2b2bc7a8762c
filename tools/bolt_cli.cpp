// bolt — command-line front end to the contract generator, the Distiller,
// the contract monitor and the adversarial traffic tools.
//
//   bolt contract <nf>    generate an NF's contract; print or store it
//   bolt paths <nf>       per-path report (no coalescing)
//   bolt distill <nf>     run a PCAP through the NF, report PCVs
//   bolt predict <nf>     evaluate the contract at a PCV binding
//   bolt monitor <nf>     validate every packet of a trace, or of a growing
//                         pcap as a daemon, against the contract (generated
//                         in-process, or a stored artifact); one instance
//                         of a fleet with --fleet and --spool
//   bolt merge <nf>       fold a fleet's spooled partials into the
//                         fleet-wide delta stream and report
//   bolt adversary <nf>   synthesise contract-guided worst-case traffic and
//                         replay it through the monitor
//   bolt hunt <nf>        feedback-directed search for contract violations;
//                         a find is minimised to a witness trace
//   bolt gen <kind>       write a workload PCAP
//   bolt scenarios        run the Figure-1 scenario sweep
//
// `bolt --help` (core/cli_usage.cpp) lists each subcommand's flags, the NF
// names and the workload kinds; kFlags below is the parser's side of it.
#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "adversary/adversary.h"
#include "adversary/hunter.h"
#include "adversary/minimize.h"
#include "adversary/report.h"
#include "adversary/trace.h"
#include "core/bolt.h"
#include "core/cli_usage.h"
#include "core/distiller.h"
#include "core/experiments.h"
#include "core/targets.h"
#include "monitor/follow.h"
#include "monitor/monitor.h"
#include "net/pcap.h"
#include "obs/delta.h"
#include "obs/fleet.h"
#include "obs/telemetry.h"
#include "perf/contract_io.h"
#include "support/bench.h"
#include "support/io.h"
#include "support/strings.h"

using namespace bolt;

namespace {

int usage() {
  std::fputs(core::cli_usage_text(), stderr);
  return 2;
}

/// Parses a whole decimal number: digits only (no sign, no blank) that fit
/// in 64 bits.
bool parse_u64(const char* text, std::uint64_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(*text))) return false;
  errno = 0;
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return *end == '\0' && errno != ERANGE;
}

/// parse_u64, or the run ends with exit 2.
std::uint64_t numeric_arg(const char* text, const char* what) {
  std::uint64_t v = 0;
  if (!parse_u64(text, &v)) {
    std::fprintf(stderr, "error: bad %s value '%s'\n", what, text);
    std::exit(2);
  }
  return v;
}

/// Every subcommand's options; kFlags sets them, `--help` documents them.
struct CliArgs {
  // The contract and the traffic.
  std::string contract;  // stored artifact; empty = generate in-process
  std::string pcap;      // the traffic when set (excludes the two below)
  std::optional<std::string> workload;  // unset = target default
  std::optional<std::size_t> packets;   // unset = 100'000
  // Monitor semantics and execution.
  std::size_t partitions = 8;
  std::size_t threads = 0;  // 0 = one per hardware thread
  std::uint64_t epoch_ns = 1'000'000'000;
  std::uint64_t violation_threshold = 0;
  std::uint64_t inflate_pct = 0;
  bool cycles = true;
  // Outputs.
  bool json = false;
  std::string out;     // contract artifact, or adversary/hunt trace prefix
  std::string report;  // also write the report JSON here
  // Telemetry layer (src/obs/).
  std::size_t delta_every = 0;   // delta window width in epochs (0 = off)
  std::string delta_out;         // write the delta JSONL stream here
  std::string metrics_out;       // write the telemetry snapshot here
  std::string metrics_format = "json";  // json | prom
  bool watch = false;            // stream delta windows to stdout
  // Fleet mode (monitor/follow.h + obs/fleet.h).
  bool follow = false;           // daemon: tail --pcap as it grows
  std::string spool;             // write fleet partials here (also: merge)
  std::uint64_t idle_flush_ns = 0;   // follow: provisional flush after quiet
  std::uint64_t idle_exit_ms = 0;    // follow: clean exit after quiet (0=run)
  std::uint32_t fleet_instance = 0;  // --fleet I/N
  std::uint32_t fleet_instances = 1;
  // Adversarial synthesis and the hunt.
  std::uint64_t seed = 1;
  std::size_t probes = 12;
  std::uint64_t min_reached_pct = 1;
  std::size_t generations = 6;
  std::size_t population = 4;
  std::size_t budget = 0;       // 0 = generations * population + 1
  std::size_t max_replays = 0;  // minimiser replay cap (0 = uncapped)
  bool inject_straddle_bug = false;  // test-only measurement fault
};

/// One command-line flag: the subcommands it applies to (space-separated)
/// and its setter, which gets the flag's value (nullptr for a switch) and
/// ends the run with exit 2 on a bad one.
struct Flag {
  const char* name;
  bool takes_value;
  const char* commands;
  void (*set)(CliArgs& args, const char* flag, const char* value);
};

// Short names keep each row of the table to two lines.
using A = CliArgs;
using V = const char*;
const Flag kFlags[] = {
    {"--json", false, "contract paths monitor merge adversary hunt",
     [](A& a, V, V) { a.json = true; }},
    {"--threads", true, "monitor adversary hunt scenarios",
     [](A& a, V f, V v) { a.threads = numeric_arg(v, f); }},
    {"--packets", true, "monitor",
     [](A& a, V f, V v) { a.packets = numeric_arg(v, f); }},
    {"--partitions", true, "monitor adversary hunt",
     [](A& a, V f, V v) { a.partitions = numeric_arg(v, f); }},
    {"--epoch-ns", true, "monitor adversary hunt",
     [](A& a, V f, V v) { a.epoch_ns = numeric_arg(v, f); }},
    {"--seed", true, "adversary hunt",
     [](A& a, V f, V v) { a.seed = numeric_arg(v, f); }},
    {"--probes", true, "adversary hunt",
     [](A& a, V f, V v) { a.probes = numeric_arg(v, f); }},
    {"--min-reached-pct", true, "adversary",
     [](A& a, V f, V v) { a.min_reached_pct = numeric_arg(v, f); }},
    {"--generations", true, "hunt",
     [](A& a, V f, V v) { a.generations = numeric_arg(v, f); }},
    {"--population", true, "hunt",
     [](A& a, V f, V v) { a.population = numeric_arg(v, f); }},
    {"--budget", true, "hunt",
     [](A& a, V f, V v) { a.budget = numeric_arg(v, f); }},
    {"--max-replays", true, "hunt",
     [](A& a, V f, V v) { a.max_replays = numeric_arg(v, f); }},
    // Test-only, so the help does not list it.
    {"--inject-straddle-bug", false, "hunt",
     [](A& a, V, V) { a.inject_straddle_bug = true; }},
    {"--contract", true, "monitor adversary hunt",
     [](A& a, V, V v) { a.contract = v; }},
    {"--report", true, "monitor merge adversary hunt",
     [](A& a, V, V v) { a.report = v; }},
    {"--out", true, "contract adversary hunt",
     [](A& a, V, V v) { a.out = v; }},
    {"--violation-threshold", true, "monitor merge",
     [](A& a, V f, V v) { a.violation_threshold = numeric_arg(v, f); }},
    {"--inflate", true, "monitor",
     [](A& a, V f, V v) { a.inflate_pct = numeric_arg(v, f); }},
    {"--no-cycles", false, "monitor", [](A& a, V, V) { a.cycles = false; }},
    {"--delta-every", true, "monitor",
     [](A& a, V f, V v) { a.delta_every = numeric_arg(v, f); }},
    {"--delta-out", true, "monitor merge",
     [](A& a, V, V v) { a.delta_out = v; }},
    {"--metrics-out", true, "monitor merge",
     [](A& a, V, V v) { a.metrics_out = v; }},
    {"--metrics-format", true, "monitor merge",
     [](A& a, V, V v) {
       if (std::strcmp(v, "json") != 0 && std::strcmp(v, "prom") != 0) {
         std::fprintf(stderr,
                      "error: bad --metrics-format value '%s' (json | prom)\n",
                      v);
         std::exit(2);
       }
       a.metrics_format = v;
     }},
    {"--watch", false, "monitor merge", [](A& a, V, V) { a.watch = true; }},
    {"--follow", false, "monitor", [](A& a, V, V) { a.follow = true; }},
    {"--spool", true, "monitor merge", [](A& a, V, V v) { a.spool = v; }},
    {"--idle-flush-ns", true, "monitor",
     [](A& a, V f, V v) { a.idle_flush_ns = numeric_arg(v, f); }},
    {"--idle-exit-ms", true, "monitor",
     [](A& a, V f, V v) { a.idle_exit_ms = numeric_arg(v, f); }},
    {"--fleet", true, "monitor",
     [](A& a, V, V v) {
       const char* slash = std::strchr(v, '/');
       std::uint64_t i = 0;
       std::uint64_t n = 0;
       if (slash == nullptr || !parse_u64(std::string(v, slash).c_str(), &i) ||
           !parse_u64(slash + 1, &n) || i >= n || n > UINT32_MAX) {
         std::fprintf(stderr,
                      "error: bad --fleet value '%s' (want I/N with I < N)\n",
                      v);
         std::exit(2);
       }
       a.fleet_instance = static_cast<std::uint32_t>(i);
       a.fleet_instances = static_cast<std::uint32_t>(n);
     }},
    {"--workload", true, "monitor", [](A& a, V, V v) { a.workload = v; }},
    {"--pcap", true, "monitor", [](A& a, V, V v) { a.pcap = v; }},
};

/// Parses argv[2..] into `args`; 0, or the exit code after printing the
/// error. Positionals (nf names, paths, counts, k=v bindings) pass through;
/// a flag that is unknown, or known but not for `cmd`, ends the run: the
/// monitor exit code is a CI gate, and a typo'd or misplaced flag would
/// change what it gates on.
int parse_flags(const std::string& cmd, int argc, char** argv, CliArgs& args) {
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    const Flag* flag = std::find_if(
        std::begin(kFlags), std::end(kFlags),
        [&](const Flag& f) { return std::strcmp(f.name, argv[i]) == 0; });
    if (flag == std::end(kFlags)) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return usage();
    }
    if ((" " + std::string(flag->commands) + " ").find(" " + cmd + " ") ==
        std::string::npos) {
      std::fprintf(stderr, "error: flag '%s' does not apply to '%s'\n",
                   flag->name, cmd.c_str());
      return 2;
    }
    const char* value = nullptr;
    if (flag->takes_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", flag->name);
        return 2;
      }
      value = argv[++i];
    }
    flag->set(args, flag->name, value);
  }
  return 0;
}

/// The contract a run checks, its PCVs interned into `reg`: the stored
/// artifact `file` (checked to have been generated for `nf`), or, when
/// `file` is empty, one generated in-process, whose path reports go to
/// `witnesses` (if given) for the adversarial synthesiser. nullopt, after
/// printing the error, when the run must exit 2.
std::optional<perf::Contract> load_contract(
    const std::string& nf, const std::string& file, perf::PcvRegistry& reg,
    std::vector<core::PathReport>* witnesses = nullptr) {
  // A stored artifact needs no generation and no symbolic execution: the
  // target is only built to name the contract it must match.
  perf::PcvRegistry probe_reg;
  core::NfTarget target;
  if (!core::make_named_target(nf, file.empty() ? reg : probe_reg, target)) {
    usage();
    return std::nullopt;
  }
  if (file.empty()) {
    core::GenerationResult generated =
        core::ContractGenerator(reg).generate(target.analysis());
    if (witnesses != nullptr) *witnesses = std::move(generated.path_reports);
    return std::move(generated.contract);
  }
  perf::Contract contract = perf::load_contract(file, reg);
  if (contract.nf_name() != target.contract_name()) {
    std::fprintf(stderr,
                 "error: contract '%s' was generated for nf '%s', not '%s'\n",
                 file.c_str(), contract.nf_name().c_str(),
                 target.contract_name().c_str());
    return std::nullopt;
  }
  return contract;
}

int cmd_contract(const std::string& nf, bool per_path, bool as_json,
                 const std::string& out_file) {
  perf::PcvRegistry reg;
  core::NfTarget target;
  if (!core::make_named_target(nf, reg, target)) return usage();
  core::BoltOptions options;
  options.coalesce = !per_path;
  core::ContractGenerator generator(reg, options);
  const auto result = generator.generate(target.analysis());
  if (!out_file.empty()) {
    if (!perf::save_contract(out_file, result.contract, reg)) {
      std::fprintf(stderr, "error: cannot write contract to '%s'\n",
                   out_file.c_str());
      return 1;
    }
    // Status goes to stderr: with --json, stdout is a machine-read stream.
    std::fprintf(stderr,
                 "stored contract for %s (%zu entries, schema v%lld) in %s\n",
                 nf.c_str(), result.contract.entries().size(),
                 static_cast<long long>(perf::kContractSchemaVersion),
                 out_file.c_str());
    if (!as_json) return 0;
  }
  if (as_json) {
    std::printf("%s\n", perf::contract_to_json(result.contract, reg).c_str());
    return 0;
  }
  std::printf("%s", result.contract.str_all(reg).c_str());
  std::printf("\npaths: %zu   entries: %zu   unsolved: %zu   pruned: %zu\n",
              result.total_paths, result.contract.entries().size(),
              result.unsolved_paths, result.executor_stats.pruned_branches);
  std::printf("solver: %zu feasibility probes (%zu cache hits, %zu misses)\n",
              result.executor_stats.solver_calls,
              result.executor_stats.feas_cache_hits,
              result.executor_stats.feas_cache_misses);
  std::printf("branch joins: %zu dominated arms merged, %zu revived\n",
              result.executor_stats.merged_states,
              result.executor_stats.revived_states);
  if (result.executor_stats.truncated_paths > 0) {
    std::printf("truncated: %zu (canonical prefix kept; raise max_paths to"
                " see all)\n",
                result.executor_stats.truncated_paths);
  }
  if (!reg.all().empty()) {
    std::printf("\nPCV glossary:\n");
    for (const perf::PcvId id : reg.all()) {
      if (!reg.description(id).empty()) {
        std::printf("  %-4s %s\n", reg.name(id).c_str(),
                    reg.description(id).c_str());
      }
    }
  }
  return 0;
}

int cmd_distill(const std::string& nf, const std::string& pcap) {
  perf::PcvRegistry reg;
  core::NfTarget target;
  if (!core::make_named_target(nf, reg, target)) return usage();
  std::vector<net::Packet> packets = net::read_pcap(pcap);
  std::printf("loaded %zu packets from %s\n\n", packets.size(), pcap.c_str());

  hw::RealisticSim testbed;
  const auto runner = target.make_runner(nf::framework_full(), &testbed);
  core::Distiller distiller(*runner, &testbed,
                            target.is_stateless ? nullptr : &target.methods());
  const auto report = distiller.run(packets);

  std::map<std::string, std::size_t> classes;
  for (const auto& rec : report.records) ++classes[rec.class_key];
  std::printf("input classes observed:\n");
  for (const auto& [key, count] : classes) {
    std::printf("  %8zu  %s\n", count, key.c_str());
  }
  std::printf("\nworst measured: %s instructions, %s accesses, %s cycles\n",
              support::with_commas(static_cast<std::int64_t>(
                                       report.worst_measured("instructions")))
                  .c_str(),
              support::with_commas(static_cast<std::int64_t>(
                                       report.worst_measured("mem_accesses")))
                  .c_str(),
              support::with_commas(static_cast<std::int64_t>(
                                       report.worst_measured("cycles")))
                  .c_str());
  std::printf("\nworst PCV binding:\n");
  // Keep the binding alive: values() returns a reference into it, and
  // iterating a temporary's internals is a use-after-scope.
  const perf::PcvBinding worst_binding = report.worst_binding();
  for (const auto& [id, v] : worst_binding.values()) {
    std::printf("  %-4s = %llu\n", reg.name(id).c_str(),
                static_cast<unsigned long long>(v));
  }
  return 0;
}

int cmd_predict(const std::string& nf, int argc, char** argv, int first) {
  perf::PcvRegistry reg;
  core::NfTarget target;
  if (!core::make_named_target(nf, reg, target)) return usage();
  core::ContractGenerator generator(reg);
  const auto result = generator.generate(target.analysis());

  perf::PcvBinding bind;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos || !reg.contains(arg.substr(0, eq))) {
      std::fprintf(stderr, "bad PCV binding '%s'\n", arg.c_str());
      return 2;
    }
    const std::string pcv = arg.substr(0, eq);
    bind.set(reg.require(pcv), numeric_arg(arg.c_str() + eq + 1, pcv.c_str()));
  }

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Input Class", "Instructions", "Mem Accesses", "Cycles"});
  for (const auto& entry : result.contract.entries()) {
    rows.push_back(
        {entry.input_class,
         support::with_commas(
             entry.perf.get(perf::Metric::kInstructions).eval(bind)),
         support::with_commas(
             entry.perf.get(perf::Metric::kMemoryAccesses).eval(bind)),
         support::with_commas(
             entry.perf.get(perf::Metric::kCycles).eval(bind))});
  }
  std::printf("%s", support::render_table(rows).c_str());
  return 0;
}

/// SIGINT/SIGTERM drain flag for --follow (sig_atomic_t: all a handler may
/// touch). The loop finishes the current poll, then drains and reports.
volatile std::sig_atomic_t g_stop = 0;
void handle_stop(int) { g_stop = 1; }

/// Writes a report JSON file atomically (support::write_file publishes by
/// rename, so a failed or short write never leaves a truncated report for
/// CI to archive as valid); false after printing the error.
bool write_report(const std::string& path, const std::string& json) {
  if (support::write_file(path, json + "\n")) return true;
  std::fprintf(stderr, "error: cannot write report to '%s'\n", path.c_str());
  return false;
}

bool write_metrics_file(const CliArgs& args, const obs::MonitorTelemetry& tel,
                        const std::string& nf) {
  const std::string metrics =
      args.metrics_format == "prom"
          ? obs::telemetry_to_prometheus(tel, nf)
          : obs::telemetry_to_json(tel, nf) + "\n";
  if (!support::write_file(args.metrics_out, metrics)) {
    std::fprintf(stderr, "error: cannot write metrics to '%s'\n",
                 args.metrics_out.c_str());
    return false;
  }
  return true;
}

/// The delta stream of 'monitor' and 'merge': one JSON line per window,
/// written whole and flushed as the window closes — to stdout with --watch,
/// to the --delta-out file, or both — so a reader tailing either only ever
/// sees complete lines. Every file write is checked.
class DeltaStream {
 public:
  explicit DeltaStream(const CliArgs& args) : args_(args) {}
  ~DeltaStream() {
    if (file_ != nullptr) std::fclose(file_);
  }
  DeltaStream(const DeltaStream&) = delete;
  DeltaStream& operator=(const DeltaStream&) = delete;

  /// Opens --delta-out, if set; false (after printing the error) on failure.
  bool open() {
    if (args_.delta_out.empty()) return true;
    file_ = std::fopen(args_.delta_out.c_str(), "wb");
    return file_ != nullptr || fail();
  }

  void write(const obs::DeltaWindow& window) {
    const std::string line = obs::delta_window_to_json(window) + "\n";
    if (args_.watch) {
      std::fputs(line.c_str(), stdout);
      std::fflush(stdout);
    }
    if (file_ != nullptr && ok_) {
      ok_ = std::fputs(line.c_str(), file_) >= 0 && std::fflush(file_) == 0;
    }
  }

  /// Closes the file; false (after printing the error) if any write to it
  /// failed.
  bool close() {
    if (file_ == nullptr) return true;
    const bool ok = ok_ && std::ferror(file_) == 0;
    const bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    return (ok && closed) || fail();
  }

 private:
  bool fail() const {
    std::fprintf(stderr, "error: cannot write delta stream to '%s'\n",
                 args_.delta_out.c_str());
    return false;
  }

  const CliArgs& args_;
  std::FILE* file_ = nullptr;
  bool ok_ = true;  ///< every write to file_ so far succeeded
};

/// The end of a 'monitor' or 'merge' run, once its delta stream is closed.
/// Writes --metrics-out and --report, prints the report (--json; else the
/// table and `footer`, unless --watch keeps stdout a pure JSONL stream),
/// then `note` on stderr, and returns the gate's exit code: 1 when `failed`
/// (the output went wrong earlier), on unattributed packets or on
/// over-threshold violations; 3 on drift alerts, so CI can tell "about to
/// violate" from "violating"; 0 clean.
int finish_run(const CliArgs& args, const monitor::MonitorReport& report,
               const obs::RunObservations& observations,
               const std::string& footer, const std::string& note,
               bool failed) {
  if (!args.metrics_out.empty() &&
      !write_metrics_file(args, observations.telemetry, report.nf)) {
    return 1;
  }
  const std::string json = args.json || !args.report.empty()
                               ? monitor::report_to_json(report)
                               : std::string();
  if (!args.report.empty() && !write_report(args.report, json)) return 1;
  if (args.json) {
    std::printf("%s\n", json.c_str());
  } else if (!args.watch) {
    std::printf("%s%s", report.str().c_str(), footer.c_str());
  }
  std::fputs(note.c_str(), stderr);
  if (failed) return 1;
  if (report.unattributed > 0) {
    std::fprintf(stderr,
                 "error: %llu packets not attributable to any contract "
                 "entry (first at %llu)\n",
                 static_cast<unsigned long long>(report.unattributed),
                 static_cast<unsigned long long>(
                     report.first_unattributed_packet));
    return 1;
  }
  if (report.violations > args.violation_threshold) {
    std::fprintf(stderr, "error: %llu violations (threshold %llu)\n",
                 static_cast<unsigned long long>(report.violations),
                 static_cast<unsigned long long>(args.violation_threshold));
    return 1;
  }
  if (!observations.alerts.empty()) {
    std::fprintf(stderr,
                 "warning: %zu contract-drift alert(s) raised (no violation "
                 "yet; details in the delta stream)\n",
                 observations.alerts.size());
    return 3;
  }
  return 0;
}

/// Runs the monitor: one StreamMonitor fed chunk by chunk from `next_chunk`
/// (the generated trace, the windows of a finished --pcap, or in --follow
/// mode the windows of a growing one), emitting delta lines, spool partials
/// and metrics refreshes as windows close. A run that owns every partition
/// and spools nothing reports what MonitorEngine::run would: both run the
/// one chunk driver (monitor/driver.h).
int run_monitor(const std::string& nf, const perf::Contract& contract,
                const perf::PcvRegistry& reg,
                const monitor::MonitorOptions& options, const CliArgs& args,
                const monitor::MonitorEngine::ChunkSource& next_chunk) {
  monitor::FleetOptions fleet;
  fleet.instance = args.fleet_instance;
  fleet.instances = args.fleet_instances;

  if (!args.spool.empty()) {
    // One level of mkdir (EEXIST is fine): a fleet's instances race to
    // create the shared spool, and either winning is correct.
    if (::mkdir(args.spool.c_str(), 0777) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "error: cannot create spool directory '%s'\n",
                   args.spool.c_str());
      return 1;
    }
  }

  DeltaStream deltas(args);
  if (!deltas.open()) return 1;

  // Contract entry names in contract order — same layout entry_names()
  // reports, available before the monitor exists (the callback needs them).
  std::vector<std::string> entry_names;
  for (const auto& entry : contract.entries()) {
    entry_names.push_back(entry.input_class);
  }

  bool spool_write_failed = false;
  auto write_partial = [&](const std::string& path,
                           const std::string& json) {
    if (support::write_file(path, json + "\n")) return;
    std::fprintf(stderr, "error: cannot write spool partial '%s'\n",
                 path.c_str());
    spool_write_failed = true;
  };
  auto on_window = [&](const monitor::ClosedWindow& cw) {
    // Delta lines are authoritative-only (a provisional flush has no drift
    // pass and would duplicate the window).
    if (cw.has_delta && !cw.provisional) deltas.write(cw.delta);
    // Spool partials upsert by filename: a provisional emission is
    // overwritten by the authoritative close of the same window.
    if (args.spool.empty() || cw.stats->packets == 0) return;
    obs::WindowPartial wp;
    wp.nf = contract.nf_name();
    wp.instance = fleet.instance;
    wp.instances = fleet.instances;
    wp.window = cw.window;
    wp.window_ns = cw.window_ns;
    for (std::size_t e = 0; e < cw.accums->size(); ++e) {
      const monitor::ClassAccum& acc = (*cw.accums)[e];
      if (acc.packets == 0) continue;
      wp.classes.push_back(entry_names[e]);
      wp.accums.push_back(acc);
    }
    wp.packets = cw.stats->packets;
    wp.unattributed = cw.stats->unattributed;
    wp.first_unattributed = cw.stats->first_unattributed;
    wp.any_unattributed = cw.stats->any_unattributed;
    wp.epoch_sweeps = cw.stats->epoch_sweeps;
    wp.expired_idle = cw.stats->expired_idle;
    wp.high_water = cw.stats->high_water;
    wp.late_packets = cw.stats->late_packets;
    write_partial(
        obs::spool_window_path(args.spool, nf, fleet.instance, cw.window),
        obs::window_partial_to_json(wp));
  };

  monitor::StreamMonitor sm(contract, reg,
                            monitor::MonitorEngine::named_factory(nf),
                            options, fleet, on_window);

  auto refresh_metrics = [&]() {
    // Mid-run refreshes are best-effort; the final write is the gated one.
    // The snapshot drains the chunks in flight, so with --metrics-out the
    // daemon steps each chunk before it reads the next.
    if (options.telemetry) {
      write_metrics_file(args, sm.telemetry_snapshot(), contract.nf_name());
    }
  };

  support::BenchTimer timer;
  if (args.follow) {
    // Daemon: tail the pcap as it grows; SIGINT/SIGTERM drains cleanly.
    // An empty poll first drains the chunks in flight (so every window the
    // input has closed is emitted), then waits for the nearest of the next
    // poll, the idle-exit deadline and the idle-flush deadline.
    std::signal(SIGINT, handle_stop);
    std::signal(SIGTERM, handle_stop);
    using Clock = std::chrono::steady_clock;
    constexpr std::chrono::milliseconds kPoll{20};
    const std::chrono::milliseconds idle_exit(args.idle_exit_ms);
    const std::chrono::nanoseconds idle_flush(args.idle_flush_ns);
    Clock::time_point last_data = Clock::now();
    bool drained = true;
    bool flushed_idle = false;
    while (g_stop == 0) {
      const support::Span<const net::PacketView> chunk = next_chunk();
      if (!chunk.empty()) {
        sm.feed(chunk);
        refresh_metrics();
        last_data = Clock::now();
        drained = false;
        flushed_idle = false;  // new data re-arms the idle flush
        continue;
      }
      if (!drained) {
        sm.drain();
        drained = true;
      }
      const Clock::time_point now = Clock::now();
      if (args.idle_exit_ms > 0 && now - last_data >= idle_exit) break;
      if (args.idle_flush_ns > 0 && !flushed_idle &&
          now - last_data >= idle_flush) {
        sm.idle_flush();
        refresh_metrics();
        flushed_idle = true;  // once per quiet spell
      }
      Clock::time_point wake = now + kPoll;
      if (args.idle_exit_ms > 0) wake = std::min(wake, last_data + idle_exit);
      if (args.idle_flush_ns > 0 && !flushed_idle) {
        wake = std::min(wake, last_data + idle_flush);
      }
      std::this_thread::sleep_until(wake);
    }
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
  } else {
    for (auto chunk = next_chunk(); !chunk.empty(); chunk = next_chunk()) {
      sm.feed(chunk);
    }
  }

  const monitor::StreamResult result = sm.finish();
  const double elapsed_ms = timer.elapsed_ms();
  const std::uint64_t fed = sm.packets_fed();

  if (!deltas.close()) return 1;
  if (!args.spool.empty()) {
    obs::FinalPartial fp;
    fp.nf = contract.nf_name();
    fp.instance = fleet.instance;
    fp.instances = fleet.instances;
    fp.stream_packets = fed;
    fp.partitions = std::max<std::size_t>(std::size_t{1}, options.partitions);
    fp.cycles_checked = options.check_cycles;
    fp.epoch_ns = options.epoch_ns;
    fp.max_offenders = options.max_offenders;
    fp.entries = entry_names;
    fp.residents = result.report.state_residents;
    fp.state_tracked = result.report.state_tracked;
    fp.has_telemetry = options.telemetry;
    fp.telemetry = result.observations.telemetry;
    write_partial(obs::spool_final_path(args.spool, nf, fleet.instance),
                  obs::final_partial_to_json(fp));
  }
  const double pps =
      elapsed_ms > 0.0 ? static_cast<double>(fed) / (elapsed_ms / 1000.0)
                       : 0.0;
  char footer[128];
  std::snprintf(footer, sizeof footer,
                "\nprocessed %llu packets in %.1f ms (%.2f Mpps)\n",
                static_cast<unsigned long long>(fed), elapsed_ms, pps / 1e6);
  return finish_run(args, result.report, result.observations, footer, "",
                    spool_write_failed);
}

int cmd_monitor(const std::string& nf, const CliArgs& args) {
  // A capture is the traffic: a traffic-generator flag next to it would be
  // ignored, so the pair is rejected.
  const char* generator_flag = args.packets  ? "--packets"
                               : args.workload ? "--workload"
                                               : nullptr;
  if (!args.pcap.empty() && generator_flag != nullptr) {
    std::fprintf(stderr,
                 "error: --pcap and %s cannot be combined (the capture is "
                 "the traffic)\n",
                 generator_flag);
    return 2;
  }

  perf::PcvRegistry reg;
  const std::optional<perf::Contract> contract =
      load_contract(nf, args.contract, reg);
  if (!contract) return 2;

  if (args.follow && args.pcap.empty()) {
    std::fprintf(stderr, "error: --follow requires --pcap FILE to tail\n");
    return 2;
  }

  // Traffic side: one chunk source. A --pcap is read through PcapTail's
  // read windows, so memory does not grow with the capture; a finished file
  // is checked for a clean end (finish()), while --follow keeps polling a
  // growing one (it may not even exist yet), so nothing is read here. A
  // generated workload is one chunk. The chunk driver keeps
  // kChunksInFlight read windows in use.
  std::optional<net::PcapTail> tail;
  if (!args.pcap.empty()) {
    tail.emplace(args.pcap, monitor::MonitorEngine::kChunksInFlight);
  }
  auto next_window = [&]() -> support::Span<const net::PacketView> {
    const support::Span<const net::PacketView> chunk = tail->poll_views();
    if (chunk.empty() && !args.follow) tail->finish();
    return chunk;
  };
  std::vector<net::Packet> generated;
  std::vector<net::PacketView> generated_views;
  support::Span<const net::PacketView> first;  // read ahead, not yet handed out
  if (!args.follow) {
    if (tail) {
      first = next_window();
    } else {
      generated = core::monitor_workload(nf, args.workload.value_or(""),
                                         args.packets.value_or(100'000));
      generated_views.assign(generated.begin(), generated.end());
      first = generated_views;
    }
    if (first.empty()) {
      std::fprintf(stderr, "error: no packets to monitor\n");
      return usage();
    }
  }
  const monitor::MonitorEngine::ChunkSource next_chunk =
      [&]() -> support::Span<const net::PacketView> {
    if (!first.empty()) return std::exchange(first, {});
    return tail ? next_window() : support::Span<const net::PacketView>{};
  };

  monitor::MonitorOptions options;
  options.partitions = args.partitions;
  options.threads = args.threads;
  options.epoch_ns = args.epoch_ns;
  options.check_cycles = args.cycles;
  // Telemetry layer: --watch and --delta-out imply delta mode at the
  // finest granularity unless --delta-every chose one.
  options.delta_every = args.delta_every;
  if ((args.watch || !args.delta_out.empty()) && options.delta_every == 0) {
    options.delta_every = 1;
  }
  options.telemetry = !args.metrics_out.empty();
  options.framework =
      nf::framework_inflated(options.framework, args.inflate_pct);
  return run_monitor(nf, *contract, reg, options, args, next_chunk);
}

/// 'bolt merge <nf> --spool DIR': fold a fleet's spooled partials into the
/// fleet-wide delta stream and final report. Same output surfaces and exit
/// codes as 'monitor'; the result is byte-identical to a single monitor
/// over the combined traffic, regardless of how many instances spooled or
/// in what order their files land.
int cmd_merge(const std::string& nf, const CliArgs& args) {
  if (args.spool.empty()) {
    std::fprintf(stderr, "error: 'merge' requires --spool DIR\n");
    return 2;
  }
  std::vector<obs::WindowPartial> windows;
  std::vector<obs::FinalPartial> finals;
  obs::read_spool(args.spool, nf, &windows, &finals);
  if (finals.empty()) {
    std::fprintf(stderr,
                 "error: no fleet partials for '%s' under '%s' (need at "
                 "least one final partial)\n",
                 nf.c_str(), args.spool.c_str());
    return 2;
  }
  const std::vector<std::uint32_t> missing =
      obs::missing_finals(windows, finals);
  if (!missing.empty()) {
    std::string ids;
    for (const std::uint32_t i : missing) {
      ids += (ids.empty() ? "" : ", ") + std::to_string(i);
    }
    std::fprintf(stderr,
                 "error: no final partial for '%s' under '%s' from instance(s) "
                 "%s (every instance must drain before merging)\n",
                 nf.c_str(), args.spool.c_str(), ids.c_str());
    return 2;
  }
  // Instances run with the default drift tuning (the monitor CLI exposes
  // no drift knobs), so the replayed detector matches their alerts.
  const obs::FleetMergeResult merged =
      obs::merge_partials(windows, finals, obs::DriftOptions{});

  DeltaStream deltas(args);
  if (!deltas.open()) return 1;
  for (const obs::DeltaWindow& w : merged.observations.deltas) deltas.write(w);
  if (!deltas.close()) return 1;
  const std::string note =
      "merged " + std::to_string(merged.observations.deltas.size()) +
      " window partial(s) from " +
      std::to_string(windows.size() + finals.size()) +
      " file(s) across the fleet\n";
  return finish_run(args, merged.report, merged.observations, "", note, false);
}

int cmd_adversary(const std::string& nf, const CliArgs& args) {
  // In-process mode runs the generator once; its path reports double as
  // the synthesiser's witnesses. Stored mode leaves witness generation to
  // adversarial_traffic (bounds come from the artifact, witnesses can't).
  perf::PcvRegistry reg;
  std::vector<core::PathReport> witnesses;
  const std::optional<perf::Contract> contract =
      load_contract(nf, args.contract, reg, &witnesses);
  if (!contract) return 2;

  adversary::AdversaryOptions opts;
  opts.seed = args.seed;
  opts.partitions = args.partitions;
  opts.epoch_ns = args.epoch_ns;
  opts.probes_per_class = args.probes;
  const adversary::AdversarialTrace trace = adversary::adversarial_traffic(
      nf, *contract, reg, opts, args.contract.empty() ? &witnesses : nullptr);
  if (!args.out.empty()) {
    if (!adversary::save_trace(args.out, trace)) {
      std::fprintf(stderr, "error: cannot write trace pair '%s.{pcap,json}'\n",
                   args.out.c_str());
      return 1;
    }
    std::fprintf(stderr, "stored adversarial trace (%zu packets) in %s.pcap "
                 "+ %s.json\n",
                 trace.packets.size(), args.out.c_str(), args.out.c_str());
  }

  monitor::MonitorOptions mopts;
  mopts.threads = args.threads;
  const adversary::GapReport gap =
      adversary::replay(trace, *contract, reg, mopts);

  const std::string gap_json = adversary::gap_report_to_json(gap);
  if (!args.report.empty() && !write_report(args.report, gap_json)) return 1;
  if (args.json) {
    std::printf("%s\n", gap_json.c_str());
  } else {
    std::printf("%s", gap.str().c_str());
  }

  // CI gates: the closed loop must actually close (plan == observation)
  // and cover the demanded share of the contract's classes.
  if (gap.mismatched > 0) {
    std::fprintf(stderr,
                 "error: %llu packets attributed differently than planned "
                 "(first at %llu)\n",
                 static_cast<unsigned long long>(gap.mismatched),
                 static_cast<unsigned long long>(gap.first_mismatch));
    return 1;
  }
  const std::uint64_t reached_pct =
      gap.classes_total == 0
          ? 100
          : gap.classes_reached * 100 / gap.classes_total;
  if (reached_pct < args.min_reached_pct) {
    std::fprintf(stderr, "error: only %llu%% of classes reached (need %llu%%)\n",
                 static_cast<unsigned long long>(reached_pct),
                 static_cast<unsigned long long>(args.min_reached_pct));
    return 1;
  }
  return 0;
}

std::string hunt_to_json(const std::string& nf, const CliArgs& args,
                         const adversary::HunterResult& hunt,
                         const adversary::MinimizeResult* minimized) {
  using support::json_quote_into;
  std::string out = "{\"version\":1,\"nf\":";
  json_quote_into(out, nf);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"violation_found\":" +
         std::string(hunt.violation_found ? "true" : "false");
  out += ",\"divergence_found\":" +
         std::string(hunt.divergence_found ? "true" : "false");
  out += ",\"violation_generation\":" +
         std::to_string(hunt.violation_generation);
  out += ",\"replays\":" + std::to_string(hunt.replays);
  out += ",\"fitness\":{\"violations\":" +
         std::to_string(hunt.fitness.violations);
  out += ",\"margin_p99_pm\":" + std::to_string(hunt.fitness.margin_p99_pm);
  out += ",\"worst_util_pm\":" + std::to_string(hunt.fitness.worst_util_pm);
  out += ",\"total_util_pm\":" + std::to_string(hunt.fitness.total_util_pm);
  out += "},\"packets\":" + std::to_string(hunt.best.packets.size());
  out += ",\"history\":[";
  bool first = true;
  for (const std::string& line : hunt.history) {
    if (!first) out += ',';
    first = false;
    json_quote_into(out, line);
  }
  out += "],\"minimized\":";
  if (minimized == nullptr) {
    out += "null";
  } else {
    out += "{\"reproduced\":" +
           std::string(minimized->reproduced ? "true" : "false");
    out += ",\"one_minimal\":" +
           std::string(minimized->one_minimal ? "true" : "false");
    out += ",\"original_packets\":" +
           std::to_string(minimized->original_packets);
    out += ",\"packets\":" + std::to_string(minimized->minimized_packets);
    out += ",\"replays\":" + std::to_string(minimized->replays);
    out += '}';
  }
  out += '}';
  return out;
}

int cmd_hunt(const std::string& nf, const CliArgs& args) {
  // Same contract conventions as 'adversary': stored artifact or in-process
  // generation, whose path reports double as seed-trace witnesses.
  perf::PcvRegistry reg;
  std::vector<core::PathReport> witnesses;
  const std::optional<perf::Contract> contract =
      load_contract(nf, args.contract, reg, &witnesses);
  if (!contract) return 2;

  adversary::HunterOptions opts;
  opts.seed = args.seed;
  opts.generations = args.generations;
  opts.population = args.population;
  opts.budget = args.budget;
  opts.adversary.seed = args.seed;
  opts.adversary.partitions = args.partitions;
  opts.adversary.epoch_ns = args.epoch_ns;
  opts.adversary.probes_per_class = args.probes;
  opts.monitor.threads = args.threads;
  opts.monitor.inject_straddle_bug = args.inject_straddle_bug;

  const adversary::HunterResult hunt = adversary::hunt(
      nf, *contract, reg, opts, args.contract.empty() ? &witnesses : nullptr);
  const bool found = hunt.violation_found || hunt.divergence_found;

  // A find is only actionable minimised: shrink it through the same oracle
  // (bug injection included) and persist the witness pair for regression
  // check-in.
  adversary::MinimizeResult minimized;
  if (found) {
    adversary::MinimizeOptions mopts;
    mopts.adversary = opts.adversary;
    mopts.monitor = opts.monitor;
    mopts.max_replays = args.max_replays;
    minimized =
        adversary::minimize(nf, *contract, reg, hunt.best.packets, mopts);
    if (!args.out.empty()) {
      if (!adversary::save_trace(args.out, minimized.trace)) {
        std::fprintf(stderr,
                     "error: cannot write trace pair '%s.{pcap,json}'\n",
                     args.out.c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "stored minimised violating trace (%zu packets, from %zu)"
                   " in %s.pcap + %s.json\n",
                   minimized.minimized_packets, minimized.original_packets,
                   args.out.c_str(), args.out.c_str());
    }
  }

  const std::string hunt_json =
      hunt_to_json(nf, args, hunt, found ? &minimized : nullptr);
  if (!args.report.empty() && !write_report(args.report, hunt_json)) return 1;
  if (args.json) {
    std::printf("%s\n", hunt_json.c_str());
  } else {
    for (const std::string& line : hunt.history) {
      std::printf("%s\n", line.c_str());
    }
    if (found) {
      std::printf("%s: %s in generation %zu (%llu replays)\n", nf.c_str(),
                  hunt.violation_found ? "VIOLATION" : "PLAN DIVERGENCE",
                  hunt.violation_generation,
                  static_cast<unsigned long long>(hunt.replays));
      std::printf("minimised %zu -> %zu packets (%s, %llu oracle replays)\n",
                  minimized.original_packets, minimized.minimized_packets,
                  minimized.one_minimal ? "1-minimal"
                                        : "replay budget spent",
                  static_cast<unsigned long long>(minimized.replays));
      std::printf("%s", minimized.report.str().c_str());
    } else {
      std::printf("%s: no violation in %llu replays (best fitness "
                  "%llu/%llu/%llu/%llu)\n",
                  nf.c_str(), static_cast<unsigned long long>(hunt.replays),
                  static_cast<unsigned long long>(hunt.fitness.violations),
                  static_cast<unsigned long long>(hunt.fitness.margin_p99_pm),
                  static_cast<unsigned long long>(hunt.fitness.worst_util_pm),
                  static_cast<unsigned long long>(hunt.fitness.total_util_pm));
    }
  }

  // The gate: a hunt that finds a violation (or a shadow/monitor
  // divergence) fails the build — the minimised witness is the repro.
  if (found) {
    std::fprintf(stderr, "error: contract %s found\n",
                 hunt.violation_found ? "violation" : "plan divergence");
    return 1;
  }
  return 0;
}

int cmd_scenarios(std::size_t threads) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Scenario", "Pred IC", "Meas IC", "Pred cycles",
                  "Meas cycles", "Ratio"});
  for (const core::ScenarioResult& r : core::run_all_scenarios({}, threads)) {
    char ratio[16];
    std::snprintf(ratio, sizeof ratio, "%.2f", r.cycles_ratio());
    rows.push_back(
        {r.id, support::with_commas(r.predicted_ic),
         support::with_commas(static_cast<std::int64_t>(r.measured_ic)),
         support::with_commas(r.predicted_cycles),
         support::with_commas(static_cast<std::int64_t>(r.measured_cycles)),
         ratio});
  }
  std::printf("%s", support::render_table(rows).c_str());
  return 0;
}

int cmd_gen(const std::string& kind, const std::string& out,
            std::size_t count) {
  // The same traffic `monitor --workload KIND --packets COUNT` runs on,
  // written as it is generated (constant memory). The file is created on
  // the first packet, so a workload with none leaves no file behind.
  std::optional<net::PcapWriter> writer;
  std::size_t written = 0;
  core::stream_workload("", kind, count, [&](net::Packet&& packet) {
    if (!writer) writer.emplace(out);
    writer->write(packet);
    ++written;
  });
  if (written == 0) {
    std::fprintf(stderr, "error: no packets for workload '%s' x %zu\n",
                 kind.c_str(), count);
    return usage();
  }
  writer->close();
  std::printf("wrote %zu packets to %s\n", written, out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --help anywhere on the line: help is the requested output, so it goes
  // to stdout and exits 0 (usage-on-error keeps going to stderr, exit 2).
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::fputs(core::cli_usage_text(), stdout);
      return 0;
    }
  }
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  CliArgs args;
  if (const int code = parse_flags(cmd, argc, argv, args); code != 0) {
    return code;
  }
  if (cmd == "contract" && argc >= 3) {
    return cmd_contract(argv[2], false, args.json, args.out);
  }
  if (cmd == "paths" && argc >= 3) {
    return cmd_contract(argv[2], true, args.json, "");
  }
  if (cmd == "distill" && argc >= 4) return cmd_distill(argv[2], argv[3]);
  if (cmd == "predict" && argc >= 3) return cmd_predict(argv[2], argc, argv, 3);
  if (cmd == "monitor" && argc >= 3) return cmd_monitor(argv[2], args);
  if (cmd == "merge" && argc >= 3) return cmd_merge(argv[2], args);
  if (cmd == "adversary" && argc >= 3) return cmd_adversary(argv[2], args);
  if (cmd == "hunt" && argc >= 3) return cmd_hunt(argv[2], args);
  if (cmd == "gen" && argc >= 4) {
    // The count is positional; a flag there has already been refused.
    return cmd_gen(argv[2], argv[3],
                   argc >= 5 ? numeric_arg(argv[4], "count") : 10'000);
  }
  if (cmd == "scenarios") return cmd_scenarios(args.threads);
  return usage();
}
