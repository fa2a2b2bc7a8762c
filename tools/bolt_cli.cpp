// bolt — command-line front end to the contract generator, the Distiller,
// and the contract monitor.
//
//   bolt contract <nf> [--json] [--out F]  generate + print (or store) an
//                                    NF's contract artifact
//   bolt paths <nf>                  per-path report (no coalescing)
//   bolt distill <nf> <pcap>         run a PCAP through the NF, report PCVs
//   bolt predict <nf> k=v [k=v...]   evaluate the contract at a PCV binding
//   bolt monitor <nf> [...]          stream traffic through the NF and
//                                    validate every packet against the
//                                    contract (violations, headroom,
//                                    quantile sketches, worst offenders).
//                                    With --contract FILE.json the stored
//                                    artifact is validated instead — the
//                                    operator workflow, no symbex at all.
//                                    --follow tails a growing pcap as a
//                                    daemon; --fleet I/N + --spool DIR
//                                    run one instance of a fleet.
//   bolt merge <nf> --spool DIR      fold a fleet's spooled partials into
//                                    the fleet-wide delta stream + report
//                                    (byte-identical to a single monitor
//                                    over the combined traffic)
//   bolt hunt <nf> [...]             feedback-directed search for contract
//                                    violations past the synthesised edge;
//                                    a find is delta-debugged to a minimal
//                                    witness trace and fails the gate
//   bolt gen <kind> <out.pcap> [n]   write a workload PCAP
//                                    (kind: uniform | churn | zipf | bridge
//                                     | attack | heartbeat | longrun)
//   bolt scenarios                   run the Figure-1 scenario sweep
//
// <nf> is one of: bridge, nat, nat-b (allocator B), lb, lpm, lpm-simple,
// firewall, router, fw+router (the chain).
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
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

/// Parses a whole decimal argument; anything else ends the run with exit 2.
std::uint64_t numeric_arg(const char* text, const char* what) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "error: bad %s value '%s'\n", what, text);
    std::exit(2);
  }
  return v;
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

struct MonitorCliArgs {
  std::optional<std::string> workload;  // unset = target default
  std::string pcap;      // the traffic when set (excludes the two above)
  std::string contract;  // stored artifact; empty = regenerate in-process
  std::string report;    // also write the report JSON here
  std::optional<std::size_t> packets;   // unset = 100'000
  std::size_t partitions = 8;
  std::size_t threads = 0;
  std::uint64_t epoch_ns = 1'000'000'000;
  std::uint64_t violation_threshold = 0;
  std::uint64_t inflate_pct = 0;
  bool cycles = true;
  bool json = false;
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
};

/// SIGINT/SIGTERM drain flag for --follow (sig_atomic_t: all a handler may
/// touch). The loop finishes the current poll, then drains and reports.
volatile std::sig_atomic_t g_stop = 0;
void handle_stop(int) { g_stop = 1; }

bool write_metrics_file(const MonitorCliArgs& args,
                        const obs::MonitorTelemetry& tel,
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

/// The delta stream of 'monitor' (batch + streaming) and 'merge': one JSON
/// line per window, written whole and flushed — to stdout with --watch, to
/// the --delta-out file, or both — so a reader tailing either only ever
/// sees complete lines. Every file write is checked.
class DeltaStream {
 public:
  explicit DeltaStream(const MonitorCliArgs& args) : args_(args) {}
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

  const MonitorCliArgs& args_;
  std::FILE* file_ = nullptr;
  bool ok_ = true;  ///< every write to file_ so far succeeded
};

/// Writes a finished run's delta windows; false after printing the error.
bool write_delta_stream(const MonitorCliArgs& args,
                        const std::vector<obs::DeltaWindow>& windows) {
  DeltaStream out(args);
  if (!out.open()) return false;
  for (const obs::DeltaWindow& w : windows) out.write(w);
  return out.close();
}

/// Shared gate tail for 'monitor' (batch + streaming) and 'merge': exit 1
/// on unattributed packets or over-threshold violations, 3 on drift alerts
/// ("about to violate"), 0 clean.
int monitor_exit_code(const monitor::MonitorReport& report,
                      std::uint64_t violation_threshold, std::size_t alerts) {
  if (report.unattributed > 0) {
    std::fprintf(stderr,
                 "error: %llu packets not attributable to any contract "
                 "entry (first at %llu)\n",
                 static_cast<unsigned long long>(report.unattributed),
                 static_cast<unsigned long long>(
                     report.first_unattributed_packet));
    return 1;
  }
  if (report.violations > violation_threshold) {
    std::fprintf(stderr, "error: %llu violations (threshold %llu)\n",
                 static_cast<unsigned long long>(report.violations),
                 static_cast<unsigned long long>(violation_threshold));
    return 1;
  }
  if (alerts > 0) {
    std::fprintf(stderr,
                 "warning: %zu contract-drift alert(s) raised (no violation "
                 "yet; details in the delta stream)\n",
                 alerts);
    return 3;
  }
  return 0;
}

/// Streaming/fleet monitor path: one StreamMonitor fed chunk by chunk from
/// `next_chunk` (the generated trace, the windows of a finished --pcap, or
/// in --follow mode the windows of a growing one), emitting
/// delta lines, spool partials and metrics refreshes as windows close. The
/// final report goes through the same gates as the batch path.
int run_stream_monitor(const std::string& nf, const perf::Contract& contract,
                       const perf::PcvRegistry& reg,
                       monitor::MonitorOptions options,
                       const MonitorCliArgs& args,
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
  auto on_window = [&](const monitor::ClosedWindow& cw) {
    // Delta lines are authoritative-only (a provisional flush has no drift
    // pass and would duplicate the window).
    if (cw.has_delta && !cw.provisional) deltas.write(cw.delta);
    // Spool partials upsert by filename: a provisional emission is
    // overwritten by the authoritative close of the same window.
    if (!args.spool.empty() && cw.stats->packets > 0) {
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
      const std::string path =
          obs::spool_window_path(args.spool, nf, fleet.instance, cw.window);
      if (!support::write_file(path, obs::window_partial_to_json(wp) + "\n")) {
        std::fprintf(stderr, "error: cannot write spool partial '%s'\n",
                     path.c_str());
        spool_write_failed = true;
      }
    }
  };

  monitor::StreamMonitor sm(contract, reg, monitor::MonitorEngine::named_factory(nf),
                            options, fleet, on_window);

  auto refresh_metrics = [&]() {
    // Mid-run refreshes are best-effort; the final write is the gated one.
    // The snapshot drains the chunks in flight, so with --metrics-out the
    // daemon steps each chunk before it reads the next.
    if (options.telemetry && !args.metrics_out.empty()) {
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

  monitor::StreamResult result = sm.finish();
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
    const std::string path = obs::spool_final_path(args.spool, nf, fleet.instance);
    if (!support::write_file(path, obs::final_partial_to_json(fp) + "\n")) {
      std::fprintf(stderr, "error: cannot write spool partial '%s'\n",
                   path.c_str());
      spool_write_failed = true;
    }
  }
  if (!args.metrics_out.empty() &&
      !write_metrics_file(args, result.observations.telemetry,
                          result.report.nf)) {
    return 1;
  }
  if (!args.report.empty() &&
      !support::write_file(args.report,
                           monitor::report_to_json(result.report) + "\n")) {
    std::fprintf(stderr, "error: cannot write report to '%s'\n",
                 args.report.c_str());
    return 1;
  }
  if (args.json) {
    std::printf("%s\n", monitor::report_to_json(result.report).c_str());
  } else if (!args.watch) {
    std::printf("%s", result.report.str().c_str());
    const double pps = elapsed_ms > 0.0
                           ? static_cast<double>(fed) / (elapsed_ms / 1000.0)
                           : 0.0;
    std::printf("\nprocessed %llu packets in %.1f ms (%.2f Mpps)\n",
                static_cast<unsigned long long>(fed), elapsed_ms, pps / 1e6);
  }
  if (spool_write_failed) return 1;
  return monitor_exit_code(result.report, args.violation_threshold,
                           result.observations.alerts.size());
}

int cmd_monitor(const std::string& nf, const MonitorCliArgs& args) {
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
  perf::Contract contract("");

  if (!args.contract.empty()) {
    // Operator mode: validate against the stored artifact. No generation,
    // no symbolic execution — the target is only instantiated per
    // partition for concrete measurement. Sanity-check that the artifact
    // was generated for the target we're about to run.
    core::NfTarget probe;
    perf::PcvRegistry probe_reg;
    if (!core::make_named_target(nf, probe_reg, probe)) return usage();
    contract = perf::load_contract(args.contract, reg);
    if (contract.nf_name() != probe.contract_name()) {
      std::fprintf(stderr,
                   "error: contract '%s' was generated for nf '%s', not "
                   "'%s'\n",
                   args.contract.c_str(), contract.nf_name().c_str(),
                   probe.contract_name().c_str());
      return 2;
    }
  } else {
    // Developer mode: regenerate the artifact in-process.
    core::NfTarget target;
    if (!core::make_named_target(nf, reg, target)) return usage();
    core::ContractGenerator generator(reg);
    contract = generator.generate(target.analysis()).contract;
  }

  if (args.follow && args.pcap.empty()) {
    std::fprintf(stderr, "error: --follow requires --pcap FILE to tail\n");
    return 2;
  }

  // Traffic side: one chunk source for every path. A --pcap is read
  // through PcapTail's read windows, so memory does not grow with the
  // capture; a finished file is checked for a clean end (finish()), while
  // --follow keeps polling a growing one (it may not even exist yet), so
  // nothing is read here. A generated workload is one chunk.
  // Daemon / fleet runs go through the streaming monitor: it closes windows
  // on packet timestamps and emits delta lines / spool partials as it goes,
  // then drains through the same build_report path as the batch engine
  // (byte-identical final report). Both run the one chunk driver, which
  // keeps kChunksInFlight read windows in use.
  const bool streaming =
      args.follow || !args.spool.empty() || args.fleet_instances > 1;
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
  if (streaming) {
    return run_stream_monitor(nf, contract, reg, options, args, next_chunk);
  }

  monitor::MonitorEngine engine(contract, reg, options);

  obs::RunObservations observations;
  const bool want_obs = options.delta_every > 0 || options.telemetry;
  support::BenchTimer timer;
  const monitor::MonitorReport report =
      engine.run(next_chunk, monitor::MonitorEngine::named_factory(nf),
                 nullptr, want_obs ? &observations : nullptr);
  const double elapsed_ms = timer.elapsed_ms();

  if (!write_delta_stream(args, observations.deltas)) return 1;
  if (!args.metrics_out.empty() &&
      !write_metrics_file(args, observations.telemetry, report.nf)) {
    return 1;
  }

  // Never leave a truncated report behind for CI to archive as valid
  // (support::write_file publishes by rename, so a failed or short write
  // never replaces the target).
  if (!args.report.empty() &&
      !support::write_file(args.report,
                           monitor::report_to_json(report) + "\n")) {
    std::fprintf(stderr, "error: cannot write report to '%s'\n",
                 args.report.c_str());
    return 1;
  }
  if (args.json) {
    std::printf("%s\n", monitor::report_to_json(report).c_str());
  } else if (!args.watch) {
    // Watch mode keeps stdout a pure JSONL stream (the deltas above);
    // --json appends the report as one more JSON line.
    std::printf("%s", report.str().c_str());
    const double pps = elapsed_ms > 0.0
                           ? static_cast<double>(report.packets) /
                                 (elapsed_ms / 1000.0)
                           : 0.0;
    std::printf("\nprocessed %llu packets in %.1f ms (%.2f Mpps)\n",
                static_cast<unsigned long long>(report.packets), elapsed_ms,
                pps / 1e6);
  }
  // Drift alerts get their own exit code so CI can distinguish "about to
  // violate" (3) from "violating" (1) and "clean" (0).
  return monitor_exit_code(report, args.violation_threshold,
                           observations.alerts.size());
}

/// 'bolt merge <nf> --spool DIR': fold a fleet's spooled partials into the
/// fleet-wide delta stream and final report. Same output surfaces and exit
/// codes as 'monitor'; the result is byte-identical to a single monitor
/// over the combined traffic, regardless of how many instances spooled or
/// in what order their files land.
int cmd_merge(const std::string& nf, const MonitorCliArgs& args) {
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

  if (!write_delta_stream(args, merged.observations.deltas)) return 1;
  if (!args.metrics_out.empty() &&
      !write_metrics_file(args, merged.observations.telemetry,
                          merged.report.nf)) {
    return 1;
  }
  if (!args.report.empty() &&
      !support::write_file(args.report,
                           monitor::report_to_json(merged.report) + "\n")) {
    std::fprintf(stderr, "error: cannot write report to '%s'\n",
                 args.report.c_str());
    return 1;
  }
  if (args.json) {
    std::printf("%s\n", monitor::report_to_json(merged.report).c_str());
  } else if (!args.watch) {
    std::printf("%s", merged.report.str().c_str());
  }
  std::fprintf(stderr, "merged %zu window partial(s) from %zu file(s) across "
               "the fleet\n",
               merged.observations.deltas.size(), windows.size() + finals.size());
  return monitor_exit_code(merged.report, args.violation_threshold,
                           merged.observations.alerts.size());
}

struct AdversaryCliArgs {
  std::string contract;   // stored artifact; empty = generate in-process
  std::string out;        // trace pair prefix
  std::string report;     // gap-report JSON file
  std::uint64_t seed = 1;
  std::size_t probes = 12;
  std::size_t partitions = 8;
  std::size_t threads = 0;
  std::uint64_t epoch_ns = 1'000'000'000;
  std::uint64_t min_reached_pct = 1;
  bool json = false;
};

int cmd_adversary(const std::string& nf, const AdversaryCliArgs& args) {
  perf::PcvRegistry reg;
  perf::Contract contract("");
  core::NfTarget probe;
  {
    perf::PcvRegistry probe_reg;
    if (!core::make_named_target(nf, probe_reg, probe)) return usage();
  }
  // In-process mode runs the generator once; its path reports double as
  // the synthesiser's witnesses. Stored mode leaves witness generation to
  // adversarial_traffic (bounds come from the artifact, witnesses can't).
  core::GenerationResult generated;
  const std::vector<core::PathReport>* witnesses = nullptr;
  if (!args.contract.empty()) {
    contract = perf::load_contract(args.contract, reg);
    if (contract.nf_name() != probe.contract_name()) {
      std::fprintf(stderr,
                   "error: contract '%s' was generated for nf '%s', not "
                   "'%s'\n",
                   args.contract.c_str(), contract.nf_name().c_str(),
                   probe.contract_name().c_str());
      return 2;
    }
  } else {
    core::NfTarget target;
    if (!core::make_named_target(nf, reg, target)) return usage();
    core::ContractGenerator generator(reg);
    generated = generator.generate(target.analysis());
    contract = generated.contract;
    witnesses = &generated.path_reports;
  }

  adversary::AdversaryOptions opts;
  opts.seed = args.seed;
  opts.partitions = args.partitions;
  opts.epoch_ns = args.epoch_ns;
  opts.probes_per_class = args.probes;
  const adversary::AdversarialTrace trace =
      adversary::adversarial_traffic(nf, contract, reg, opts, witnesses);
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
      adversary::replay(trace, contract, reg, mopts);

  if (!args.report.empty() &&
      !support::write_file(args.report,
                           adversary::gap_report_to_json(gap) + "\n")) {
    std::fprintf(stderr, "error: cannot write report to '%s'\n",
                 args.report.c_str());
    return 1;
  }
  if (args.json) {
    std::printf("%s\n", adversary::gap_report_to_json(gap).c_str());
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

struct HuntCliArgs {
  std::string contract;   // stored artifact; empty = generate in-process
  std::string out;        // minimised-trace pair prefix (written on a find)
  std::string report;     // hunt-report JSON file
  std::uint64_t seed = 1;
  std::size_t generations = 6;
  std::size_t population = 4;
  std::size_t budget = 0;       // 0 = generations * population + 1
  std::size_t max_replays = 0;  // minimiser replay cap (0 = uncapped)
  std::size_t probes = 12;
  std::size_t partitions = 8;
  std::size_t threads = 0;
  std::uint64_t epoch_ns = 1'000'000'000;
  bool inject_straddle_bug = false;  // test-only measurement fault
  bool json = false;
};

std::string hunt_to_json(const std::string& nf, const HuntCliArgs& args,
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

int cmd_hunt(const std::string& nf, const HuntCliArgs& args) {
  perf::PcvRegistry reg;
  perf::Contract contract("");
  core::NfTarget probe;
  {
    perf::PcvRegistry probe_reg;
    if (!core::make_named_target(nf, probe_reg, probe)) return usage();
  }
  // Same contract conventions as 'adversary': stored artifact or in-process
  // generation, whose path reports double as seed-trace witnesses.
  core::GenerationResult generated;
  const std::vector<core::PathReport>* witnesses = nullptr;
  if (!args.contract.empty()) {
    contract = perf::load_contract(args.contract, reg);
    if (contract.nf_name() != probe.contract_name()) {
      std::fprintf(stderr,
                   "error: contract '%s' was generated for nf '%s', not "
                   "'%s'\n",
                   args.contract.c_str(), contract.nf_name().c_str(),
                   probe.contract_name().c_str());
      return 2;
    }
  } else {
    core::NfTarget target;
    if (!core::make_named_target(nf, reg, target)) return usage();
    core::ContractGenerator generator(reg);
    generated = generator.generate(target.analysis());
    contract = generated.contract;
    witnesses = &generated.path_reports;
  }

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

  const adversary::HunterResult hunt =
      adversary::hunt(nf, contract, reg, opts, witnesses);
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
        adversary::minimize(nf, contract, reg, hunt.best.packets, mopts);
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
  if (!args.report.empty() &&
      !support::write_file(args.report, hunt_json + "\n")) {
    std::fprintf(stderr, "error: cannot write report to '%s'\n",
                 args.report.c_str());
    return 1;
  }
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
  // The same traffic `monitor --workload KIND --packets COUNT` runs on.
  const std::vector<net::Packet> packets =
      core::monitor_workload("", kind, count);
  if (packets.empty()) {
    std::fprintf(stderr, "error: no packets for workload '%s' x %zu\n",
                 kind.c_str(), count);
    return usage();
  }
  net::write_pcap(out, packets);
  std::printf("wrote %zu packets to %s\n", packets.size(), out.c_str());
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
  // Shared trailing flags: --json, --threads N (0 = hardware concurrency),
  // plus the monitor's own knobs.
  bool json = false;
  MonitorCliArgs margs;
  std::string out_file;
  std::size_t threads = 0;
  auto numeric = [&](int& i, const char* flag) -> std::uint64_t {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s requires a value\n", flag);
      std::exit(2);
    }
    return numeric_arg(argv[++i], flag);
  };
  AdversaryCliArgs aargs;
  HuntCliArgs hargs;
  // Positionals (nf names, paths, counts, k=v bindings) pass through; a
  // flag that is unknown — or known but inapplicable to this subcommand —
  // must not be silently ignored: the monitor exit code is a CI gate, and
  // a typo'd or misplaced flag would change what it gates on.
  const bool is_monitor = cmd == "monitor";
  const bool is_merge = cmd == "merge";
  const bool is_adversary = cmd == "adversary";
  const bool is_hunt = cmd == "hunt";
  auto only_for = [&](bool applies, const char* flag) {
    if (applies) return;
    std::fprintf(stderr, "error: flag '%s' does not apply to '%s'\n", flag,
                 cmd.c_str());
    std::exit(2);
  };
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      only_for(cmd == "contract" || cmd == "paths" || is_monitor ||
                   is_merge || is_adversary || is_hunt,
               "--json");
      json = true;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      only_for(cmd == "scenarios" || is_monitor || is_adversary || is_hunt,
               "--threads");
      threads = numeric(i, "--threads");
    } else if (std::strcmp(argv[i], "--packets") == 0) {
      only_for(is_monitor, "--packets");
      margs.packets = numeric(i, "--packets");
    } else if (std::strcmp(argv[i], "--partitions") == 0) {
      only_for(is_monitor || is_adversary || is_hunt, "--partitions");
      margs.partitions = aargs.partitions = hargs.partitions =
          numeric(i, "--partitions");
    } else if (std::strcmp(argv[i], "--epoch-ns") == 0) {
      only_for(is_monitor || is_adversary || is_hunt, "--epoch-ns");
      margs.epoch_ns = aargs.epoch_ns = hargs.epoch_ns =
          numeric(i, "--epoch-ns");
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      only_for(is_adversary || is_hunt, "--seed");
      aargs.seed = hargs.seed = numeric(i, "--seed");
    } else if (std::strcmp(argv[i], "--probes") == 0) {
      only_for(is_adversary || is_hunt, "--probes");
      aargs.probes = hargs.probes = numeric(i, "--probes");
    } else if (std::strcmp(argv[i], "--min-reached-pct") == 0) {
      only_for(is_adversary, "--min-reached-pct");
      aargs.min_reached_pct = numeric(i, "--min-reached-pct");
    } else if (std::strcmp(argv[i], "--generations") == 0) {
      only_for(is_hunt, "--generations");
      hargs.generations = numeric(i, "--generations");
    } else if (std::strcmp(argv[i], "--population") == 0) {
      only_for(is_hunt, "--population");
      hargs.population = numeric(i, "--population");
    } else if (std::strcmp(argv[i], "--budget") == 0) {
      only_for(is_hunt, "--budget");
      hargs.budget = numeric(i, "--budget");
    } else if (std::strcmp(argv[i], "--max-replays") == 0) {
      only_for(is_hunt, "--max-replays");
      hargs.max_replays = numeric(i, "--max-replays");
    } else if (std::strcmp(argv[i], "--inject-straddle-bug") == 0) {
      only_for(is_hunt, "--inject-straddle-bug");
      hargs.inject_straddle_bug = true;
    } else if (std::strcmp(argv[i], "--contract") == 0) {
      only_for(is_monitor || is_adversary || is_hunt, "--contract");
      if (i + 1 >= argc) return usage();
      margs.contract = aargs.contract = hargs.contract = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0) {
      only_for(is_monitor || is_merge || is_adversary || is_hunt, "--report");
      if (i + 1 >= argc) return usage();
      margs.report = aargs.report = hargs.report = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0) {
      only_for(cmd == "contract" || is_adversary || is_hunt, "--out");
      if (i + 1 >= argc) return usage();
      out_file = aargs.out = hargs.out = argv[++i];
    } else if (std::strcmp(argv[i], "--violation-threshold") == 0) {
      only_for(is_monitor || is_merge, "--violation-threshold");
      margs.violation_threshold = numeric(i, "--violation-threshold");
    } else if (std::strcmp(argv[i], "--inflate") == 0) {
      only_for(is_monitor, "--inflate");
      margs.inflate_pct = numeric(i, "--inflate");
    } else if (std::strcmp(argv[i], "--no-cycles") == 0) {
      only_for(is_monitor, "--no-cycles");
      margs.cycles = false;
    } else if (std::strcmp(argv[i], "--delta-every") == 0) {
      only_for(is_monitor, "--delta-every");
      margs.delta_every = numeric(i, "--delta-every");
    } else if (std::strcmp(argv[i], "--delta-out") == 0) {
      only_for(is_monitor || is_merge, "--delta-out");
      if (i + 1 >= argc) return usage();
      margs.delta_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
      only_for(is_monitor || is_merge, "--metrics-out");
      if (i + 1 >= argc) return usage();
      margs.metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-format") == 0) {
      only_for(is_monitor || is_merge, "--metrics-format");
      if (i + 1 >= argc) return usage();
      const std::string fmt = argv[++i];
      if (fmt != "json" && fmt != "prom") {
        std::fprintf(stderr,
                     "error: bad --metrics-format value '%s' (json | prom)\n",
                     fmt.c_str());
        return 2;
      }
      margs.metrics_format = fmt;
    } else if (std::strcmp(argv[i], "--watch") == 0) {
      only_for(is_monitor || is_merge, "--watch");
      margs.watch = true;
    } else if (std::strcmp(argv[i], "--follow") == 0) {
      only_for(is_monitor, "--follow");
      margs.follow = true;
    } else if (std::strcmp(argv[i], "--spool") == 0) {
      only_for(is_monitor || is_merge, "--spool");
      if (i + 1 >= argc) return usage();
      margs.spool = argv[++i];
    } else if (std::strcmp(argv[i], "--idle-flush-ns") == 0) {
      only_for(is_monitor, "--idle-flush-ns");
      margs.idle_flush_ns = numeric(i, "--idle-flush-ns");
    } else if (std::strcmp(argv[i], "--idle-exit-ms") == 0) {
      only_for(is_monitor, "--idle-exit-ms");
      margs.idle_exit_ms = numeric(i, "--idle-exit-ms");
    } else if (std::strcmp(argv[i], "--fleet") == 0) {
      only_for(is_monitor, "--fleet");
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --fleet requires a value\n");
        return 2;
      }
      const std::string spec = argv[++i];
      const auto slash = spec.find('/');
      bool ok = slash != std::string::npos && slash > 0 &&
                slash + 1 < spec.size();
      if (ok) {
        char* end = nullptr;
        margs.fleet_instance = static_cast<std::uint32_t>(
            std::strtoul(spec.c_str(), &end, 10));
        ok = end == spec.c_str() + slash;
        if (ok) {
          margs.fleet_instances = static_cast<std::uint32_t>(
              std::strtoul(spec.c_str() + slash + 1, &end, 10));
          ok = *end == '\0';
        }
      }
      if (!ok || margs.fleet_instances == 0 ||
          margs.fleet_instance >= margs.fleet_instances) {
        std::fprintf(stderr,
                     "error: bad --fleet value '%s' (want I/N with I < N)\n",
                     spec.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--workload") == 0) {
      only_for(is_monitor, "--workload");
      if (i + 1 >= argc) return usage();
      margs.workload = argv[++i];
    } else if (std::strcmp(argv[i], "--pcap") == 0) {
      only_for(is_monitor, "--pcap");
      if (i + 1 >= argc) return usage();
      margs.pcap = argv[++i];
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return usage();
    }
  }
  margs.threads = threads;
  margs.json = json;
  aargs.threads = threads;
  aargs.json = json;
  hargs.threads = threads;
  hargs.json = json;
  if (cmd == "contract" && argc >= 3) {
    return cmd_contract(argv[2], false, json, out_file);
  }
  if (cmd == "paths" && argc >= 3) {
    return cmd_contract(argv[2], true, json, "");
  }
  if (cmd == "distill" && argc >= 4) return cmd_distill(argv[2], argv[3]);
  if (cmd == "predict" && argc >= 3) return cmd_predict(argv[2], argc, argv, 3);
  if (cmd == "monitor" && argc >= 3) return cmd_monitor(argv[2], margs);
  if (cmd == "merge" && argc >= 3) return cmd_merge(argv[2], margs);
  if (cmd == "adversary" && argc >= 3) return cmd_adversary(argv[2], aargs);
  if (cmd == "hunt" && argc >= 3) return cmd_hunt(argv[2], hargs);
  if (cmd == "gen" && argc >= 4) {
    // The count is positional; don't mistake a trailing flag for it.
    std::size_t count = 10'000;
    if (argc >= 5 && argv[4][0] != '-') {
      count = numeric_arg(argv[4], "count");
    }
    return cmd_gen(argv[2], argv[3], count);
  }
  if (cmd == "scenarios") return cmd_scenarios(threads);
  return usage();
}
