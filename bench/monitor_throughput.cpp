// Monitor throughput + compiled-expression speedup.
//
// Six measurements, all archived in BENCH_monitor_throughput.json when
// BOLT_BENCH_JSON is set (tools/bench_runner.sh / CI):
//
//  1. End-to-end monitor packets/sec on the NAT under heavy-tailed
//     traffic, over a 1/2/4/8-thread sweep and with one thread per core.
//
//  2. Expression-evaluation only: every contract entry's three bounds
//     evaluated over a large batch of PCV rows, tree-walk vs compiled VM
//     (`expr_vm_speedup` is the headline number — the VM exists because
//     the tree walk would otherwise dominate the monitor's hot loop).
//
//  3. Operator mode: stored-contract load latency (serialise + reload
//     through contract_io — the zero-symbex path an operator's deploy
//     takes) and a compressed simulated week of long-run traffic with the
//     epoch clock on — packets/sec, flow-state high-water mark, and the
//     p99 headroom sketch quantile, all archived per commit.
//
// Any unexpected violation or unattributed packet in a monitored run makes
// the binary exit 1: the throughput of a monitor that mis-measures is
// meaningless.
//
//  4. Telemetry overhead: monitor_pps_1thread with the obs layer's
//     hot-path counters on vs off, measured as the median of interleaved
//     off/on pairs. Archived as monitor_telemetry_overhead_pct and
//     hard-gated at 5% in-binary.
//
//  5. Engine speedup: the same single-threaded monitor run on the
//     reference interpreter vs the pre-decoded direct-threaded engine
//     (`interp_decoded_speedup`, gated — the fast path must stay fast).
//
//  6. Cycle-meter share: the same single-threaded decoded run with the
//     cycles metric off (`monitor_pps_1thread_nocycles`) and the share of
//     the metered run it accounts for (`monitor_cycle_meter_share_pct`).
//     Both informational.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/bolt.h"
#include "core/targets.h"
#include "monitor/monitor.h"
#include "net/workload.h"
#include "perf/contract_io.h"
#include "perf/expr_vm.h"
#include "support/bench.h"
#include "support/random.h"

using namespace bolt;

namespace {

// Every timing below is a best-of-N (minimum elapsed over N identical
// repetitions). The *work* is deterministic either way; min-of-reps is the
// standard estimator that strips scheduler jitter and host noise, which on
// small shared VMs routinely exceeds the 25% regression-gate tolerance for
// one-shot timings.
constexpr int kReps = 3;

template <typename F>
double best_seconds(int reps, F&& body) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    support::BenchTimer timer;
    body();
    best = std::min(best, timer.elapsed_ms() / 1000.0);
  }
  return best;
}

double monitor_pps(const perf::Contract& contract,
                   const perf::PcvRegistry& reg,
                   const std::vector<net::Packet>& packets,
                   std::size_t threads, std::size_t shards = 0,
                   monitor::ShardGrouping grouping =
                       monitor::ShardGrouping::kRoundRobin,
                   bool telemetry = false, int reps = kReps,
                   ir::EngineKind engine = ir::EngineKind::kDecoded,
                   bool check_cycles = true) {
  double best_pps = 0;
  for (int rep = 0; rep < reps; ++rep) {
    monitor::MonitorOptions opts;
    opts.threads = threads;
    opts.shards = shards;
    opts.grouping = grouping;
    opts.telemetry = telemetry;
    opts.engine = engine;
    opts.check_cycles = check_cycles;
    const monitor::MonitorEngine monitor_engine(contract, reg, opts);
    obs::RunObservations observations;
    support::BenchTimer timer;
    const monitor::MonitorReport report = monitor_engine.run(
        packets, monitor::MonitorEngine::named_factory("nat"), nullptr,
        telemetry ? &observations : nullptr);
    const double seconds = timer.elapsed_ms() / 1000.0;
    if (report.violations != 0 || report.unattributed != 0) {
      std::fprintf(stderr, "bench: unexpected violations/unattributed!\n");
      std::exit(1);
    }
    best_pps = std::max(best_pps,
                        static_cast<double>(packets.size()) / seconds);
  }
  return best_pps;
}

}  // namespace

int main() {
  support::BenchReport bench("monitor_throughput");

  perf::PcvRegistry reg;
  core::NfTarget target;
  core::make_named_target("nat", reg, target);
  core::ContractGenerator gen(reg);
  const core::GenerationResult result = gen.generate(target.analysis());

  net::ZipfSpec spec;
  spec.flow_pool = 2048;
  spec.skew = 1.1;
  spec.packet_count = 200'000;
  const std::vector<net::Packet> packets = net::zipf_traffic(spec);

  // --- end-to-end monitor throughput + thread-scaling sweep --------------
  // Fixed 1/2/4/8-thread sweep of the monitor (docs/PERFORMANCE.md
  // explains how to read the curve; it saturates at the machine's core
  // count — `num_cpus` is archived alongside for exactly that reason).
  const std::size_t sweep[] = {1, 2, 4, 8};
  double pps_at[9] = {};
  // Thread counts above the core count measure the scheduler, not the
  // code: those sweep points are archived but marked informational so the
  // regression gate only arms on genuinely comparable measurements.
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::printf("monitor (NAT, %zu packets, 8 partitions):\n", packets.size());
  for (const std::size_t t : sweep) {
    pps_at[t] = monitor_pps(result.contract, reg, packets, t);
    std::printf("  %zu thread%s compiled exprs: %10.0f pps  (%.2fx)\n", t,
                t == 1 ? ",  " : "s, ", pps_at[t], pps_at[t] / pps_at[1]);
    bench.metric("monitor_pps_" + std::to_string(t) + "thread", pps_at[t],
                 "packets/s", /*gate=*/t <= cores);
    if (t > 1) {
      bench.metric("monitor_scaling_" + std::to_string(t) + "thread",
                   pps_at[t] / pps_at[1], "x", /*gate=*/false);
    }
  }
  const double pps_1t = pps_at[1];
  const double pps_nt = monitor_pps(result.contract, reg, packets, 0);
  std::printf("  N threads, compiled exprs: %10.0f pps\n", pps_nt);
  bench.metric("monitor_pps_all_threads", pps_nt, "packets/s");
  bench.metric("monitor_thread_scaling", pps_nt / pps_1t, "x");

  // --- decoded-engine speedup over the reference interpreter -------------
  // Same monitor, same traffic, reference (undecoded per-instruction
  // switch) engine instead of the pre-decoded direct-threaded one. The
  // ratio is the execution fast path's headline number and is gated: the
  // decoded engine must stay decisively faster, not just not-slower.
  const double pps_1t_ref =
      monitor_pps(result.contract, reg, packets, 1, 0,
                  monitor::ShardGrouping::kRoundRobin, /*telemetry=*/false,
                  kReps, ir::EngineKind::kReference);
  std::printf("  1 thread,  reference engine:%9.0f pps  (decoded %.2fx)\n",
              pps_1t_ref, pps_1t / pps_1t_ref);
  bench.metric("monitor_pps_1thread_reference", pps_1t_ref, "packets/s",
               /*gate=*/false);
  bench.metric("interp_decoded_speedup", pps_1t / pps_1t_ref, "x");

  // --- cycle-meter share -------------------------------------------------
  // The same decoded single-threaded run without the cycles metric: what
  // the conservative meter (a cold must-hit L1 replay per packet) costs end
  // to end. Informational — the boltbench trace's hw.cycle_meter_ns is the
  // per-layer view of the same cost.
  const double pps_1t_nocycles =
      monitor_pps(result.contract, reg, packets, 1, 0,
                  monitor::ShardGrouping::kRoundRobin, /*telemetry=*/false,
                  kReps, ir::EngineKind::kDecoded, /*check_cycles=*/false);
  const double meter_share_pct = (1.0 - pps_1t / pps_1t_nocycles) * 100.0;
  std::printf("  1 thread,  no cycle meter: %10.0f pps  (meter %.1f%% of "
              "the metered run)\n",
              pps_1t_nocycles, meter_share_pct);
  bench.metric("monitor_pps_1thread_nocycles", pps_1t_nocycles, "packets/s",
               /*gate=*/false);
  bench.metric("monitor_cycle_meter_share_pct", meter_share_pct, "%",
               /*gate=*/false);

  // --- telemetry overhead ------------------------------------------------
  // The obs layer's hot-path counters must be execution-only in cost as
  // well as in effect: the ISSUE gate is <= 5% off monitor_pps_1thread.
  //
  // Measured as the median of N *interleaved* off/on pairs (one run each,
  // alternating). The old estimator — best-of-3 off, then best-of-3 on —
  // put seconds of host drift squarely inside the difference and routinely
  // reported overheads of +-30% on shared VMs. Pairing adjacent runs
  // cancels slow drift; the median across pairs discards the occasional
  // descheduled outlier in either direction.
  constexpr int kTelemetryPairs = 7;
  double deltas[kTelemetryPairs];
  double pps_tel_on = 0;
  for (int i = 0; i < kTelemetryPairs; ++i) {
    const double off =
        monitor_pps(result.contract, reg, packets, 1, 0,
                    monitor::ShardGrouping::kRoundRobin, false, /*reps=*/1);
    const double on =
        monitor_pps(result.contract, reg, packets, 1, 0,
                    monitor::ShardGrouping::kRoundRobin, /*telemetry=*/true,
                    /*reps=*/1);
    pps_tel_on = std::max(pps_tel_on, on);
    deltas[i] = (off - on) / off * 100.0;
  }
  std::sort(deltas, deltas + kTelemetryPairs);
  const double telemetry_overhead = deltas[kTelemetryPairs / 2];
  std::printf("  1 thread,  telemetry on:   %10.0f pps  (%.2f%% overhead, "
              "median of %d interleaved pairs)\n",
              pps_tel_on, telemetry_overhead, kTelemetryPairs);
  // Informational in the baseline diff (it jitters around zero); the hard
  // <= 5% gate is enforced right here instead.
  bench.metric("monitor_telemetry_overhead_pct", telemetry_overhead, "%",
               /*gate=*/false);
  if (telemetry_overhead > 5.0) {
    std::fprintf(stderr,
                 "bench: telemetry overhead %.2f%% exceeds the 5%% budget\n",
                 telemetry_overhead);
    return 1;
  }

  // --- shard grouping under skewed traffic -------------------------------
  // Heavily skewed flow popularity concentrates packets on few partitions;
  // with fewer shards than partitions, round-robin grouping can lump the
  // hot partitions onto one queue while longest-queue-first (LPT) spreads
  // them. Reports are byte-identical either way (tests enforce it); only
  // the wall-clock may differ.
  net::ZipfSpec skewed_spec;
  skewed_spec.flow_pool = 64;
  skewed_spec.skew = 2.2;
  skewed_spec.packet_count = 200'000;
  const std::vector<net::Packet> skewed = net::zipf_traffic(skewed_spec);
  const double pps_skew_rr =
      monitor_pps(result.contract, reg, skewed, 4, 4,
                  monitor::ShardGrouping::kRoundRobin);
  const double pps_skew_lqf =
      monitor_pps(result.contract, reg, skewed, 4, 4,
                  monitor::ShardGrouping::kLongestQueueFirst);
  std::printf("\nskewed traffic (zipf 2.2, 8 partitions on 4 shards):\n");
  std::printf("  round-robin grouping:       %10.0f pps\n", pps_skew_rr);
  std::printf("  longest-queue-first (LPT):  %10.0f pps\n", pps_skew_lqf);
  bench.metric("monitor_pps_skewed_roundrobin", pps_skew_rr, "packets/s",
               /*gate=*/cores >= 4);
  bench.metric("monitor_pps_skewed_lqf", pps_skew_lqf, "packets/s",
               /*gate=*/cores >= 4);
  // Wall-clock LQF/RR ratio is informational only: on machines where the
  // four shard workers time-slice (or where per-queue setup dominates the
  // imbalance), the ratio of two noisy wall-clocks jitters around 1.0 and
  // once gated a 0.967 "regression" that was pure scheduler noise. The
  // gated number is the deterministic makespan model below.
  bench.metric("monitor_grouping_speedup", pps_skew_lqf / pps_skew_rr, "x",
               /*gate=*/false);

  // Deterministic grouping quality: the same per-partition packet counts
  // and the same placement policies the engine uses, evaluated on the load
  // model (packets on the fullest queue — the lower bound on any queue-
  // parallel schedule) instead of wall-clock. Pure arithmetic on the
  // workload, so it is identical on every host and safely gateable; LPT is
  // never worse than round-robin on this model, so the ratio is >= 1 by
  // construction and any drop means the placement policy itself regressed.
  {
    constexpr std::size_t kParts = 8, kShards = 4;
    std::vector<std::size_t> load(kParts, 0);
    for (const net::Packet& p : skewed) {
      ++load[monitor::partition_of(p, kParts)];
    }
    std::size_t rr[kShards] = {}, lpt[kShards] = {};
    for (std::size_t p = 0; p < kParts; ++p) rr[p % kShards] += load[p];
    std::vector<std::size_t> order(kParts);
    for (std::size_t p = 0; p < kParts; ++p) order[p] = p;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                     std::size_t b) {
      return load[a] > load[b];
    });
    for (const std::size_t p : order) {
      std::size_t lightest = 0;
      for (std::size_t s = 1; s < kShards; ++s) {
        if (lpt[s] < lpt[lightest]) lightest = s;
      }
      lpt[lightest] += load[p];
    }
    const double rr_makespan =
        static_cast<double>(*std::max_element(rr, rr + kShards));
    const double lpt_makespan =
        static_cast<double>(*std::max_element(lpt, lpt + kShards));
    std::printf("  modeled makespan rr/lpt:    %10.3fx  (%0.f vs %0.f pkts "
                "on the fullest shard)\n",
                rr_makespan / lpt_makespan, rr_makespan, lpt_makespan);
    bench.metric("monitor_grouping_makespan_ratio",
                 rr_makespan / lpt_makespan, "x");
  }

  // --- expression evaluation only ----------------------------------------
  // Evaluate every contract bound over a matrix of random PCV rows; this
  // isolates what the VM replaces.
  const std::size_t stride = std::max<std::size_t>(reg.size(), 1);
  const std::size_t rows = 200'000;
  std::vector<std::uint64_t> slots(rows * stride);
  support::Rng rng(42);
  for (auto& v : slots) v = rng.below(64);

  std::vector<perf::CompiledExpr> vms;
  std::vector<const perf::PerfExpr*> exprs;
  for (const auto& entry : result.contract.entries()) {
    for (const perf::Metric m : perf::kAllMetrics) {
      exprs.push_back(&entry.perf.get(m));
      vms.push_back(perf::CompiledExpr::compile(entry.perf.get(m)));
    }
  }

  std::vector<std::int64_t> out(rows);
  std::int64_t sink = 0;

  // The VM pass is ~50x faster than the tree walk, so a single sweep is
  // far too short to time stably; loop it inside the timed body and
  // divide back out.
  constexpr int kVmInnerLoops = 8;
  const double vm_s = best_seconds(3, [&] {
    for (int loop = 0; loop < kVmInnerLoops; ++loop) {
      for (std::size_t e = 0; e < vms.size(); ++e) {
        vms[e].eval_batch(slots.data(), stride, rows, out.data());
        sink += out[rows - 1];
      }
    }
  }) / kVmInnerLoops;

  const double tw_s = best_seconds(kReps, [&] {
    for (std::size_t e = 0; e < exprs.size(); ++e) {
      for (std::size_t r = 0; r < rows; ++r) {
        perf::PcvBinding bind;
        const std::uint64_t* row = slots.data() + r * stride;
        for (std::size_t s = 0; s < stride; ++s) {
          if (row[s] != 0) bind.set(static_cast<perf::PcvId>(s), row[s]);
        }
        out[r] = exprs[e]->eval(bind);
      }
      sink += out[rows - 1];
    }
  });

  const double evals =
      static_cast<double>(vms.size()) * static_cast<double>(rows);
  std::printf("\nexpression evaluation (%zu exprs x %zu rows):\n", vms.size(),
              rows);
  std::printf("  compiled VM (batch): %8.1f Meval/s\n", evals / vm_s / 1e6);
  std::printf("  tree walk:           %8.1f Meval/s\n", evals / tw_s / 1e6);
  std::printf("  speedup:             %8.1fx   (sink %lld)\n", tw_s / vm_s,
              static_cast<long long>(sink));
  bench.metric("expr_vm_meval_per_s", evals / vm_s / 1e6, "Meval/s");
  bench.metric("expr_treewalk_meval_per_s", evals / tw_s / 1e6, "Meval/s");
  bench.metric("expr_vm_speedup", tw_s / vm_s, "x");

  // --- operator mode: stored-contract load + long-run monitoring ---------
  const std::string artifact = perf::contract_to_json(result.contract, reg);
  perf::PcvRegistry op_reg;
  perf::Contract stored = perf::contract_from_json(artifact, op_reg);
  const double load_ms = 1000.0 * best_seconds(5, [&] {
    const std::string bytes = perf::contract_to_json(result.contract, reg);
    perf::PcvRegistry r2;
    const perf::Contract c2 = perf::contract_from_json(bytes, r2);
    sink += static_cast<std::int64_t>(bytes.size() + c2.entries().size());
  });
  std::printf("\nstored contract: %zu bytes, serialise+reload %.2f ms\n",
              artifact.size(), load_ms);
  bench.metric("contract_roundtrip_ms", load_ms, "ms");

  net::LongRunSpec week;
  week.flow_pool = 1024;
  week.packet_count = 100'000;
  const std::vector<net::Packet> week_packets = net::long_run_traffic(week);
  monitor::MonitorOptions lr_opts;
  lr_opts.threads = 0;
  monitor::MonitorEngine lr_engine(stored, op_reg, lr_opts);
  monitor::MonitorReport lr_report;
  const double lr_s = best_seconds(kReps, [&] {
    lr_report = lr_engine.run(
        week_packets, monitor::MonitorEngine::named_factory("nat"));
  });
  std::uint64_t p99 = 0;
  for (const auto& cls : lr_report.classes) {
    for (const auto& mr : cls.metrics) {
      p99 = std::max(p99, mr.headroom_pm.p99);
    }
  }
  std::printf("long-run monitor (simulated week, %zu packets): %10.0f pps, "
              "high-water %llu entries/partition, %llu idle-expired, "
              "p99 headroom %llu pm\n",
              week_packets.size(),
              static_cast<double>(week_packets.size()) / lr_s,
              static_cast<unsigned long long>(lr_report.state_high_water),
              static_cast<unsigned long long>(lr_report.state_expired_idle),
              static_cast<unsigned long long>(p99));
  if (lr_report.violations != 0 || lr_report.unattributed != 0) {
    std::fprintf(stderr, "bench: long-run violations/unattributed!\n");
    return 1;
  }
  bench.metric("monitor_longrun_pps",
               static_cast<double>(week_packets.size()) / lr_s, "packets/s");
  bench.metric("monitor_longrun_high_water",
               static_cast<double>(lr_report.state_high_water), "entries");
  bench.metric("monitor_longrun_p99_headroom_pm", static_cast<double>(p99),
               "pm");
  return 0;
}
