// Reproduces Table 5 and Figure 3 (§5.2, "Ability to reason about the
// performance of a network"): contracts for a stateless firewall (drops IP
// options) and a static router (pays 79*n+646-style linear cost for IP
// options), then the contract for the chain firewall -> router.
//
// The point: the firewall *masks* the router's worst case. Naively adding
// the two individual worst cases wildly over-predicts; BOLT's joint chain
// analysis (§3.4) prunes the incompatible path pairs and lands close to
// the measurement.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <vector>

#include "core/bolt.h"
#include "core/distiller.h"
#include "core/runner.h"
#include "net/packet_builder.h"
#include "net/workload.h"
#include "nf/firewall.h"
#include "support/bench.h"
#include "support/strings.h"
#include "support/thread_pool.h"

using namespace bolt;

namespace {

std::vector<net::Packet> chain_workload() {
  std::vector<net::Packet> out;
  support::Rng rng(42);
  net::TimestampNs ts = 1'000'000'000;
  for (int i = 0; i < 4000; ++i) {
    net::PacketBuilder b;
    b.ipv4(net::Ipv4Address::from_octets(198, 18, 0, 1),
           net::Ipv4Address{static_cast<std::uint32_t>(rng.next())})
        .udp(static_cast<std::uint16_t>(rng.range(1, 1023)), 80)
        .timestamp_ns(ts);
    if (rng.chance(0.3)) b.ip_timestamp_option(2);  // options -> firewall drop
    out.push_back(b.build());
    ts += 10'000;
  }
  return out;
}

std::int64_t worst(const perf::Contract& contract, perf::Metric m,
                   const perf::PcvBinding& bind) {
  return contract.worst_case(m, bind);
}

}  // namespace

int main() {
  perf::PcvRegistry reg;
  const ir::Program firewall = nf::Firewall::program();
  const ir::Program router = nf::StaticRouter::program();
  dslib::MethodTable no_methods;
  core::ContractGenerator generator(reg);

  // --- individual contracts (Table 5a / 5b) ---
  core::NfAnalysis fw_analysis{"firewall", {&firewall}, &no_methods};
  core::NfAnalysis rt_analysis{"static_router", {&router}, &no_methods};
  const auto fw = generator.generate(fw_analysis);
  const auto rt = generator.generate(rt_analysis);

  std::printf("Table 5a — firewall contract (instructions)\n\n%s\n",
              fw.contract.str(reg, perf::Metric::kInstructions).c_str());
  std::printf("Table 5b — static router contract (instructions)\n\n%s\n",
              rt.contract.str(reg, perf::Metric::kInstructions).c_str());

  // --- chain contract (Table 5c) ---
  core::NfAnalysis chain_analysis{"firewall+router", {&firewall, &router},
                                  &no_methods};
  const auto chain = generator.generate(chain_analysis);
  std::printf("Table 5c — firewall + router chain contract (instructions)\n\n%s\n",
              chain.contract.str(reg, perf::Metric::kInstructions).c_str());

  // --- Figure 3: naive addition vs composite vs measured ---
  // PCV binding: options packets carry up to 10 option words (n = ihl - 5).
  perf::PcvBinding bind;
  if (reg.contains("n")) bind.set(reg.require("n"), 10);

  const std::int64_t naive_ic =
      worst(fw.contract, perf::Metric::kInstructions, bind) +
      worst(rt.contract, perf::Metric::kInstructions, bind);
  const std::int64_t naive_ma =
      worst(fw.contract, perf::Metric::kMemoryAccesses, bind) +
      worst(rt.contract, perf::Metric::kMemoryAccesses, bind);
  const std::int64_t comp_ic =
      worst(chain.contract, perf::Metric::kInstructions, bind);
  const std::int64_t comp_ma =
      worst(chain.contract, perf::Metric::kMemoryAccesses, bind);

  // Measure the chain on mixed traffic.
  core::NfRunner runner({&firewall, &router}, nullptr, [] {
    ir::InterpreterOptions o;
    nf::apply_framework(o, nf::framework_full());
    return o;
  }());
  core::Distiller distiller(runner);
  auto packets = chain_workload();
  const core::DistillerReport report = distiller.run(packets);
  const std::uint64_t measured_ic = report.worst_measured("instructions");
  const std::uint64_t measured_ma = report.worst_measured("mem_accesses");

  std::printf("Figure 3 — composite NF, worst-case prediction vs measurement\n\n");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"", "Predicted IC", "Measured IC", "Predicted MA",
                  "Measured MA"});
  rows.push_back({"Naive-Add", support::with_commas(naive_ic), "-",
                  support::with_commas(naive_ma), "-"});
  rows.push_back({"Composite-Bolt", support::with_commas(comp_ic),
                  support::with_commas(static_cast<std::int64_t>(measured_ic)),
                  support::with_commas(comp_ma),
                  support::with_commas(static_cast<std::int64_t>(measured_ma))});
  std::printf("%s\n", support::render_table(rows).c_str());
  std::printf(
      "Naive addition over-predicts by %.0f%% (it charges the router's\n"
      "option-processing worst case to packets the firewall already\n"
      "dropped); the composite contract stays within %.1f%% of the\n"
      "measurement — the paper's Figure 3 in numbers.\n",
      100.0 * (static_cast<double>(naive_ic) / static_cast<double>(comp_ic) -
               1.0),
      100.0 * (static_cast<double>(comp_ic) / static_cast<double>(measured_ic) -
               1.0));

  // --- Parallel pipeline: sweep the chain's analysis configurations ---
  // The paper's workflow regenerates contracts under many configurations
  // (framework on/off x coalescing x loop linearisation). Each generation
  // is independent, so the sweep fans out across the shared pool (each
  // generation runs serially on its sweep thread); a heavier solver budget
  // makes each generation a realistic unit of work.
  std::vector<core::BoltOptions> configs;
  for (const bool full_framework : {false, true}) {
    for (const bool coalesce : {false, true}) {
      for (const bool linearize : {false, true}) {
        core::BoltOptions o;
        o.framework = full_framework ? nf::framework_full() : nf::framework_none();
        o.coalesce = coalesce;
        o.linearize_loops = linearize;
        o.executor.solver.random_probes = 16'000;
        configs.push_back(o);
      }
    }
  }
  constexpr int kGensPerConfig = 25;  // sized so a unit of work is ~10 ms
  auto sweep_ms = [&](std::size_t width) {
    std::atomic<std::size_t> total_entries{0};
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {  // min-of-3 to tame scheduler noise
      support::BenchTimer timer;
      support::parallel_for(0, configs.size(), width, [&](std::size_t i) {
        for (int g = 0; g < kGensPerConfig; ++g) {
          perf::PcvRegistry sweep_reg;
          core::ContractGenerator sweep_gen(sweep_reg, configs[i]);
          const auto generated = sweep_gen.generate(chain_analysis);
          total_entries.fetch_add(generated.contract.entries().size());
        }
      });
      best = std::min(best, timer.elapsed_ms());
    }
    return best;
  };
  const double ms_1t = sweep_ms(1);
  const double ms_4t = sweep_ms(4);
  const double speedup = ms_1t / ms_4t;
  std::printf(
      "\nParallel pipeline — %zu-configuration chain sweep (min of 3)\n"
      "  1 thread:  %8.2f ms\n"
      "  4 threads: %8.2f ms   speedup %.2fx (hardware threads: %zu)\n",
      configs.size(), ms_1t, ms_4t, speedup, support::resolve_threads(0));

  support::BenchReport bench("fig3_table5_chain");
  bench.metric("naive_ic", static_cast<double>(naive_ic));
  bench.metric("composite_ic", static_cast<double>(comp_ic));
  bench.metric("measured_ic", static_cast<double>(measured_ic));
  bench.metric("naive_ma", static_cast<double>(naive_ma));
  bench.metric("composite_ma", static_cast<double>(comp_ma));
  bench.metric("measured_ma", static_cast<double>(measured_ma));
  bench.metric("sweep_ms_1t", ms_1t, "ms");
  bench.metric("sweep_ms_4t", ms_4t, "ms");
  bench.metric("sweep_speedup_4t", speedup, "x");
  return 0;
}
