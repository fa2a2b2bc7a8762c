#include "core/experiments.h"

#include <algorithm>
#include <map>

#include "dslib/lb_state.h"
#include "dslib/nat_state.h"
#include "net/packet_builder.h"
#include "net/workload.h"
#include "nf/nat.h"
#include "support/assert.h"
#include "support/thread_pool.h"

namespace bolt::core {
namespace {

constexpr net::TimestampNs kBase = 1'000'000'000ULL;
constexpr std::size_t kMeasureCount = 2'000;

Scenario make_nat_scenario(const std::string& id, perf::PcvRegistry& reg) {
  auto cfg = default_nat_config();
  Scenario s;
  s.id = id;
  s.nf = make_nat(reg, cfg);

  if (id == "NAT1") {
    s.description = "unconstrained traffic (full colliding table, mass expiry)";
    // The probe flow's own entry is synthesised into a full, fully
    // colliding, fully stale table. One probe packet triggers everything.
    const net::FiveTuple probe = net::tuple_for_index(0);
    s.nf.state_as<dslib::NatState>().synthesize_pathological(
        probe.key(), cfg.flow.capacity, kBase);
    net::Packet pkt = net::packet_for_tuple(
        probe, kBase + cfg.flow.ttl_ns + 1'000'000'000, nf::Nat::kInternalPort);
    s.measure = {pkt};
    return s;
  }
  if (id == "NAT2") {
    s.description = "internal packets of new connections";
    net::ChurnSpec spec;
    spec.churn = 1.0;  // every packet starts a fresh flow
    spec.active_flows = 64;
    spec.packet_count = kMeasureCount;
    spec.in_port = nf::Nat::kInternalPort;
    s.measure = net::churn_traffic(spec);
    return s;
  }
  if (id == "NAT3") {
    s.description = "internal packets of established connections";
    net::UniformSpec spec;
    spec.flow_pool = 512;
    spec.packet_count = kMeasureCount;
    spec.in_port = nf::Nat::kInternalPort;
    spec.timing.start_ns = kBase;
    s.warmup = net::uniform_random_traffic(spec);
    net::UniformSpec again = spec;
    again.seed = 2;
    again.timing.start_ns = kBase + 50'000'000;
    s.measure = net::uniform_random_traffic(again);
    return s;
  }
  if (id == "NAT4") {
    s.description = "external packets without a mapping (dropped)";
    net::UniformSpec spec;
    spec.flow_pool = 512;
    spec.packet_count = kMeasureCount;
    spec.internal_side = false;
    spec.in_port = nf::Nat::kExternalPort;
    s.measure = net::uniform_random_traffic(spec);
    return s;
  }
  BOLT_UNREACHABLE("unknown NAT scenario " + id);
}

Scenario make_bridge_scenario(const std::string& id, perf::PcvRegistry& reg) {
  auto cfg = default_bridge_config();
  Scenario s;
  s.id = id;
  s.nf = make_bridge(reg, cfg);

  if (id == "Br1") {
    s.description = "unconstrained traffic (full colliding table, mass expiry)";
    const std::uint64_t probe_mac = 0x02000000aaaaULL;
    s.nf.state_as<dslib::BridgeState>().synthesize_pathological(
        probe_mac, cfg.capacity, kBase);
    net::PacketBuilder b;
    b.eth(net::MacAddress::from_u64(probe_mac),
          net::MacAddress::from_u64(0x02000000bbbbULL))
        .ipv4(net::Ipv4Address::from_octets(10, 0, 0, 1),
              net::Ipv4Address::from_octets(10, 0, 0, 2))
        .udp(1, 2)
        .timestamp_ns(kBase + cfg.ttl_ns + 1'000'000'000);
    s.measure = {b.build()};
    return s;
  }
  if (id == "Br2") {
    s.description = "broadcast traffic";
    net::BridgeSpec spec;
    spec.broadcast_fraction = 1.0;
    spec.stations = 256;
    spec.packet_count = kMeasureCount;
    s.measure = net::bridge_traffic(spec);
    return s;
  }
  if (id == "Br3") {
    s.description = "unicast traffic";
    net::BridgeSpec warm;
    warm.stations = 256;
    warm.packet_count = 2'000;
    warm.timing.start_ns = kBase;
    s.warmup = net::bridge_traffic(warm);
    net::BridgeSpec spec;
    spec.seed = 5;
    spec.stations = 256;
    spec.packet_count = kMeasureCount;
    spec.timing.start_ns = kBase + 50'000'000;
    s.measure = net::bridge_traffic(spec);
    return s;
  }
  BOLT_UNREACHABLE("unknown bridge scenario " + id);
}

Scenario make_lb_scenario(const std::string& id, perf::PcvRegistry& reg) {
  auto cfg = default_lb_config();
  Scenario s;
  s.id = id;
  s.nf = make_lb(reg, cfg);
  auto& state = s.nf.state_as<dslib::LbState>();
  state.ring().all_alive(kBase);

  if (id == "LB1") {
    s.description = "unconstrained traffic (full colliding table, mass expiry)";
    const net::FiveTuple probe = net::tuple_for_index(0, false);
    state.synthesize_pathological(probe.key(), cfg.flow.capacity, kBase);
    state.ring().all_alive(kBase + cfg.flow.ttl_ns + 2'000'000'000);
    net::Packet pkt = net::packet_for_tuple(
        probe, kBase + cfg.flow.ttl_ns + 1'000'000'000, 1);
    s.measure = {pkt};
    return s;
  }
  if (id == "LB2") {
    s.description = "external packets of new flows";
    net::ChurnSpec spec;
    spec.churn = 1.0;
    spec.active_flows = 64;
    spec.packet_count = kMeasureCount;
    spec.in_port = 1;
    s.measure = net::churn_traffic(spec);
    // Keep all backends alive throughout.
    s.post_warmup = [](NfInstance& nf) {
      nf.state_as<dslib::LbState>().ring().all_alive(kBase);
    };
    return s;
  }
  if (id == "LB3" || id == "LB4") {
    net::UniformSpec warm;
    warm.flow_pool = 512;
    warm.packet_count = 2'000;
    warm.timing.start_ns = kBase;
    s.warmup = net::uniform_random_traffic(warm);
    net::UniformSpec spec;
    spec.seed = 2;
    spec.flow_pool = 512;
    spec.packet_count = kMeasureCount;
    spec.timing.start_ns = kBase + 50'000'000;
    s.measure = net::uniform_random_traffic(spec);
    if (id == "LB3") {
      s.description = "existing flows whose backend stopped responding";
      s.post_warmup = [](NfInstance& nf) {
        auto& lb = nf.state_as<dslib::LbState>();
        // A quarter of the backends go silent.
        for (std::uint32_t b = 0; b < lb.ring().backend_count(); b += 4) {
          lb.ring().kill_backend(b);
        }
      };
    } else {
      s.description = "existing flows with live backends";
    }
    return s;
  }
  if (id == "LB5") {
    s.description = "heartbeat packets from backend servers";
    net::HeartbeatSpec spec;
    spec.backends = cfg.ring.backend_count;
    spec.heartbeat_port = cfg.heartbeat_port;
    spec.packet_count = kMeasureCount;
    s.measure = net::heartbeat_traffic(spec);
    return s;
  }
  BOLT_UNREACHABLE("unknown LB scenario " + id);
}

Scenario make_lpm_scenario(const std::string& id, perf::PcvRegistry& reg) {
  Scenario s;
  s.id = id;
  s.nf = make_dir_lpm(reg);
  auto& lpm = s.nf.state_as<dslib::LpmDirState>().table();

  net::LpmSpec spec;
  if (id == "LPM1") {
    s.description = "matched prefixes > 24 bits (two lookups)";
    spec.min_prefix_len = 25;
    spec.max_prefix_len = 32;
  } else if (id == "LPM2") {
    s.description = "matched prefixes <= 24 bits (one lookup)";
    spec.min_prefix_len = 8;
    spec.max_prefix_len = 24;
  } else {
    BOLT_UNREACHABLE("unknown LPM scenario " + id);
  }
  spec.packet_count = kMeasureCount + 200;
  const net::LpmWorkload wl = net::lpm_traffic(spec);
  for (const net::LpmRoute& r : wl.routes) lpm.insert(r.prefix, r.length, r.port);
  s.warmup.assign(wl.packets.begin(), wl.packets.begin() + 200);
  s.measure.assign(wl.packets.begin() + 200, wl.packets.end());
  return s;
}

}  // namespace

std::vector<std::string> all_scenario_ids() {
  return {"NAT1", "NAT2", "NAT3", "NAT4", "Br1", "Br2", "Br3",
          "LB1",  "LB2",  "LB3",  "LB4",  "LB5", "LPM1", "LPM2"};
}

Scenario make_scenario(const std::string& id, perf::PcvRegistry& reg) {
  if (id.rfind("NAT", 0) == 0) return make_nat_scenario(id, reg);
  if (id.rfind("Br", 0) == 0) return make_bridge_scenario(id, reg);
  if (id.rfind("LB", 0) == 0) return make_lb_scenario(id, reg);
  if (id.rfind("LPM", 0) == 0) return make_lpm_scenario(id, reg);
  BOLT_UNREACHABLE("unknown scenario " + id);
}

ScenarioResult run_scenario(Scenario& scenario, perf::PcvRegistry& reg,
                            const BoltOptions& options) {
  ScenarioResult result;
  result.id = scenario.id;

  // 1) Generate the contract (this does not run the NF).
  ContractGenerator generator(reg, options);
  const GenerationResult generated = generator.generate(scenario.nf.analysis());
  BOLT_CHECK(generated.unsolved_paths == 0,
             scenario.id + ": unsolved paths in contract generation");
  result.contract_entries = generated.contract.entries().size();
  result.total_paths = generated.total_paths;

  // 2) Run warm-up + measurement on the concrete NF with the realistic
  //    hardware simulator attached (the "testbed").
  hw::RealisticSim testbed(options.cycle_costs);
  auto runner = scenario.nf.make_runner(options.framework, &testbed);
  runner->process_trace(scenario.warmup, &testbed);
  if (scenario.post_warmup) scenario.post_warmup(scenario.nf);

  Distiller distiller(*runner, &testbed, &scenario.nf.methods);
  const DistillerReport report = distiller.run(scenario.measure);

  // 3) Measured = worst packet in the class; predicted = worst contract
  //    entry among the observed classes, at the distilled PCV bindings.
  result.measured_ic = report.worst_measured("instructions");
  result.measured_ma = report.worst_measured("mem_accesses");
  result.measured_cycles = report.worst_measured("cycles");

  std::map<std::string, bool> seen;
  for (const PacketRecord& rec : report.records) seen[rec.class_key] = true;
  for (const auto& [key, unused] : seen) {
    (void)unused;
    const perf::ContractEntry* entry = generated.contract.find(key);
    BOLT_CHECK(entry != nullptr,
               scenario.id + ": no contract entry for observed class " + key);
    const perf::PcvBinding binding = report.worst_binding_for(key);
    result.predicted_ic = std::max(
        result.predicted_ic,
        entry->perf.get(perf::Metric::kInstructions).eval(binding));
    result.predicted_ma = std::max(
        result.predicted_ma,
        entry->perf.get(perf::Metric::kMemoryAccesses).eval(binding));
    result.predicted_cycles = std::max(
        result.predicted_cycles,
        entry->perf.get(perf::Metric::kCycles).eval(binding));
  }
  return result;
}

std::vector<ScenarioResult> run_scenarios(const std::vector<std::string>& ids,
                                          const BoltOptions& options,
                                          std::size_t threads) {
  // Scenario sweeps are parallel at the scenario level; each scenario's
  // own generation is serial on its sweep thread, so concurrent scenarios
  // never oversubscribe.
  std::vector<ScenarioResult> results(ids.size());
  support::parallel_for(0, ids.size(), threads, [&](std::size_t i) {
    perf::PcvRegistry reg;
    Scenario scenario = make_scenario(ids[i], reg);
    results[i] = run_scenario(scenario, reg, options);
  });
  return results;
}

std::vector<ScenarioResult> run_all_scenarios(const BoltOptions& options,
                                              std::size_t threads) {
  return run_scenarios(all_scenario_ids(), options, threads);
}

}  // namespace bolt::core
