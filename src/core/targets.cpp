#include "core/targets.h"

#include <algorithm>

#include "net/workload.h"
#include "nf/firewall.h"

namespace bolt::core {

NfAnalysis NfTarget::analysis() const {
  if (!is_stateless) return instance.analysis();
  NfAnalysis a;
  a.name = name;
  for (const auto& p : stateless) a.programs.push_back(&p);
  a.methods = &no_methods;
  return a;
}

std::vector<const ir::Program*> NfTarget::programs() const {
  if (!is_stateless) return {&instance.program};
  std::vector<const ir::Program*> out;
  for (const auto& p : stateless) out.push_back(&p);
  return out;
}

std::unique_ptr<NfRunner> NfTarget::make_runner(const nf::FrameworkCosts& fw,
                                                ir::TraceSink* sink,
                                                ir::EngineKind engine) const {
  if (!is_stateless) return instance.make_runner(fw, sink, engine);
  ir::InterpreterOptions opts;
  nf::apply_framework(opts, fw);
  opts.sink = sink;
  opts.engine = engine;
  return std::make_unique<NfRunner>(programs(), nullptr, opts);
}

bool make_named_target(const std::string& name, perf::PcvRegistry& reg,
                       NfTarget& out) {
  out.name = name;
  if (name == "bridge") {
    out.instance = make_bridge(reg, default_bridge_config());
  } else if (name == "nat" || name == "nat-b") {
    auto cfg = default_nat_config();
    if (name == "nat-b") cfg.allocator = dslib::NatState::AllocatorKind::kB;
    out.instance = make_nat(reg, cfg);
  } else if (name == "lb") {
    out.instance = make_lb(reg, default_lb_config());
  } else if (name == "lpm") {
    out.instance = make_dir_lpm(reg);
  } else if (name == "lpm-simple") {
    out.instance = make_simple_lpm(reg);
  } else if (name == "firewall") {
    out.stateless.push_back(nf::Firewall::program());
    out.is_stateless = true;
  } else if (name == "router") {
    out.stateless.push_back(nf::StaticRouter::program());
    out.is_stateless = true;
  } else if (name == "fw+router") {
    out.stateless.push_back(nf::Firewall::program());
    out.stateless.push_back(nf::StaticRouter::program());
    out.is_stateless = true;
  } else {
    return false;
  }
  return true;
}

const std::vector<std::string>& named_targets() {
  static const std::vector<std::string> kNames = {
      "bridge", "nat",    "nat-b",  "lb",        "lpm",
      "lpm-simple", "firewall", "router", "fw+router"};
  return kNames;
}

std::vector<net::Packet> monitor_workload(const std::string& nf,
                                          std::string kind,
                                          std::size_t count) {
  if (kind.empty()) kind = nf == "bridge" ? "bridge" : "zipf";
  if (kind == "uniform") {
    net::UniformSpec spec;
    spec.packet_count = count;
    return net::uniform_random_traffic(spec);
  }
  if (kind == "churn") {
    net::ChurnSpec spec;
    spec.packet_count = count;
    spec.churn = 0.05;
    return net::churn_traffic(spec);
  }
  if (kind == "zipf") {
    net::ZipfSpec spec;
    spec.packet_count = count;
    spec.flow_pool = 2048;
    spec.skew = 1.1;
    return net::zipf_traffic(spec);
  }
  if (kind == "bridge") {
    net::BridgeSpec spec;
    spec.packet_count = count;
    spec.stations = 1000;
    spec.broadcast_fraction = 0.05;
    return net::bridge_traffic(spec);
  }
  if (kind == "attack") {
    net::BridgeAttackSpec spec;
    spec.packet_count = count;
    return net::bridge_collision_attack(spec);
  }
  if (kind == "heartbeat") {
    net::HeartbeatSpec spec;
    spec.packet_count = count;
    return net::heartbeat_traffic(spec);
  }
  if (kind == "longrun") {
    net::LongRunSpec spec;
    spec.packet_count = count;
    return net::long_run_traffic(spec);
  }
  if (kind == "drift") {
    net::DriftSpec spec;
    // The erosion schedule (windows, ramp) is the spec's; --packets only
    // scales the per-window density.
    if (count > 0) {
      spec.packets_per_window =
          std::max<std::size_t>(std::size_t{1}, count / spec.windows);
    }
    return net::drift_traffic(spec);
  }
  return {};
}

}  // namespace bolt::core
