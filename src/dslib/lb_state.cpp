#include "dslib/lb_state.h"

#include "dslib/contract_exprs.h"
#include "dslib/costs.h"
#include "net/flow.h"
#include "net/headers.h"
#include "support/assert.h"

namespace bolt::dslib {

using perf::Metric;
using perf::MetricExprs;
using perf::PerfExpr;

namespace {

/// Forced inline, as NAT's: a tuple returned by value is assembled through
/// the stack and reloaded as whole words (a store-forwarding stall).
[[gnu::always_inline]] inline net::FiveTuple parse_tuple(
    const net::Packet& packet, ir::CostMeter& meter) {
  meter.metered_instructions(cost::kParseFlow);
  for (std::uint64_t i = 0; i < cost::kParseAccesses; ++i) {
    meter.mem_read(ir::kPacketBase + 14 + 4 * i, 4);
  }
  const auto tuple = net::extract_five_tuple(packet);
  BOLT_CHECK(tuple.has_value(), "LB stateful method on non-flow packet");
  return *tuple;
}

CostShape make_const(std::int64_t instr, std::int64_t ma, std::int64_t unique) {
  CostShape out;
  out.exprs.set(Metric::kInstructions, PerfExpr::constant(instr));
  out.exprs.set(Metric::kMemoryAccesses, PerfExpr::constant(ma));
  out.unique_lines = PerfExpr::constant(unique);
  return out;
}

}  // namespace

LbState::LbState(const Config& config, perf::PcvRegistry& reg)
    : config_(config), flow_(config.flow), ring_(config.ring) {
  intern_standard_pcvs(reg);
  c_ = reg.require(pcv::kCollisions);
  t_ = reg.require(pcv::kTraversals);
  e_ = reg.require(pcv::kExpired);
  b_ = reg.require(pcv::kRingSteps);
}

void LbState::bind(DispatchEnv& env) {
  env.register_method<&LbState::call_expire>(kExpire, this);
  env.register_method<&LbState::call_flow_lookup>(kFlowLookup, this);
  env.register_method<&LbState::call_backend_alive>(kBackendAlive, this);
  env.register_method<&LbState::call_ring_select>(kRingSelect, this);
  env.register_method<&LbState::call_reselect>(kReselect, this);
  env.register_method<&LbState::call_heartbeat>(kHeartbeat, this);
}

ir::CallOutcome LbState::call_expire(std::uint64_t, std::uint64_t,
                                     const net::Packet& pkt,
                                     ir::CostMeter& meter) {
  const auto r = flow_.expire(pkt.timestamp_ns(), meter);
  ir::CallOutcome out;
  out.v0 = r.expired;
  out.case_label = "expire";
  out.pcvs.set(e_, r.expired);
  out.pcvs.set(t_, r.amortised_walk);
  out.pcvs.set(c_, r.amortised_collisions);
  return out;
}

ir::CallOutcome LbState::call_flow_lookup(std::uint64_t, std::uint64_t,
                                          const net::Packet& pkt,
                                          ir::CostMeter& meter) {
  const net::FiveTuple tuple = parse_tuple(pkt, meter);
  // touch: traffic keeps the flow pinned (stamp refresh on hit).
  const auto r = flow_.touch(tuple.key(), pkt.timestamp_ns(), meter);
  ir::CallOutcome out;
  out.v0 = r.found ? 1 : 0;
  out.v1 = r.value;
  out.case_label = r.found ? "hit" : "miss";
  out.pcvs.set(c_, r.stats.collisions);
  out.pcvs.set(t_, r.stats.traversals);
  return out;
}

ir::CallOutcome LbState::call_backend_alive(std::uint64_t backend,
                                            std::uint64_t,
                                            const net::Packet& pkt,
                                            ir::CostMeter& meter) {
  const bool alive = ring_.alive(static_cast<std::uint32_t>(backend),
                                 pkt.timestamp_ns(), meter);
  ir::CallOutcome out;
  out.v0 = alive ? 1 : 0;
  out.case_label = alive ? "alive" : "dead";
  return out;
}

ir::CallOutcome LbState::select(bool is_reselect, const net::Packet& pkt,
                                ir::CostMeter& meter) {
  const net::FiveTuple tuple = parse_tuple(pkt, meter);
  const auto sel = ring_.select_alive(tuple.key(), pkt.timestamp_ns(), meter);
  ir::CallOutcome out;
  out.v0 = sel.backend;
  out.pcvs.set(b_, sel.ring_steps);
  const auto put =
      flow_.put(tuple.key(), sel.backend, pkt.timestamp_ns(), meter);
  out.pcvs.set(c_, put.stats.collisions);
  out.pcvs.set(t_, put.stats.traversals);
  if (is_reselect) {
    BOLT_CHECK(put.outcome == FlowTable::PutCase::kUpdate,
               "reselect must update an existing flow entry");
    out.case_label = "ok";
  } else {
    out.case_label = put.outcome == FlowTable::PutCase::kFull ? "full" : "ok";
  }
  return out;
}

ir::CallOutcome LbState::call_ring_select(std::uint64_t, std::uint64_t,
                                          const net::Packet& pkt,
                                          ir::CostMeter& meter) {
  return select(false, pkt, meter);
}

ir::CallOutcome LbState::call_reselect(std::uint64_t, std::uint64_t,
                                       const net::Packet& pkt,
                                       ir::CostMeter& meter) {
  return select(true, pkt, meter);
}

ir::CallOutcome LbState::call_heartbeat(std::uint64_t, std::uint64_t,
                                        const net::Packet& pkt,
                                        ir::CostMeter& meter) {
  // Backend identity: low bits of the source IP (172.16.0.0/16 pool).
  meter.metered_instructions(6);
  meter.mem_read(ir::kPacketBase + 26, 4);
  const auto ip = net::parse_ipv4(pkt.bytes(), net::kEthernetHeaderSize);
  BOLT_CHECK(ip.has_value(), "heartbeat on non-IPv4 packet");
  const std::uint32_t backend =
      (ip->src.value & 0xffff) == 0
          ? 0
          : (ip->src.value & 0xffff) - 1;  // .1 -> backend 0
  ring_.heartbeat(backend % static_cast<std::uint32_t>(ring_.backend_count()),
                  pkt.timestamp_ns(), meter);
  ir::CallOutcome out;
  out.case_label = "ok";
  return out;
}

MethodTable LbState::method_table(perf::PcvRegistry& reg,
                                  const Config& /*config*/) {
  const FlowPcvs p = FlowPcvs::standard(reg);
  const perf::PcvId b = reg.require(pcv::kRingSteps);

  MethodTable table;

  {  // expire
    MethodSpec spec;
    spec.name = "lb.expire";
    spec.model = [](symbex::SymbolTable& symbols, const symbex::ExprPtr&,
                    const symbex::ExprPtr&) {
      return std::vector<symbex::ModelOutcome>{
          symbex::fresh_value_outcome(symbols, "expire", "lb.expired", 32)};
    };
    spec.contract = perf::MethodContract("lb.expire");
    add_case(spec.contract, "expire", ft_expire(p));
    table.emplace(kExpire, std::move(spec));
  }

  {  // flow_lookup
    MethodSpec spec;
    spec.name = "lb.flow_lookup";
    spec.model = [](symbex::SymbolTable& symbols, const symbex::ExprPtr&,
                    const symbex::ExprPtr&) {
      std::vector<symbex::ModelOutcome> outs;
      symbex::ModelOutcome hit;
      hit.case_label = "hit";
      hit.ret0 = symbex::Expr::constant(1);
      hit.ret1 = symbex::Expr::symbol(symbols.fresh("lb.backend", 16));
      outs.push_back(std::move(hit));
      symbex::ModelOutcome miss;
      miss.case_label = "miss";
      miss.ret0 = symbex::Expr::constant(0);
      outs.push_back(std::move(miss));
      return outs;
    };
    spec.contract = perf::MethodContract("lb.flow_lookup");
    add_case(spec.contract, "hit", parse_flow_cost() + ft_touch_hit(p));
    add_case(spec.contract, "miss", parse_flow_cost() + ft_get_miss(p));
    table.emplace(kFlowLookup, std::move(spec));
  }

  {  // backend_alive
    MethodSpec spec;
    spec.name = "lb.backend_alive";
    spec.model = [](symbex::SymbolTable&, const symbex::ExprPtr&,
                    const symbex::ExprPtr&) {
      std::vector<symbex::ModelOutcome> outs(2);
      outs[0].case_label = "alive";
      outs[0].ret0 = symbex::Expr::constant(1);
      outs[1].case_label = "dead";
      outs[1].ret0 = symbex::Expr::constant(0);
      return outs;
    };
    spec.contract = perf::MethodContract("lb.backend_alive");
    add_case(spec.contract, "alive", make_const(cost::kHealthCheck, 1, 1));
    add_case(spec.contract, "dead", make_const(cost::kHealthCheck, 1, 1));
    table.emplace(kBackendAlive, std::move(spec));
  }

  // ring_select / reselect: ring lookup + (b+1) health checks + b ring
  // steps (each with a table read) + flow-table put.
  auto select_exprs = [&](const CostShape& put_shape) {
    CostShape ring;
    ring.exprs.set(
        Metric::kInstructions,
        PerfExpr::constant(cost::kRingLookup + cost::kHealthCheck) +
            PerfExpr::pcv(b).scaled(cost::kRingStep + cost::kHealthCheck));
    ring.exprs.set(Metric::kMemoryAccesses,
                   PerfExpr::constant(2) + PerfExpr::pcv(b).scaled(2));
    // Ring-table reads stream consecutive 4-byte slots; health reads hit a
    // handful of backend lines that repeat quickly.
    ring.unique_lines = PerfExpr::constant(2) + PerfExpr::pcv(b);
    return parse_flow_cost() + ring + put_shape;
  };

  {
    MethodSpec spec;
    spec.name = "lb.ring_select";
    spec.model = [](symbex::SymbolTable& symbols, const symbex::ExprPtr&,
                    const symbex::ExprPtr&) {
      std::vector<symbex::ModelOutcome> outs;
      symbex::ModelOutcome ok;
      ok.case_label = "ok";
      ok.ret0 = symbex::Expr::symbol(symbols.fresh("lb.new_backend", 16));
      outs.push_back(std::move(ok));
      symbex::ModelOutcome full;
      full.case_label = "full";
      full.ret0 = symbex::Expr::symbol(symbols.fresh("lb.uncached_backend", 16));
      outs.push_back(std::move(full));
      return outs;
    };
    spec.contract = perf::MethodContract("lb.ring_select");
    add_case(spec.contract, "ok", select_exprs(ft_put_new(p)));
    add_case(spec.contract, "full", select_exprs(ft_put_full(p)));
    table.emplace(kRingSelect, std::move(spec));
  }

  {
    MethodSpec spec;
    spec.name = "lb.reselect";
    spec.model = [](symbex::SymbolTable& symbols, const symbex::ExprPtr&,
                    const symbex::ExprPtr&) {
      return std::vector<symbex::ModelOutcome>{symbex::fresh_value_outcome(
          symbols, "ok", "lb.reselected_backend", 16)};
    };
    spec.contract = perf::MethodContract("lb.reselect");
    add_case(spec.contract, "ok", select_exprs(ft_put_update(p)));
    table.emplace(kReselect, std::move(spec));
  }

  {  // heartbeat
    MethodSpec spec;
    spec.name = "lb.heartbeat";
    spec.model = [](symbex::SymbolTable&, const symbex::ExprPtr&,
                    const symbex::ExprPtr&) {
      std::vector<symbex::ModelOutcome> outs(1);
      outs[0].case_label = "ok";
      return outs;
    };
    spec.contract = perf::MethodContract("lb.heartbeat");
    add_case(spec.contract, "ok", make_const(6 + cost::kHealthUpdate, 2, 2));
    table.emplace(kHeartbeat, std::move(spec));
  }

  return table;
}

void LbState::synthesize_pathological(std::uint64_t probe_key,
                                      std::size_t count,
                                      std::uint64_t stamp_ns) {
  flow_.synthesize_colliding_state(count, probe_key, stamp_ns);
}

}  // namespace bolt::dslib
