#include "dslib/nat_state.h"

#include "dslib/contract_exprs.h"
#include "dslib/costs.h"
#include "net/flow.h"
#include "support/assert.h"

namespace bolt::dslib {

using perf::Metric;
using perf::MetricExprs;
using perf::PerfExpr;

namespace {

/// Parses the five-tuple inside a stateful method, metering the fixed
/// parse cost (the composite's equivalent of VigNAT's flow extraction).
/// Forced inline so the tuple stays in registers: returned by value, it is
/// assembled through the stack and reloaded as whole words, a
/// store-forwarding stall on every call.
[[gnu::always_inline]] inline net::FiveTuple parse_tuple(
    const net::Packet& packet, ir::CostMeter& meter) {
  meter.metered_instructions(cost::kParseFlow);
  for (std::uint64_t i = 0; i < cost::kParseAccesses; ++i) {
    meter.mem_read(ir::kPacketBase + 14 + 4 * i, 4);
  }
  const auto tuple = net::extract_five_tuple(packet);
  BOLT_CHECK(tuple.has_value(),
             "NAT stateful method called on a non-flow packet (the stateless "
             "code must validate first)");
  return *tuple;
}

}  // namespace

NatState::NatState(const Config& config, perf::PcvRegistry& reg)
    : config_(config), int_table_(config.flow), ext_table_(config.flow) {
  if (config.allocator == AllocatorKind::kA) {
    allocator_ = std::make_unique<PortAllocatorA>(config.first_external_port,
                                                  config.flow.capacity);
  } else {
    allocator_ = std::make_unique<PortAllocatorB>(config.first_external_port,
                                                  config.flow.capacity);
  }
  intern_standard_pcvs(reg);
  c_ = reg.require(pcv::kCollisions);
  t_ = reg.require(pcv::kTraversals);
  e_ = reg.require(pcv::kExpired);
  o_ = reg.require(pcv::kOccupancy);
  s_ = reg.require(pcv::kAllocProbes);
}

NatState::SweepResult NatState::sweep_expired(std::uint64_t now_ns,
                                              ir::CostMeter& meter) {
  SweepResult result;
  result.flow = int_table_.expire(
      now_ns, meter,
      [&](std::uint64_t /*key*/, std::uint64_t ext_port, ir::CostMeter& m) {
        const auto erased = ext_table_.erase(ext_port, m);
        result.ext_walk += erased.stats.traversals;
        result.ext_collisions += erased.stats.collisions;
        allocator_->free(static_cast<std::uint16_t>(ext_port), m);
      });
  return result;
}

void NatState::bind(DispatchEnv& env) {
  env.register_method<&NatState::call_expire>(kExpire, this);
  env.register_method<&NatState::call_lookup_int>(kLookupInt, this);
  env.register_method<&NatState::call_lookup_ext>(kLookupExt, this);
  env.register_method<&NatState::call_add_flow>(kAddFlow, this);
}

ir::CallOutcome NatState::call_expire(std::uint64_t, std::uint64_t,
                                      const net::Packet& pkt,
                                      ir::CostMeter& meter) {
  const SweepResult sweep = sweep_expired(pkt.timestamp_ns(), meter);
  const auto& r = sweep.flow;
  ir::CallOutcome out;
  out.v0 = r.expired;
  out.case_label = "expire";
  out.pcvs.set(e_, r.expired);
  if (r.expired > 0) {
    // Combined amortisation across both tables' erase walks, so the
    // contract's single e*t / e*c cross terms stay tight (see
    // contract_exprs.cpp).
    out.pcvs.set(t_, (r.total_walk + sweep.ext_walk + r.expired - 1) /
                         r.expired);
    out.pcvs.set(c_, (r.total_collisions + sweep.ext_collisions +
                      r.expired - 1) /
                         r.expired);
  } else {
    out.pcvs.set(t_, 0);
    out.pcvs.set(c_, 0);
  }
  return out;
}

ir::CallOutcome NatState::call_lookup_int(std::uint64_t, std::uint64_t,
                                          const net::Packet& pkt,
                                          ir::CostMeter& meter) {
  const net::FiveTuple tuple = parse_tuple(pkt, meter);
  // touch: traffic keeps the mapping alive (stamp refresh on hit).
  const auto r = int_table_.touch(tuple.key(), pkt.timestamp_ns(), meter);
  ir::CallOutcome out;
  out.v0 = r.found ? 1 : 0;
  out.v1 = r.value;
  out.case_label = r.found ? "hit" : "miss";
  out.pcvs.set(c_, r.stats.collisions);
  out.pcvs.set(t_, r.stats.traversals);
  return out;
}

ir::CallOutcome NatState::call_lookup_ext(std::uint64_t, std::uint64_t,
                                          const net::Packet& pkt,
                                          ir::CostMeter& meter) {
  const net::FiveTuple tuple = parse_tuple(pkt, meter);
  const auto r = ext_table_.get(tuple.dst_port, meter);
  ir::CallOutcome out;
  out.v0 = r.found ? 1 : 0;
  out.v1 = r.value;  // (internal ip << 16) | internal port
  out.case_label = r.found ? "hit" : "miss";
  out.pcvs.set(c_, r.stats.collisions);
  out.pcvs.set(t_, r.stats.traversals);
  return out;
}

ir::CallOutcome NatState::call_add_flow(std::uint64_t, std::uint64_t,
                                        const net::Packet& pkt,
                                        ir::CostMeter& meter) {
  const net::FiveTuple tuple = parse_tuple(pkt, meter);
  ir::CallOutcome out;
  meter.metered_instructions(cost::kOccupancyCheck);
  meter.mem_read(ir::kArenaBase, 8);
  if (int_table_.occupancy() == int_table_.capacity()) {
    out.v0 = 0;
    out.case_label = "full";
    out.pcvs.set(c_, 0);
    out.pcvs.set(t_, 0);
    return out;
  }
  const auto alloc = allocator_->alloc(meter);
  BOLT_CHECK(alloc.ok, "allocator exhausted before table filled");
  const std::uint64_t now = pkt.timestamp_ns();
  const auto put_int = int_table_.put(tuple.key(), alloc.port, now, meter);
  const std::uint64_t reverse_value =
      (std::uint64_t(tuple.src_ip.value) << 16) | tuple.src_port;
  const auto put_ext = ext_table_.put(alloc.port, reverse_value, now, meter);
  BOLT_CHECK(put_int.outcome == FlowTable::PutCase::kNew &&
                 put_ext.outcome == FlowTable::PutCase::kNew,
             "NAT add_flow raced with existing mapping");
  out.v0 = 1;
  out.v1 = alloc.port;
  out.case_label = "ok";
  out.pcvs.set(c_, std::max(put_int.stats.collisions,
                            put_ext.stats.collisions));
  out.pcvs.set(t_, std::max(put_int.stats.traversals,
                            put_ext.stats.traversals));
  out.pcvs.set(s_, alloc.probes);
  return out;
}

MethodTable NatState::method_table(perf::PcvRegistry& reg,
                                   const Config& config) {
  const FlowPcvs p = FlowPcvs::standard(reg);
  const perf::PcvId s = reg.require(pcv::kAllocProbes);
  const bool use_b = config.allocator == AllocatorKind::kB;

  auto make = [](std::int64_t instr, std::int64_t ma, std::int64_t unique) {
    CostShape out;
    out.exprs.set(Metric::kInstructions, PerfExpr::constant(instr));
    out.exprs.set(Metric::kMemoryAccesses, PerfExpr::constant(ma));
    out.unique_lines = PerfExpr::constant(unique);
    return out;
  };

  MethodTable table;

  {  // expire: per-eviction extra = reverse-map erase fixed part + port free
    MethodSpec spec;
    spec.name = "nat.expire";
    spec.model = [](symbex::SymbolTable& symbols, const symbex::ExprPtr&,
                    const symbex::ExprPtr&) {
      return std::vector<symbex::ModelOutcome>{
          symbex::fresh_value_outcome(symbols, "expire", "nat.expired", 32)};
    };
    const CostShape free_cost = use_b ? free_b_cost() : free_a_cost();
    // Reverse-map erase fixed part: bucket read + final key read + unlink +
    // stamp write; the walk itself folds into the combined e*t / e*c terms.
    const CostShape evict_extra =
        make(static_cast<std::int64_t>(cost::kHash + cost::kBucketHead +
                                       cost::kExpirePer),
             4, 2) +
        free_cost;
    spec.contract = perf::MethodContract("nat.expire");
    add_case(spec.contract, "expire", ft_expire(p, &evict_extra));
    table.emplace(kExpire, std::move(spec));
  }

  auto lookup_spec = [&](const char* name, const char* ret_name,
                         bool refreshes) {
    MethodSpec spec;
    spec.name = name;
    std::string ret = ret_name;
    spec.model = [ret](symbex::SymbolTable& symbols, const symbex::ExprPtr&,
                       const symbex::ExprPtr&) {
      std::vector<symbex::ModelOutcome> outs;
      symbex::ModelOutcome hit;
      hit.case_label = "hit";
      hit.ret0 = symbex::Expr::constant(1);
      hit.ret1 = symbex::Expr::symbol(symbols.fresh(ret, 48));
      outs.push_back(std::move(hit));
      symbex::ModelOutcome miss;
      miss.case_label = "miss";
      miss.ret0 = symbex::Expr::constant(0);
      outs.push_back(std::move(miss));
      return outs;
    };
    spec.contract = perf::MethodContract(name);
    add_case(spec.contract, "hit",
             parse_flow_cost() + (refreshes ? ft_touch_hit(p) : ft_get_hit(p)));
    add_case(spec.contract, "miss", parse_flow_cost() + ft_get_miss(p));
    return spec;
  };
  table.emplace(kLookupInt, lookup_spec("nat.lookup_int", "nat.ext_port", true));
  table.emplace(kLookupExt,
                lookup_spec("nat.lookup_ext", "nat.int_endpoint", false));

  {  // add_flow
    MethodSpec spec;
    spec.name = "nat.add_flow";
    spec.model = [](symbex::SymbolTable& symbols, const symbex::ExprPtr&,
                    const symbex::ExprPtr&) {
      std::vector<symbex::ModelOutcome> outs;
      symbex::ModelOutcome ok;
      ok.case_label = "ok";
      ok.ret0 = symbex::Expr::constant(1);
      ok.ret1 = symbex::Expr::symbol(symbols.fresh("nat.new_ext_port", 16));
      outs.push_back(std::move(ok));
      symbex::ModelOutcome full;
      full.case_label = "full";
      full.ret0 = symbex::Expr::constant(0);
      outs.push_back(std::move(full));
      return outs;
    };
    const CostShape alloc_cost = use_b ? alloc_b_cost(s) : alloc_a_cost();
    // Two put-new walks share the t/c PCVs (bound to the max of the two
    // walks by the implementation), so each contributes a full term.
    spec.contract = perf::MethodContract("nat.add_flow");
    add_case(spec.contract, "ok",
             parse_flow_cost() +
                 make(static_cast<std::int64_t>(cost::kOccupancyCheck), 1, 1) +
                 alloc_cost + ft_put_new(p) + ft_put_new(p));
    add_case(spec.contract, "full",
             parse_flow_cost() +
                 make(static_cast<std::int64_t>(cost::kOccupancyCheck), 1, 1));
    table.emplace(kAddFlow, std::move(spec));
  }

  return table;
}

void NatState::synthesize_pathological(std::uint64_t probe_key,
                                       std::size_t count,
                                       std::uint64_t stamp_ns) {
  // Entry i maps to external port (first_external_port + i); pair each with
  // a reverse mapping and an actually-allocated port so eviction behaves
  // exactly as after a real packet history.
  int_table_.synthesize_colliding_state(count, probe_key, stamp_ns,
                                        config_.first_external_port);
  ext_table_.clear();
  ir::CostMeter silent;
  for (std::size_t idx = 0; idx < count; ++idx) {
    const auto alloc = allocator_->alloc(silent);
    BOLT_CHECK(alloc.ok && alloc.port == config_.first_external_port + idx,
               "synthesis: allocator state not fresh");
    ext_table_.put(alloc.port, /*reverse=*/idx, stamp_ns, silent);
  }
}

}  // namespace bolt::dslib
