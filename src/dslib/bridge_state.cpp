#include "dslib/bridge_state.h"

#include "dslib/contract_exprs.h"
#include "support/assert.h"

namespace bolt::dslib {

using perf::MetricExprs;

BridgeState::BridgeState(const MacTable::Config& config,
                         perf::PcvRegistry& reg)
    : mac_(config) {
  intern_standard_pcvs(reg);
  c_ = reg.require(pcv::kCollisions);
  t_ = reg.require(pcv::kTraversals);
  e_ = reg.require(pcv::kExpired);
  o_ = reg.require(pcv::kOccupancy);
}

void BridgeState::bind(DispatchEnv& env) {
  env.register_method<&BridgeState::call_expire>(kExpire, this);
  env.register_method<&BridgeState::call_learn>(kLearn, this);
  env.register_method<&BridgeState::call_lookup>(kLookup, this);
}

ir::CallOutcome BridgeState::call_expire(std::uint64_t, std::uint64_t,
                                         const net::Packet& pkt,
                                         ir::CostMeter& meter) {
  const auto r = mac_.expire(pkt.timestamp_ns(), meter);
  ir::CallOutcome out;
  out.v0 = r.expired;
  out.case_label = "expire";
  out.pcvs.set(e_, r.expired);
  out.pcvs.set(t_, r.amortised_walk);
  out.pcvs.set(c_, r.amortised_collisions);
  return out;
}

ir::CallOutcome BridgeState::call_learn(std::uint64_t mac, std::uint64_t port,
                                        const net::Packet& pkt,
                                        ir::CostMeter& meter) {
  const auto r = mac_.learn(mac, static_cast<std::uint16_t>(port),
                            pkt.timestamp_ns(), meter);
  ir::CallOutcome out;
  switch (r.outcome) {
    case MacTable::LearnCase::kKnown: out.case_label = "known"; break;
    case MacTable::LearnCase::kNew: out.case_label = "new"; break;
    case MacTable::LearnCase::kRehash: out.case_label = "rehash"; break;
    case MacTable::LearnCase::kFull: out.case_label = "full"; break;
  }
  out.pcvs.set(c_, r.stats.collisions);
  out.pcvs.set(t_, r.stats.traversals);
  if (r.outcome == MacTable::LearnCase::kRehash) {
    out.pcvs.set(o_, r.occupancy);
  }
  return out;
}

ir::CallOutcome BridgeState::call_lookup(std::uint64_t mac, std::uint64_t,
                                         const net::Packet&,
                                         ir::CostMeter& meter) {
  const auto r = mac_.lookup(mac, meter);
  ir::CallOutcome out;
  out.v0 = r.found ? 1 : 0;
  out.v1 = r.port;
  out.case_label = r.found ? "hit" : "miss";
  out.pcvs.set(c_, r.stats.collisions);
  out.pcvs.set(t_, r.stats.traversals);
  return out;
}

MethodTable BridgeState::method_table(perf::PcvRegistry& reg,
                                      const MacTable::Config& config) {
  const FlowPcvs p = FlowPcvs::standard(reg);
  MethodTable table;

  {  // expire
    MethodSpec spec;
    spec.name = "bridge.expire";
    spec.model = [](symbex::SymbolTable& symbols, const symbex::ExprPtr&,
                    const symbex::ExprPtr&) {
      return std::vector<symbex::ModelOutcome>{
          symbex::fresh_value_outcome(symbols, "expire", "bridge.expired", 32)};
    };
    spec.contract = perf::MethodContract("bridge.expire");
    add_case(spec.contract, "expire", ft_expire(p));
    table.emplace(kExpire, std::move(spec));
  }

  {  // learn
    MethodSpec spec;
    spec.name = "bridge.learn";
    spec.model = [](symbex::SymbolTable&, const symbex::ExprPtr&,
                    const symbex::ExprPtr&) {
      std::vector<symbex::ModelOutcome> outs(4);
      outs[0].case_label = "known";
      outs[1].case_label = "new";
      outs[2].case_label = "rehash";
      outs[3].case_label = "full";
      return outs;
    };
    spec.contract = perf::MethodContract("bridge.learn");
    add_case(spec.contract, "known", ft_put_update(p));
    add_case(spec.contract, "new", ft_put_new(p));
    add_case(spec.contract, "rehash",
             ft_put_new(p) + mac_rehash_extra(p, config.capacity));
    add_case(spec.contract, "full", ft_put_full(p));
    table.emplace(kLearn, std::move(spec));
  }

  {  // lookup
    MethodSpec spec;
    spec.name = "bridge.lookup";
    spec.model = [](symbex::SymbolTable& symbols, const symbex::ExprPtr&,
                    const symbex::ExprPtr&) {
      std::vector<symbex::ModelOutcome> outs;
      symbex::ModelOutcome hit;
      hit.case_label = "hit";
      hit.ret0 = symbex::Expr::constant(1);
      hit.ret1 = symbex::Expr::symbol(symbols.fresh("bridge.out_port", 16));
      outs.push_back(std::move(hit));
      symbex::ModelOutcome miss;
      miss.case_label = "miss";
      miss.ret0 = symbex::Expr::constant(0);
      outs.push_back(std::move(miss));
      return outs;
    };
    spec.contract = perf::MethodContract("bridge.lookup");
    add_case(spec.contract, "hit", ft_get_hit(p));
    add_case(spec.contract, "miss", ft_get_miss(p));
    table.emplace(kLookup, std::move(spec));
  }

  return table;
}

void BridgeState::synthesize_pathological(std::uint64_t probe_mac,
                                          std::size_t count,
                                          std::uint64_t stamp_ns) {
  mac_.raw_table().synthesize_colliding_state(count, probe_mac, stamp_ns);
}

}  // namespace bolt::dslib
