#include "dslib/lpm_state.h"

#include "dslib/costs.h"

namespace bolt::dslib {

using perf::Metric;
using perf::MetricExprs;
using perf::PerfExpr;

LpmTrieState::LpmTrieState(perf::PcvRegistry& reg) {
  intern_standard_pcvs(reg);
  l_ = reg.require(pcv::kPrefixLen);
}

void LpmTrieState::bind(DispatchEnv& env) {
  env.register_method<&LpmTrieState::call_lookup>(kLookup, this);
}

ir::CallOutcome LpmTrieState::call_lookup(std::uint64_t addr, std::uint64_t,
                                          const net::Packet&,
                                          ir::CostMeter& meter) {
  const auto r = trie_.lookup(static_cast<std::uint32_t>(addr), meter);
  ir::CallOutcome out;
  out.v0 = r.port;
  out.case_label = "lookup";
  out.pcvs.set(l_, r.matched_length);
  return out;
}

MethodTable LpmTrieState::method_table(perf::PcvRegistry& reg) {
  intern_standard_pcvs(reg);
  const perf::PcvId l = reg.require(pcv::kPrefixLen);

  MethodTable table;
  MethodSpec spec;
  spec.name = "lpm.get";
  spec.model = [](symbex::SymbolTable& symbols, const symbex::ExprPtr&,
                  const symbex::ExprPtr&) {
    // Algorithm 3: lpmGet returns <new symbol>. One abstract case.
    return std::vector<symbex::ModelOutcome>{
        symbex::fresh_value_outcome(symbols, "lookup", "lpm.port", 16)};
  };
  // Table 2: 4*l + 2 instructions, l + 1 memory accesses.
  MetricExprs exprs;
  exprs.set(Metric::kInstructions,
            PerfExpr::pcv(l).scaled(cost::kTrieStepHi) +
                PerfExpr::constant(cost::kTrieFixed));
  exprs.set(Metric::kMemoryAccesses,
            PerfExpr::pcv(l) + PerfExpr::constant(1));
  spec.contract = perf::MethodContract("lpm.get");
  spec.contract.add_case("lookup", exprs);
  // Every trie node sits on its own line: all accesses are unique.
  spec.contract.set_unique_lines("lookup",
                                 PerfExpr::pcv(l) + PerfExpr::constant(1));
  table.emplace(kLookup, std::move(spec));
  return table;
}

LpmDirState::LpmDirState(perf::PcvRegistry& reg) { intern_standard_pcvs(reg); }

void LpmDirState::bind(DispatchEnv& env) {
  env.register_method<&LpmDirState::call_lookup>(kLookup, this);
}

ir::CallOutcome LpmDirState::call_lookup(std::uint64_t addr, std::uint64_t,
                                         const net::Packet&,
                                         ir::CostMeter& meter) {
  const auto r = table_.lookup(static_cast<std::uint32_t>(addr), meter);
  ir::CallOutcome out;
  out.v0 = r.port;
  out.case_label = r.tier == LpmDir24_8::LookupCase::kOneLookup
                       ? "one_lookup"
                       : "two_lookups";
  return out;
}

MethodTable LpmDirState::method_table(perf::PcvRegistry& reg) {
  intern_standard_pcvs(reg);
  MethodTable table;
  MethodSpec spec;
  spec.name = "lpm_dir.get";
  spec.model = [](symbex::SymbolTable& symbols, const symbex::ExprPtr&,
                  const symbex::ExprPtr&) {
    std::vector<symbex::ModelOutcome> outs;
    outs.push_back(symbex::fresh_value_outcome(symbols, "one_lookup",
                                               "lpm_dir.port", 16));
    outs.push_back(symbex::fresh_value_outcome(symbols, "two_lookups",
                                               "lpm_dir.port2", 16));
    return outs;
  };
  auto exprs = [](std::int64_t instr, std::int64_t ma) {
    MetricExprs out;
    out.set(Metric::kInstructions, PerfExpr::constant(instr));
    out.set(Metric::kMemoryAccesses, PerfExpr::constant(ma));
    return out;
  };
  spec.contract = perf::MethodContract("lpm_dir.get");
  spec.contract.add_case("one_lookup", exprs(cost::kDir24Lookup, 1));
  spec.contract.add_case(
      "two_lookups", exprs(cost::kDir24Lookup + cost::kDir8Lookup, 2));
  spec.contract.set_unique_lines("one_lookup", PerfExpr::constant(1));
  spec.contract.set_unique_lines("two_lookups", PerfExpr::constant(2));
  table.emplace(kLookup, std::move(spec));
  return table;
}

}  // namespace bolt::dslib
