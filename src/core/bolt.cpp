#include "core/bolt.h"

#include <algorithm>

#include "core/classkey.h"
#include "core/runner.h"
#include "support/assert.h"

namespace bolt::core {

using perf::Metric;
using perf::MetricExprs;
using perf::PerfExpr;

namespace {

/// Replays a path: stateful calls return the solver-chosen concrete values
/// in call order, at zero metered cost (the contracts price them instead).
class ReplayEnv final : public ir::StatefulEnv {
 public:
  explicit ReplayEnv(const symbex::PathResult& path) : path_(path) {}

  ir::CallOutcome call(std::int64_t method, std::uint64_t, std::uint64_t,
                       const net::Packet&, ir::CostMeter&) override {
    BOLT_CHECK(next_ < path_.calls.size(), "replay: extra stateful call");
    const symbex::PathCall& c = path_.calls[next_++];
    BOLT_CHECK(c.method == method, "replay: stateful call order diverged");
    ir::CallOutcome out;
    out.v0 = c.ret0->eval(path_.model);
    out.v1 = c.ret1->eval(path_.model);
    out.case_label = c.case_label.c_str();  // path_ outlives the interning
    return out;
  }

  std::size_t calls_made() const { return next_; }

 private:
  const symbex::PathResult& path_;
  std::size_t next_ = 0;
};

std::vector<std::pair<std::string, std::string>> call_cases_of(
    const symbex::PathResult& path, const dslib::MethodTable& methods) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(path.calls.size());
  for (const symbex::PathCall& c : path.calls) {
    auto it = methods.find(c.method);
    BOLT_CHECK(it != methods.end(), "path calls unknown method");
    out.emplace_back(it->second.name, c.case_label);
  }
  return out;
}

}  // namespace

net::Packet packet_from_path(const symbex::PathResult& path) {
  BOLT_CHECK(path.solved, "cannot build a packet for an unsolved path");
  std::uint64_t len = 60;
  for (const symbex::PacketField& f : path.fields) {
    len = std::max(len, f.offset + f.width);
  }
  if (path.has_len_sym) {
    auto it = path.model.find(path.len_sym);
    if (it != path.model.end()) len = std::max(len, it->second);
  }
  std::vector<std::uint8_t> bytes(len, 0);
  for (const symbex::PacketField& f : path.fields) {
    auto it = path.model.find(f.sym);
    std::uint64_t v = it != path.model.end() ? it->second : 0;
    for (int i = f.width - 1; i >= 0; --i) {
      bytes[f.offset + std::size_t(i)] = static_cast<std::uint8_t>(v & 0xff);
      v >>= 8;
    }
  }
  net::TimestampNs ts = 1'000'000'000ULL;
  if (path.has_time_sym) {
    auto it = path.model.find(path.time_sym);
    if (it != path.model.end()) ts = it->second;
  }
  std::uint16_t port = 0;
  if (path.has_port_sym) {
    auto it = path.model.find(path.port_sym);
    if (it != path.model.end()) port = static_cast<std::uint16_t>(it->second);
  }
  return net::Packet(std::move(bytes), ts, port);
}

ContractGenerator::ContractGenerator(perf::PcvRegistry& reg,
                                     BoltOptions options)
    : reg_(reg), options_(std::move(options)) {}

GenerationResult ContractGenerator::generate(const NfAnalysis& nf) {
  BOLT_CHECK(nf.methods != nullptr, "NfAnalysis needs a method table");
  GenerationResult result;
  result.contract = perf::Contract(nf.name);

  // 1) Substitute models (Alg. 2 line 2) and explore all paths (line 3).
  //    The executor returns paths canonicalized (sorted, symbols
  //    renumbered), so everything downstream follows the canonical order.
  std::map<std::int64_t, symbex::SymbolicModel> models;
  for (const auto& [id, spec] : *nf.methods) models.emplace(id, spec.model);
  symbex::Executor executor(nf.programs, std::move(models), options_.executor);
  std::vector<symbex::PathResult> paths = executor.run();
  result.executor_stats = executor.stats();
  result.total_paths = paths.size();

  // 2) Solve for concrete inputs (line 6), one solve per path.
  executor.solve_inputs(paths);

  // 3) Replay each path and assemble its expressions (lines 7-15), in
  //    canonical path order. One conservative cycle model serves every
  //    path: begin_packet() resets its analysis in O(1) (epoch clear).
  const hw::CycleCosts& cc = options_.cycle_costs;
  hw::ConservativeModel cycles_model(cc);
  result.path_reports.resize(paths.size());
  for (std::size_t path_index = 0; path_index < paths.size(); ++path_index) {
    const symbex::PathResult& path = paths[path_index];
    PathReport& report = result.path_reports[path_index];
    report.action = path.action;
    report.loop_trips = path.loop_trips;
    report.class_key = class_key(path.class_tags, call_cases_of(path, *nf.methods));
    if (!path.solved) {
      ++result.unsolved_paths;
      continue;
    }
    report.solved = true;

    net::Packet packet = packet_from_path(path);
    report.input = packet;  // keep the pristine witness (the replay mutates)
    ReplayEnv env(path);
    ir::InterpreterOptions iopts;
    nf::apply_framework(iopts, options_.framework);
    iopts.sink = &cycles_model;
    iopts.scratch_init = options_.executor.scratch_init;
    NfRunner runner(nf.programs, &env, iopts);
    cycles_model.begin_packet();
    const ir::RunResult run = runner.process(packet);

    // The replay must follow exactly the symbolic path.
    BOLT_CHECK(env.calls_made() == path.calls.size(),
               nf.name + ": replay diverged (call count)");
    BOLT_CHECK(run.class_tag_names() == path.class_tags,
               nf.name + ": replay diverged (class tags)");
    BOLT_CHECK(run.loop_trips_map() == path.loop_trips,
               nf.name + ": replay diverged (loop trips)");

    report.stateless_instructions = run.instructions;
    report.stateless_accesses = run.mem_accesses;
    report.stateless_cycles = cycles_model.packet_cycles();

    PerfExpr instr = PerfExpr::constant(
        static_cast<std::int64_t>(report.stateless_instructions));
    PerfExpr ma = PerfExpr::constant(
        static_cast<std::int64_t>(report.stateless_accesses));
    PerfExpr cycles = PerfExpr::constant(
        static_cast<std::int64_t>(report.stateless_cycles));
    for (const symbex::PathCall& c : path.calls) {
      const perf::MethodContract& mc = nf.methods->at(c.method).contract;
      const MetricExprs& case_exprs = mc.for_case(c.case_label);
      instr += case_exprs.get(Metric::kInstructions);
      ma += case_exprs.get(Metric::kMemoryAccesses);
      // Conservative cycles for stateful code: worst-case ALU cost per
      // instruction; main-memory latency for every *unique-line* access
      // and L1 latency for the same-line repeats the method contract can
      // prove (paper §3.5's spatial/temporal locality tracking).
      const PerfExpr& unique = mc.unique_lines(c.case_label);
      const PerfExpr repeats =
          case_exprs.get(Metric::kMemoryAccesses) + unique.scaled(-1);
      cycles += case_exprs.get(Metric::kInstructions)
                    .scaled(static_cast<std::int64_t>(cc.cons_alu));
      cycles += unique.scaled(static_cast<std::int64_t>(cc.cons_dram));
      cycles += repeats.scaled(static_cast<std::int64_t>(cc.cons_l1));
    }
    report.exprs.set(Metric::kInstructions, std::move(instr));
    report.exprs.set(Metric::kMemoryAccesses, std::move(ma));
    report.exprs.set(Metric::kCycles, std::move(cycles));
  }

  // 4) Group paths into input classes and coalesce (paper §3.2/§6). This
  //    merge is sequential and deterministic: reports arrive in canonical
  //    path order and groups iterate sorted by class key.
  std::map<std::string, std::vector<const PathReport*>> groups;
  for (const PathReport& r : result.path_reports) {
    if (r.solved) groups[r.class_key].push_back(&r);
  }
  result.contract.reserve(options_.coalesce ? groups.size()
                                            : result.path_reports.size());

  for (const auto& [key, members] : groups) {
    if (!options_.coalesce) {
      std::size_t i = 0;
      for (const PathReport* r : members) {
        perf::ContractEntry entry;
        entry.input_class =
            members.size() == 1 ? key : key + " #" + std::to_string(i++);
        entry.perf = r->exprs;
        entry.paths_coalesced = 1;
        result.contract.add(std::move(entry));
      }
      continue;
    }

    perf::ContractEntry entry;
    entry.input_class = key;
    entry.paths_coalesced = members.size();

    // Loop linearisation: if the group's paths differ in the trip count of
    // exactly one loop, fold them into an expression linear in that count.
    std::int64_t varying_loop = -1;
    bool linearizable = options_.linearize_loops && members.size() >= 2;
    if (linearizable) {
      std::map<std::int64_t, std::vector<std::uint64_t>> trips_by_loop;
      for (const PathReport* r : members) {
        for (const auto& [loop, trips] : r->loop_trips) {
          trips_by_loop[loop].push_back(trips);
        }
      }
      for (const auto& [loop, values] : trips_by_loop) {
        const bool varies = *std::min_element(values.begin(), values.end()) !=
                            *std::max_element(values.begin(), values.end());
        if (varies) {
          if (varying_loop != -1) {
            linearizable = false;  // more than one varying loop: bail out
            break;
          }
          varying_loop = loop;
        }
      }
      if (varying_loop == -1) linearizable = false;
    }

    if (linearizable) {
      // PCV named after the loop (e.g. the static router's "n").
      const std::size_t prog_index =
          static_cast<std::size_t>(varying_loop / 1000);
      const std::size_t loop_imm = static_cast<std::size_t>(varying_loop % 1000);
      const std::string& loop_name = nf.programs[prog_index]->loops[loop_imm];
      const perf::PcvId n =
          reg_.intern(loop_name, "loop trip count (" + loop_name + ")");

      for (Metric m : perf::kAllMetrics) {
        // Points: trips -> worst constant term among paths with that count.
        // The non-constant (stateful) parts are upper-maxed separately.
        std::map<std::uint64_t, std::int64_t> worst_const;
        PerfExpr stateful_part;
        for (const PathReport* r : members) {
          const PerfExpr& e = r->exprs.get(m);
          auto it = r->loop_trips.find(varying_loop);
          const std::uint64_t trips = it == r->loop_trips.end() ? 0 : it->second;
          const std::int64_t c = e.constant_term();
          auto [wit, inserted] = worst_const.emplace(trips, c);
          if (!inserted) wit->second = std::max(wit->second, c);
          PerfExpr rest = e + PerfExpr::constant(-c);
          stateful_part = PerfExpr::upper_max(stateful_part, rest);
        }
        // Conservative affine fit: slope = max forward difference,
        // intercept = max(value - slope * trips).
        std::int64_t slope = 0;
        const auto first = worst_const.begin();
        for (auto it = std::next(first); it != worst_const.end(); ++it) {
          const auto prev = std::prev(it);
          const std::int64_t dv = it->second - prev->second;
          const std::int64_t dn =
              static_cast<std::int64_t>(it->first - prev->first);
          slope = std::max(slope, (dv + dn - 1) / dn);  // ceil division
        }
        std::int64_t intercept = 0;
        for (const auto& [trips, value] : worst_const) {
          intercept = std::max(
              intercept, value - slope * static_cast<std::int64_t>(trips));
        }
        PerfExpr folded = stateful_part +
                          PerfExpr::pcv(n).scaled(slope) +
                          PerfExpr::constant(intercept);
        entry.perf.set(m, std::move(folded));
      }
    } else {
      MetricExprs merged = members.front()->exprs;
      for (std::size_t i = 1; i < members.size(); ++i) {
        merged = MetricExprs::upper_max(merged, members[i]->exprs);
      }
      entry.perf = merged;
    }
    result.contract.add(std::move(entry));
  }

  return result;
}

}  // namespace bolt::core
