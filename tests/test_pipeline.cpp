// End-to-end tests of the BOLT pipeline: symbolic execution -> solving ->
// replay -> contract assembly, and the paper's essential property — for any
// real execution, measured cost <= contract prediction at the induced PCVs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>

#include "core/bolt.h"
#include "core/distiller.h"
#include "core/scenarios.h"
#include "net/packet_builder.h"
#include "net/workload.h"
#include "nf/firewall.h"
#include "nf/micro.h"

namespace bolt::core {
namespace {

using perf::Metric;

BoltOptions quiet_options() {
  BoltOptions opts;
  opts.framework = nf::framework_full();
  return opts;
}

TEST(Pipeline, SimpleLpmContractHasTable1Shape) {
  perf::PcvRegistry reg;
  const NfInstance router = make_simple_lpm(reg);
  BoltOptions opts = quiet_options();
  opts.framework = nf::framework_none();  // the running example ignores DPDK
  ContractGenerator gen(reg, opts);
  const GenerationResult result = gen.generate(router.analysis());

  EXPECT_EQ(result.total_paths, 2u);
  EXPECT_EQ(result.unsolved_paths, 0u);

  // Valid packets: linear in l; invalid: constant.
  const auto* valid = result.contract.find("valid | lpm.get=lookup");
  ASSERT_NE(valid, nullptr);
  const perf::PcvId l = reg.require("l");
  const auto& instr = valid->perf.get(Metric::kInstructions);
  EXPECT_EQ(instr.coefficient(perf::Monomial::pcv(l)), 4);
  EXPECT_GT(instr.constant_term(), 0);

  const auto* invalid = result.contract.find("invalid");
  ASSERT_NE(invalid, nullptr);
  EXPECT_TRUE(invalid->perf.get(Metric::kInstructions).is_constant());
  // Invalid is cheaper than valid at any l.
  perf::PcvBinding bind;
  bind.set(l, 0);
  EXPECT_LT(invalid->perf.get(Metric::kInstructions).eval(bind),
            valid->perf.get(Metric::kInstructions).eval(bind));
}

TEST(Pipeline, BridgeContractCoversAllClasses) {
  perf::PcvRegistry reg;
  const auto cfg = default_bridge_config();
  const NfInstance bridge = make_bridge(reg, cfg);
  ContractGenerator gen(reg, quiet_options());
  const GenerationResult result = gen.generate(bridge.analysis());

  // 4 learn cases x (broadcast + unicast hit + unicast miss) = 12 paths.
  EXPECT_EQ(result.total_paths, 12u);
  EXPECT_EQ(result.unsolved_paths, 0u);
  EXPECT_EQ(result.contract.entries().size(), 12u);

  // The Table 4 rows exist and have the cross terms.
  const auto* rehash = result.contract.find(
      "broadcast | bridge.expire=expire,bridge.learn=rehash");
  ASSERT_NE(rehash, nullptr);
  const perf::PcvId t = reg.require("t");
  const perf::PcvId o = reg.require("o");
  const auto to = perf::Monomial::pcv(t) * perf::Monomial::pcv(o);
  EXPECT_GT(rehash->perf.get(Metric::kInstructions).coefficient(to), 0);

  const auto* known = result.contract.find(
      "broadcast | bridge.expire=expire,bridge.learn=known");
  ASSERT_NE(known, nullptr);
  const perf::PcvId e = reg.require("e");
  const perf::PcvId c = reg.require("c");
  const auto ec = perf::Monomial::pcv(e) * perf::Monomial::pcv(c);
  EXPECT_GT(known->perf.get(Metric::kInstructions).coefficient(ec), 0);
}

// The central soundness/accuracy experiment in miniature: run traffic, then
// check measured IC/MA against the per-packet contract prediction.
class PredictionAccuracyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PredictionAccuracyTest, BridgePredictionsAreSoundAndTight) {
  perf::PcvRegistry reg;
  const auto cfg = default_bridge_config();
  const NfInstance bridge = make_bridge(reg, cfg);
  ContractGenerator gen(reg, quiet_options());
  const GenerationResult result = gen.generate(bridge.analysis());

  auto runner = bridge.make_runner();
  Distiller distiller(*runner, nullptr, &bridge.methods);
  net::BridgeSpec spec;
  spec.seed = GetParam();
  spec.packet_count = 3000;
  spec.stations = 300;
  spec.broadcast_fraction = 0.1;
  auto packets = net::bridge_traffic(spec);
  const DistillerReport report = distiller.run(packets);

  std::uint64_t checked = 0;
  for (const PacketRecord& rec : report.records) {
    const auto* entry = result.contract.find(rec.class_key);
    ASSERT_NE(entry, nullptr) << "no contract entry for " << rec.class_key;
    const std::int64_t pred_i =
        entry->perf.get(Metric::kInstructions).eval(rec.pcvs);
    const std::int64_t pred_m =
        entry->perf.get(Metric::kMemoryAccesses).eval(rec.pcvs);
    ASSERT_GE(pred_i, static_cast<std::int64_t>(rec.instructions))
        << rec.class_key;
    ASSERT_GE(pred_m, static_cast<std::int64_t>(rec.mem_accesses))
        << rec.class_key;
    // Paper: max over-estimation ~7%. Give some slack on tiny packets.
    EXPECT_LE(static_cast<double>(pred_i),
              1.10 * static_cast<double>(rec.instructions) + 30);
    EXPECT_LE(static_cast<double>(pred_m),
              1.12 * static_cast<double>(rec.mem_accesses) + 12);
    ++checked;
  }
  EXPECT_EQ(checked, spec.packet_count);
}

TEST_P(PredictionAccuracyTest, NatPredictionsAreSoundAndTight) {
  perf::PcvRegistry reg;
  const auto cfg = default_nat_config();
  const NfInstance nat = make_nat(reg, cfg);
  ContractGenerator gen(reg, quiet_options());
  const GenerationResult result = gen.generate(nat.analysis());
  EXPECT_EQ(result.unsolved_paths, 0u);

  auto runner = nat.make_runner();
  Distiller distiller(*runner, nullptr, &nat.methods);
  net::ChurnSpec spec;
  spec.seed = GetParam();
  spec.packet_count = 3000;
  spec.active_flows = 400;
  spec.churn = 0.2;
  auto packets = net::churn_traffic(spec);
  const DistillerReport report = distiller.run(packets);

  for (const PacketRecord& rec : report.records) {
    const auto* entry = result.contract.find(rec.class_key);
    ASSERT_NE(entry, nullptr) << "no contract entry for " << rec.class_key;
    const std::int64_t pred_i =
        entry->perf.get(Metric::kInstructions).eval(rec.pcvs);
    const std::int64_t pred_m =
        entry->perf.get(Metric::kMemoryAccesses).eval(rec.pcvs);
    ASSERT_GE(pred_i, static_cast<std::int64_t>(rec.instructions))
        << rec.class_key;
    ASSERT_GE(pred_m, static_cast<std::int64_t>(rec.mem_accesses))
        << rec.class_key;
    EXPECT_LE(static_cast<double>(pred_i),
              1.10 * static_cast<double>(rec.instructions) + 40);
    EXPECT_LE(static_cast<double>(pred_m),
              1.15 * static_cast<double>(rec.mem_accesses) + 14);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredictionAccuracyTest,
                         ::testing::Values(11, 22, 33));

TEST(Pipeline, StaticRouterLoopLinearizes) {
  perf::PcvRegistry reg;
  const ir::Program router = nf::StaticRouter::program();
  dslib::MethodTable no_methods;
  NfAnalysis analysis;
  analysis.name = "static_router";
  analysis.programs = {&router};
  analysis.methods = &no_methods;
  ContractGenerator gen(reg, quiet_options());
  const GenerationResult result = gen.generate(analysis);

  EXPECT_EQ(result.unsolved_paths, 0u);
  // Branch-join pruning keeps the costlier option arm per word, so paths
  // grow with the word count, not with 2^words.
  EXPECT_LT(result.total_paths, 100u);

  const auto* options = result.contract.find("ip_options");
  ASSERT_NE(options, nullptr);
  EXPECT_GT(options->paths_coalesced, 1u);
  ASSERT_TRUE(reg.contains("n"));
  const perf::PcvId n = reg.require("n");
  const auto& instr = options->perf.get(Metric::kInstructions);
  EXPECT_GT(instr.coefficient(perf::Monomial::pcv(n)), 0);

  const auto* no_options = result.contract.find("no_options");
  ASSERT_NE(no_options, nullptr);
  EXPECT_TRUE(no_options->perf.get(Metric::kInstructions).is_constant());
}

// Brute-force oracle for the pruned router: every IHL 6..15 packet with
// every timestamp / non-timestamp pattern over its option words (2046
// packets), measured by the reference interpreter under the conservative
// cycle model. The contract must bound each one at its trip count, and the
// worst measured packet per trip count must be exactly the worst path the
// executor kept.
TEST(Pipeline, StaticRouterPrunedPathsMatchBruteForce) {
  perf::PcvRegistry reg;
  const ir::Program router = nf::StaticRouter::program();
  dslib::MethodTable no_methods;
  NfAnalysis analysis;
  analysis.name = "static_router";
  analysis.programs = {&router};
  analysis.methods = &no_methods;
  const BoltOptions opts = quiet_options();
  ContractGenerator gen(reg, opts);
  const GenerationResult result = gen.generate(analysis);
  const auto* options = result.contract.find("ip_options");
  ASSERT_NE(options, nullptr);
  const perf::PcvId n = reg.require("n");

  using Worst = std::array<std::uint64_t, 3>;  // IC, MA, cycles
  auto raise = [](Worst& w, std::uint64_t ic, std::uint64_t ma,
                  std::uint64_t cycles) {
    w = {std::max(w[0], ic), std::max(w[1], ma), std::max(w[2], cycles)};
  };
  std::map<std::uint64_t, Worst> kept;
  for (const PathReport& r : result.path_reports) {
    if (r.class_key != "ip_options") continue;
    ASSERT_EQ(r.loop_trips.size(), 1u);
    raise(kept[r.loop_trips.begin()->second], r.stateless_instructions,
          r.stateless_accesses, r.stateless_cycles);
  }

  hw::ConservativeModel model(opts.cycle_costs);
  ir::InterpreterOptions iopts;
  nf::apply_framework(iopts, opts.framework);
  iopts.engine = ir::EngineKind::kReference;
  iopts.sink = &model;
  NfRunner runner({&router}, nullptr, iopts);
  std::map<std::uint64_t, Worst> measured;
  std::size_t packets = 0;
  for (std::uint64_t ihl = 6; ihl <= 15; ++ihl) {
    const std::uint64_t words = ihl - 5;
    for (std::uint64_t pattern = 0; pattern < (1ULL << words); ++pattern) {
      std::array<std::uint8_t, 14 + 4 * 15> bytes{};  // room for 10 words
      bytes[12] = 0x08;  // IPv4
      bytes[14] = static_cast<std::uint8_t>(0x40 | ihl);
      bytes[22] = 64;  // TTL
      for (std::uint64_t w = 0; w < words; ++w) {
        bytes[34 + 4 * w] = (pattern >> w) & 1 ? 68 : 1;  // timestamp or NOP
      }
      net::Packet packet(std::vector<std::uint8_t>(bytes.begin(), bytes.end()),
                         1'000'000'000ULL, 0);
      model.begin_packet();
      const ir::RunResult run = runner.process(packet);
      ++packets;
      ASSERT_EQ(run.class_tag_names(), std::vector<std::string>{"ip_options"});
      const std::uint64_t trips = run.loop_trips_map().begin()->second;
      ASSERT_EQ(trips, words + 1);
      const std::uint64_t cycles = model.packet_cycles();
      raise(measured[trips], run.instructions, run.mem_accesses, cycles);

      perf::PcvBinding bind;
      bind.set(n, trips);
      EXPECT_GE(options->perf.get(Metric::kInstructions).eval(bind),
                static_cast<std::int64_t>(run.instructions));
      EXPECT_GE(options->perf.get(Metric::kMemoryAccesses).eval(bind),
                static_cast<std::int64_t>(run.mem_accesses));
      EXPECT_GE(options->perf.get(Metric::kCycles).eval(bind),
                static_cast<std::int64_t>(cycles));
    }
  }
  EXPECT_EQ(packets, 2046u);
  for (const auto& [trips, worst] : measured) {
    SCOPED_TRACE(trips);
    ASSERT_EQ(kept.count(trips), 1u);
    EXPECT_EQ(kept.at(trips), worst);
  }
}

TEST(Pipeline, ChainPrunesMaskedPaths) {
  perf::PcvRegistry reg;
  const ir::Program fw = nf::Firewall::program();
  const ir::Program router = nf::StaticRouter::program();
  dslib::MethodTable no_methods;

  NfAnalysis chain;
  chain.name = "fw+router";
  chain.programs = {&fw, &router};
  chain.methods = &no_methods;
  ContractGenerator gen(reg, quiet_options());
  const GenerationResult result = gen.generate(chain);
  EXPECT_EQ(result.unsolved_paths, 0u);

  // The firewall drops options packets, so no contract entry may combine a
  // firewall pass with router option processing.
  for (const auto& entry : result.contract.entries()) {
    const bool fw_pass =
        entry.input_class.find("firewall:no_options") != std::string::npos;
    const bool router_options =
        entry.input_class.find("static_router:ip_options") != std::string::npos;
    EXPECT_FALSE(fw_pass && router_options) << entry.input_class;
  }
}

TEST(Pipeline, AblationNoCoalesceKeepsPaths) {
  perf::PcvRegistry reg;
  const NfInstance bridge = make_bridge(reg, default_bridge_config());
  BoltOptions opts = quiet_options();
  opts.coalesce = false;
  ContractGenerator gen(reg, opts);
  const GenerationResult result = gen.generate(bridge.analysis());
  EXPECT_EQ(result.contract.entries().size(), result.total_paths);
}

TEST(Pipeline, MicroProgramsHaveOnePath) {
  perf::PcvRegistry reg;
  const auto scratch = nf::MicroTraversal::contiguous_list(64);
  const ir::Program p = nf::MicroTraversal::chase_program(64, scratch.size());
  dslib::MethodTable no_methods;
  NfAnalysis analysis;
  analysis.name = "p2";
  analysis.programs = {&p};
  analysis.methods = &no_methods;
  BoltOptions opts = quiet_options();
  opts.executor.max_loop_trips = 100'000;
  opts.executor.scratch_init = scratch;
  opts.framework = nf::framework_none();
  ContractGenerator gen(reg, opts);
  const GenerationResult result = gen.generate(analysis);
  ASSERT_EQ(result.total_paths, 1u);
  EXPECT_EQ(result.unsolved_paths, 0u);
  // Cycles prediction exists and is a constant.
  const auto& entry = result.contract.entries().front();
  EXPECT_TRUE(entry.perf.get(Metric::kCycles).is_constant());
  EXPECT_GT(entry.perf.get(Metric::kCycles).constant_term(), 0);
}

TEST(Pipeline, SymbexAndReplayAgreeOnStatelessCounts) {
  // Cross-validation of the two execution engines: the instruction and
  // memory-access counts the symbolic executor attributes to a path must
  // equal what the concrete interpreter measures when replaying the
  // solved input for that path.
  perf::PcvRegistry reg;
  const NfInstance nat = make_nat(reg, default_nat_config());
  std::map<std::int64_t, symbex::SymbolicModel> models;
  for (const auto& [id, spec] : nat.methods) models.emplace(id, spec.model);
  symbex::Executor ex({&nat.program}, std::move(models));
  auto paths = ex.run();
  ex.solve_inputs(paths);
  ASSERT_FALSE(paths.empty());
  for (const auto& path : paths) {
    ASSERT_TRUE(path.solved);
    net::Packet packet = packet_from_path(path);
    // Replay with a stub env returning the modelled values in order.
    class Stub final : public ir::StatefulEnv {
     public:
      explicit Stub(const symbex::PathResult& p) : path_(p) {}
      ir::CallOutcome call(std::int64_t method, std::uint64_t, std::uint64_t,
                           const net::Packet&, ir::CostMeter&) override {
        const auto& c = path_.calls.at(next_++);
        EXPECT_EQ(c.method, method);
        ir::CallOutcome out;
        out.v0 = c.ret0->eval(path_.model);
        out.v1 = c.ret1->eval(path_.model);
        out.case_label = c.case_label.c_str();
        return out;
      }
      const symbex::PathResult& path_;
      std::size_t next_ = 0;
    } stub(path);
    ir::Interpreter interp(nat.program, &stub);
    const ir::RunResult run = interp.run(packet);
    EXPECT_EQ(run.stateless_instructions, path.symbex_instructions);
    EXPECT_EQ(run.stateless_accesses, path.symbex_accesses);
    EXPECT_EQ(run.class_tag_names(), path.class_tags);
  }
}

TEST(Pipeline, ContractEntriesCoverLinearizedLoopBindings) {
  // The static router's folded "25*n + 224"-style entry must dominate the
  // per-n measured costs for every option count.
  perf::PcvRegistry reg;
  const ir::Program router = nf::StaticRouter::program();
  dslib::MethodTable no_methods;
  NfAnalysis analysis{"static_router", {&router}, &no_methods};
  ContractGenerator gen(reg, quiet_options());
  const GenerationResult result = gen.generate(analysis);
  const auto* options = result.contract.find("ip_options");
  ASSERT_NE(options, nullptr);
  const perf::PcvId n = reg.require("n");

  ir::InterpreterOptions iopts;
  nf::apply_framework(iopts, nf::framework_full());
  ir::Interpreter interp(router, nullptr, iopts);
  for (int words = 1; words <= 10; ++words) {
    net::PacketBuilder b;
    b.ipv4(net::Ipv4Address::from_octets(1, 2, 3, 4),
           net::Ipv4Address::from_octets(5, 6, 7, 8));
    for (int w = 0; w < words; ++w) b.ip_timestamp_option(0);  // 4B each
    b.udp(1, 2).timestamp_ns(1'000'000'000);
    net::Packet pkt = b.build();
    const ir::RunResult run = interp.run(pkt);
    ASSERT_EQ(run.class_label(), "ip_options");
    perf::PcvBinding bind;
    // Loop trips = option words + 1 (the exit check); the PCV binds trips.
    bind.set(n, run.loop_trips.at(0));
    const std::int64_t pred =
        options->perf.get(perf::Metric::kInstructions).eval(bind);
    EXPECT_GE(pred, static_cast<std::int64_t>(run.instructions)) << words;
    EXPECT_LE(pred, static_cast<std::int64_t>(run.instructions) + 80) << words;
  }
}

TEST(Pipeline, CyclePredictionsDominateRealisticSim) {
  // Per-packet cycle soundness: contract cycles at induced PCVs >= the
  // realistic simulator's measurement, across a mixed bridge workload.
  perf::PcvRegistry reg;
  const NfInstance bridge = make_bridge(reg, default_bridge_config());
  ContractGenerator gen(reg, quiet_options());
  const GenerationResult result = gen.generate(bridge.analysis());

  hw::RealisticSim testbed;
  auto runner = bridge.make_runner(nf::framework_full(), &testbed);
  Distiller distiller(*runner, &testbed, &bridge.methods);
  net::BridgeSpec spec;
  spec.packet_count = 1500;
  spec.stations = 300;
  spec.broadcast_fraction = 0.2;
  auto packets = net::bridge_traffic(spec);
  const DistillerReport report = distiller.run(packets);
  for (const PacketRecord& rec : report.records) {
    const auto* entry = result.contract.find(rec.class_key);
    ASSERT_NE(entry, nullptr);
    EXPECT_GE(entry->perf.get(Metric::kCycles).eval(rec.pcvs),
              static_cast<std::int64_t>(rec.cycles))
        << rec.class_key;
  }
}

TEST(Pipeline, PacketFromPathSatisfiesConstraints) {
  perf::PcvRegistry reg;
  const NfInstance nat = make_nat(reg, default_nat_config());
  std::map<std::int64_t, symbex::SymbolicModel> models;
  for (const auto& [id, spec] : nat.methods) models.emplace(id, spec.model);
  symbex::Executor ex({&nat.program}, std::move(models));
  auto paths = ex.run();
  ex.solve_inputs(paths);
  for (const auto& path : paths) {
    ASSERT_TRUE(path.solved);
    const net::Packet packet = packet_from_path(path);
    EXPECT_GE(packet.size(), 60u);
    for (const auto& c : path.constraints) {
      EXPECT_NE(c->eval(path.model), 0u);
    }
  }
}

}  // namespace
}  // namespace bolt::core
