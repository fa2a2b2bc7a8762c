// The native engine's contract: byte-identical observable results to the
// reference interpreter (the oracle), for every program it runs.
//
//  * every registered program resolves to native code, and a program that
//    differs by one immediate, or by two that collide in the fingerprint,
//    does not (it runs on the reference interpreter);
//  * every registered NF target and chain produces identical per-packet
//    results, rewritten bytes and cycles under the native and reference
//    engines, over its workloads, their trace mutations and the generation
//    witnesses;
//  * monitor reports are byte-identical fast-path-vs-reference for every
//    registered target at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bolt.h"
#include "core/classkey.h"
#include "core/targets.h"
#include "hw/models.h"
#include "ir/interp.h"
#include "ir/native.h"
#include "monitor/monitor.h"
#include "monitor/report.h"
#include "net/flow.h"
#include "net/mutate.h"
#include "net/packet_builder.h"
#include "net/workload.h"
#include "nf/nat.h"
#include "support/assert.h"
#include "support/random.h"

namespace bolt {
namespace {

using ir::Interpreter;
using ir::Program;
using ir::RunResult;

std::vector<std::uint8_t> bytes_of(const net::Packet& p) {
  return {p.bytes().begin(), p.bytes().end()};
}

std::vector<std::pair<perf::PcvId, std::uint64_t>> pcv_items(
    const perf::PcvBinding& b) {
  return {b.begin(), b.end()};
}

/// Field-by-field equality of everything a RunResult observes. The label
/// tables differ by object but intern in execution order, so raw ids are
/// directly comparable; names are compared too as a belt-and-braces check.
void expect_equal_results(const RunResult& got, const RunResult& ref,
                          const std::string& ctx) {
  EXPECT_EQ(got.verdict, ref.verdict) << ctx;
  EXPECT_EQ(got.out_port, ref.out_port) << ctx;
  EXPECT_EQ(got.instructions, ref.instructions) << ctx;
  EXPECT_EQ(got.mem_accesses, ref.mem_accesses) << ctx;
  EXPECT_EQ(got.stateless_instructions, ref.stateless_instructions) << ctx;
  EXPECT_EQ(got.stateless_accesses, ref.stateless_accesses) << ctx;
  EXPECT_EQ(pcv_items(got.pcvs), pcv_items(ref.pcvs)) << ctx;
  EXPECT_EQ(got.calls, ref.calls) << ctx;
  EXPECT_EQ(got.class_tags, ref.class_tags) << ctx;
  EXPECT_EQ(got.loop_trips, ref.loop_trips) << ctx;
  EXPECT_EQ(got.class_tag_names(), ref.class_tag_names()) << ctx;
  EXPECT_EQ(got.class_label(), ref.class_label()) << ctx;
  EXPECT_EQ(got.loop_trips_map(), ref.loop_trips_map()) << ctx;
}

TEST(ValidateDeathTest, AProgramThatFallsOffTheEndIsRejected) {
  // Native code has no pc bounds check, so validate() (which the generator
  // runs on every program) must refuse a program whose last instruction
  // falls through.
  Program p;
  p.name = "falls";
  p.num_regs = 1;
  ir::Instr c;
  c.op = ir::Op::kConst;
  c.dst = 0;
  p.code.push_back(c);
  EXPECT_DEATH(p.validate(), "falls off the end");
}

// --- registered NF targets ---------------------------------------------------

TEST(Native, EveryRegisteredProgramResolvesToNativeCode) {
  for (const std::string& name : core::named_targets()) {
    perf::PcvRegistry reg;
    core::NfTarget target;
    ASSERT_TRUE(core::make_named_target(name, reg, target));
    for (const Program* p : target.programs()) {
      EXPECT_NE(ir::find_native(*p), nullptr) << name << "/" << p->name;
    }
    EXPECT_TRUE(target.make_runner()->uses_fast_path()) << name;
    EXPECT_FALSE(target.make_runner(nf::framework_full(), nullptr,
                                    ir::EngineKind::kReference)
                     ->uses_fast_path())
        << name;
  }
}

TEST(Native, AFingerprintCollisionDoesNotShareNativeCode) {
  // Flipping bit 63 of two words leaves the fingerprint unchanged (it
  // flips bit 63 of every later hash state, and the second flip cancels
  // the first), so only the field-by-field check tells the programs apart.
  perf::PcvRegistry reg;
  core::NfTarget target;
  ASSERT_TRUE(core::make_named_target("router", reg, target));
  const Program& registered = *target.programs().front();
  Program changed = registered;
  int flipped = 0;
  for (ir::Instr& i : changed.code) {
    if (i.op == ir::Op::kConst && flipped < 2) {
      i.imm = static_cast<std::int64_t>(static_cast<std::uint64_t>(i.imm) ^
                                        (std::uint64_t{1} << 63));
      ++flipped;
    }
  }
  ASSERT_EQ(flipped, 2);
  ASSERT_EQ(ir::program_fingerprint(changed),
            ir::program_fingerprint(registered));
  EXPECT_NE(ir::find_native(registered), nullptr);
  EXPECT_EQ(ir::find_native(changed), nullptr);
}

TEST(NativeDeathTest, TheStepBudgetGuardsLoops) {
  // The router's IP-option walk is the registered loop. With a budget of
  // one step, the first packet that takes its backward jump must abort.
  perf::PcvRegistry reg;
  core::NfTarget target;
  ASSERT_TRUE(core::make_named_target("router", reg, target));
  const Program& p = *target.programs().front();
  ir::InterpreterOptions opts;
  opts.max_steps = 1;
  ir::NativeEngine engine(*ir::find_native(p), p, nullptr, opts);
  std::vector<net::Packet> packets =
      core::monitor_workload("router", "drift", 3000);
  EXPECT_DEATH(
      {
        RunResult r;
        for (net::Packet& packet : packets) engine.run_into(packet, r);
      },
      "step budget exceeded");
}

enum class Engine { kNative, kReference };

/// One engine of `kind` per chain stage, bound to one label table the way
/// NfRunner binds them, so each stage's result is comparable on its own.
struct StageEngines {
  StageEngines(const core::NfTarget& target, ir::TraceSink* sink, Engine kind)
      : labels(std::make_unique<ir::RunLabels>(target.programs())) {
    ir::InterpreterOptions opts;
    nf::apply_framework(opts, nf::framework_full());
    opts.sink = sink;
    ir::StatefulEnv* env =
        target.is_stateless ? nullptr : target.instance.env.get();
    const auto programs = target.programs();
    for (std::size_t i = 0; i < programs.size(); ++i) {
      const ir::LabelBinding binding{labels.get(), labels->tag_base(i),
                                     labels->loop_base(i)};
      const Program& p = *programs[i];
      if (kind == Engine::kNative) {
        const ir::NativeEntry* entry = ir::find_native(p);
        BOLT_CHECK(entry != nullptr, p.name + ": no native code");
        stages.push_back(
            std::make_unique<ir::NativeEngine>(*entry, p, env, opts, binding));
      } else {
        stages.push_back(std::make_unique<Interpreter>(p, env, opts, binding));
      }
    }
  }

  /// Runs the chain, one result per stage run (stopping at a drop).
  std::vector<RunResult> run(net::Packet& packet) {
    std::vector<RunResult> out;
    for (const auto& stage : stages) {
      stage->run_into(packet, out.emplace_back());
      if (out.back().verdict == net::NfVerdict::kDrop) break;
    }
    return out;
  }

  std::unique_ptr<ir::RunLabels> labels;
  std::vector<std::unique_ptr<ir::PacketEngine>> stages;
};

/// The target's monitor workloads, their net/mutate.h trace mutations, and
/// the witness input of every solved generation path.
std::vector<net::Packet> identity_inputs(const std::string& name) {
  std::vector<net::Packet> out;
  for (const char* kind : {"", "uniform", "churn", "drift"}) {
    if (name != "router" && name != "fw+router" &&
        std::string(kind) == "drift") {
      continue;
    }
    std::vector<net::Packet> w = core::monitor_workload(name, kind, 600);
    support::Rng rng(0x5eed + w.size());
    for (int m = 0; m < 40; ++m) {
      const std::size_t i = rng.below(w.size()), j = rng.below(w.size());
      switch (m % 5) {
        case 0: net::swap_contents(w, i, j); break;
        case 1: net::duplicate_at(w, i); break;
        case 2: net::rotate_window(w, i, 1 + rng.below(8)); break;
        case 3: net::snap_to_boundary(w, i, 1'000'000'000); break;
        default: net::stretch_gap(w, i, 2'000'000'000); break;
      }
    }
    out.insert(out.end(), w.begin(), w.end());
  }
  perf::PcvRegistry reg;
  core::NfTarget target;
  EXPECT_TRUE(core::make_named_target(name, reg, target));
  const core::GenerationResult gen =
      core::ContractGenerator(reg).generate(target.analysis());
  net::TimestampNs ts = out.empty() ? 0 : out.back().timestamp_ns();
  for (const core::PathReport& path : gen.path_reports) {
    if (!path.solved) continue;
    net::Packet p = path.input;
    p.set_timestamp_ns(std::max(ts, p.timestamp_ns()));
    ts = p.timestamp_ns();
    out.push_back(p);
  }
  return out;
}

TEST(NativeDifferential, EveryRegisteredTargetMatchesTheReference) {
  for (const std::string& name : core::named_targets()) {
    // Independent instances per engine (stateful NFs mutate their state
    // as they run, so the engines must not share one).
    std::array<perf::PcvRegistry, 2> regs;
    std::array<core::NfTarget, 2> targets;
    std::array<hw::ConservativeModel, 2> sinks;
    std::vector<StageEngines> engines;
    for (std::size_t k = 0; k < 2; ++k) {
      ASSERT_TRUE(core::make_named_target(name, regs[k], targets[k]));
      engines.emplace_back(targets[k], &sinks[k], static_cast<Engine>(k));
    }
    // The runner's fast path is the native engine.
    core::NfTarget runner_target;
    perf::PcvRegistry runner_reg;
    ASSERT_TRUE(core::make_named_target(name, runner_reg, runner_target));
    hw::ConservativeModel runner_sink;
    auto runner = runner_target.make_runner(nf::framework_full(), &runner_sink);
    EXPECT_TRUE(runner->uses_fast_path()) << name;

    const std::vector<net::Packet> packets = identity_inputs(name);
    for (std::size_t i = 0; i < packets.size(); ++i) {
      std::array<net::Packet, 2> pkts = {packets[i], packets[i]};
      std::array<std::vector<RunResult>, 2> res;
      for (std::size_t k = 0; k < 2; ++k) {
        sinks[k].begin_packet();
        res[k] = engines[k].run(pkts[k]);
      }
      net::Packet pr = packets[i];
      runner_sink.begin_packet();
      const RunResult merged = runner->process(pr);
      const std::string ctx = name + " pkt=" + std::to_string(i);
      ASSERT_EQ(res[0].size(), res[1].size()) << ctx;
      for (std::size_t s = 0; s < res[0].size(); ++s) {
        expect_equal_results(res[0][s], res[1][s],
                             ctx + " stage=" + std::to_string(s));
      }
      EXPECT_EQ(bytes_of(pkts[0]), bytes_of(pkts[1])) << ctx;
      EXPECT_EQ(sinks[0].packet_cycles(), sinks[1].packet_cycles()) << ctx;
      EXPECT_EQ(bytes_of(pr), bytes_of(pkts[1])) << ctx;
      EXPECT_EQ(runner_sink.packet_cycles(), sinks[1].packet_cycles()) << ctx;
      EXPECT_EQ(merged.verdict, res[1].back().verdict) << ctx;
      if (::testing::Test::HasFailure()) return;  // one dump is enough
    }
    EXPECT_EQ(sinks[0].total_cycles(), sinks[1].total_cycles()) << name;
    for (std::size_t s = 0; s < engines[1].stages.size(); ++s) {
      EXPECT_EQ(engines[0].stages[s]->scratch(),
                engines[1].stages[s]->scratch());
    }
  }
}

std::vector<net::Packet> nat_workload(std::size_t count) {
  net::ZipfSpec spec;
  spec.flow_pool = 256;
  spec.skew = 1.1;
  spec.packet_count = count;
  return net::zipf_traffic(spec);
}

TEST(Native, AChangedImmediateFallsBackToTheReferenceEngine) {
  // The NAT built with another external IP differs from the registered one
  // in one kConst immediate: it must find no native code and run on the
  // reference engine, so the NAT writes the changed IP (the registered
  // native code would write the default one).
  perf::PcvRegistry reg_d, reg_r;
  core::NfInstance nat_d = core::make_nat(reg_d, core::default_nat_config());
  core::NfInstance nat_r = core::make_nat(reg_r, core::default_nat_config());
  const Program registered = nat_d.program;
  nat_d.program = nf::Nat::program(0x0a0b0c0d);
  nat_r.program = nat_d.program;
  EXPECT_NE(ir::program_fingerprint(nat_d.program),
            ir::program_fingerprint(registered));
  EXPECT_EQ(ir::find_native(nat_d.program), nullptr);
  EXPECT_NE(ir::find_native(registered), nullptr);

  hw::ConservativeModel sink_d, sink_r;
  auto run_d = nat_d.make_runner(nf::framework_full(), &sink_d);
  auto run_r = nat_r.make_runner(nf::framework_full(), &sink_r,
                                 ir::EngineKind::kReference);
  EXPECT_TRUE(run_d->uses_fast_path());
  const auto packets = nat_workload(1500);
  bool rewrote = false;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    net::Packet pd = packets[i], pr = packets[i];
    sink_d.begin_packet();
    sink_r.begin_packet();
    const RunResult rd = run_d->process(pd), rr = run_r->process(pr);
    const std::string ctx = "pkt=" + std::to_string(i);
    expect_equal_results(rd, rr, ctx);
    EXPECT_EQ(bytes_of(pd), bytes_of(pr)) << ctx;
    EXPECT_EQ(sink_d.packet_cycles(), sink_r.packet_cycles()) << ctx;
    const auto tuple = net::extract_five_tuple(pd);
    rewrote = rewrote || (tuple && tuple->src_ip.value == 0x0a0b0c0d);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_TRUE(rewrote);  // the changed immediate is what the NAT wrote
}

// --- monitor report byte-identity over the knob grid -------------------------

TEST(NativeDifferential, MonitorReportsAreByteIdenticalAcrossTheKnobGrid) {
  for (const std::string& name : core::named_targets()) {
    perf::PcvRegistry reg;
    core::NfTarget target;
    ASSERT_TRUE(core::make_named_target(name, reg, target));
    core::ContractGenerator gen(reg);
    const core::GenerationResult result = gen.generate(target.analysis());
    const auto packets = core::monitor_workload(
        name, name == "router" ? "drift" : "", 2000);

    // The oracle: reference engine, plain single-threaded run.
    monitor::MonitorOptions ref_opts;
    ref_opts.partitions = 8;
    ref_opts.threads = 1;
    ref_opts.engine = ir::EngineKind::kReference;
    std::vector<std::uint32_t> ref_attr;
    const std::string ref_json = monitor::report_to_json(
        monitor::MonitorEngine(result.contract, reg, ref_opts)
            .run(packets, monitor::MonitorEngine::named_factory(name),
                 &ref_attr));

    // The fast path runs every registered program as native code.
    for (const std::size_t threads : {std::size_t(1), std::size_t(4)}) {
      monitor::MonitorOptions opts = ref_opts;
      opts.threads = threads;
      opts.engine = ir::EngineKind::kNative;
      std::vector<std::uint32_t> attr;
      const std::string json = monitor::report_to_json(
          monitor::MonitorEngine(result.contract, reg, opts)
              .run(packets, monitor::MonitorEngine::named_factory(name),
                   &attr));
      EXPECT_EQ(json, ref_json) << name << " threads=" << threads;
      EXPECT_EQ(attr, ref_attr) << name;
    }
  }
}

}  // namespace
}  // namespace bolt
