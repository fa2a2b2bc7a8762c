// The native engine's contract: byte-identical observable results to the
// reference interpreter (the oracle), for every program it runs.
//
//  * every registered program resolves to native code, and a program that
//    differs by one immediate, or by two that collide in the fingerprint,
//    does not (it runs on the reference interpreter);
//  * every registered NF target and chain produces identical per-packet
//    results, rewritten bytes and cycles under the native and reference
//    engines, over its workloads, their trace mutations and the generation
//    witnesses, with no framework cost, the full one, and the full one
//    inflated by 50% and 200%;
//  * monitor reports are byte-identical fast-path-vs-reference for every
//    registered target at every thread count;
//  * first-touch metering charges the probing meter's cycles at its edges
//    (4 KiB packets, locals and scratch; line-straddling accesses; drops;
//    chains), and only where it applies;
//  * both engines reject packet offsets whose end wraps past 2^64.
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
#include "ir/builder.h"
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
#include "native_fixtures.h"

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
/// With `first_touch`, every native stage meters by first touch.
struct StageEngines {
  StageEngines(const core::NfTarget& target, ir::TraceSink* sink, Engine kind,
               bool first_touch = false,
               const nf::FrameworkCosts& framework = nf::framework_full())
      : labels(std::make_unique<ir::RunLabels>(target.programs())) {
    ir::InterpreterOptions opts;
    nf::apply_framework(opts, framework);
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
        auto engine =
            std::make_unique<ir::NativeEngine>(*entry, p, env, opts, binding);
        if (first_touch) engine->use_first_touch();
        stages.push_back(std::move(engine));
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

/// The framework settings the differential runs under: none, full, and
/// full inflated by 50% and 200%. Inflated rx and tx steps wrap their mbuf
/// addresses, so a line recurs after other lines (the native engine's
/// framework runs must restart there).
std::vector<std::pair<std::string, nf::FrameworkCosts>> framework_grid() {
  return {{"none", nf::framework_none()},
          {"full", nf::framework_full()},
          {"inflated 50", nf::framework_inflated(nf::framework_full(), 50)},
          {"inflated 200", nf::framework_inflated(nf::framework_full(), 200)}};
}

TEST(NativeDifferential, EveryRegisteredTargetMatchesTheReference) {
  for (const auto& [fw_name, fw] : framework_grid()) {
    for (const std::string& name : core::named_targets()) {
      SCOPED_TRACE("framework " + fw_name);
      // Independent instances per engine (stateful NFs mutate their state
      // as they run, so the engines must not share one).
      std::array<perf::PcvRegistry, 2> regs;
      std::array<core::NfTarget, 2> targets;
      std::array<hw::ConservativeModel, 2> sinks;
      std::vector<StageEngines> engines;
      for (std::size_t k = 0; k < 2; ++k) {
        ASSERT_TRUE(core::make_named_target(name, regs[k], targets[k]));
        engines.emplace_back(targets[k], &sinks[k], static_cast<Engine>(k),
                             false, fw);
      }
      // The runner's fast path is the native engine.
      core::NfTarget runner_target;
      perf::PcvRegistry runner_reg;
      ASSERT_TRUE(core::make_named_target(name, runner_reg, runner_target));
      hw::ConservativeModel runner_sink;
      auto runner = runner_target.make_runner(fw, &runner_sink);
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
        EXPECT_EQ(runner_sink.packet_cycles(), sinks[1].packet_cycles())
            << ctx;
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
}

// --- first-touch metering ----------------------------------------------------

/// `packets` padded (or cut) to `size` bytes.
std::vector<net::Packet> resized(std::vector<net::Packet> packets,
                                 std::size_t size) {
  for (net::Packet& p : packets) {
    std::vector<std::uint8_t> data = bytes_of(p);
    data.resize(size, 0x5a);
    p = net::Packet(std::move(data), p.timestamp_ns(), p.in_port());
  }
  return packets;
}

/// Runs `packets` through two runners with their own sinks and expects the
/// same results, bytes and cycles per packet. Returns the reference results.
std::vector<RunResult> expect_same_cycles(
    core::NfRunner& got, hw::ConservativeModel& got_sink, core::NfRunner& ref,
    hw::ConservativeModel& ref_sink, const std::vector<net::Packet>& packets,
    const std::string& name) {
  std::vector<RunResult> refs;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    net::Packet pg = packets[i], pr = packets[i];
    got_sink.begin_packet();
    ref_sink.begin_packet();
    const RunResult rg = got.process(pg), rr = ref.process(pr);
    const std::string ctx = name + " pkt=" + std::to_string(i) +
                            " size=" + std::to_string(packets[i].size());
    expect_equal_results(rg, rr, ctx);
    EXPECT_EQ(bytes_of(pg), bytes_of(pr)) << ctx;
    EXPECT_EQ(got_sink.packet_cycles(), ref_sink.packet_cycles()) << ctx;
    if (::testing::Test::HasFailure()) break;
    refs.push_back(rr);
  }
  return refs;
}

std::size_t count_where(const std::vector<RunResult>& results,
                        bool (*pred)(const RunResult&)) {
  return static_cast<std::size_t>(
      std::count_if(results.begin(), results.end(), pred));
}

TEST(FirstTouch, TheRunnerMetersWholeCallFreeChainsOnly) {
  for (const std::string& name : core::named_targets()) {
    perf::PcvRegistry reg;
    core::NfTarget target;
    ASSERT_TRUE(core::make_named_target(name, reg, target));
    const bool call_free =
        name == "router" || name == "firewall" || name == "fw+router";
    for (const Program* p : target.programs()) {
      EXPECT_EQ(ir::find_native(*p)->first_touch != nullptr, call_free)
          << name << "/" << p->name;
    }
    hw::ConservativeModel sink;
    EXPECT_EQ(target.make_runner(nf::framework_full(), &sink)
                  ->meters_first_touch(),
              call_free)
        << name;
    EXPECT_FALSE(target.make_runner(nf::framework_full(), nullptr)
                     ->meters_first_touch())
        << name;
    EXPECT_FALSE(target.make_runner(nf::framework_full(), &sink,
                                    ir::EngineKind::kReference)
                     ->meters_first_touch())
        << name;
  }
}

TEST(FirstTouch, RouterAtThePacketLengthEdge) {
  // 4096 bytes is the longest packet metered by first touch; 4097 probes.
  // Every third packet has a non-IPv4 EtherType, which the router drops.
  std::vector<net::Packet> workload =
      core::monitor_workload("router", "drift", 400);
  for (std::size_t i = 0; i < workload.size(); i += 3) {
    workload[i].mutable_bytes()[12] = 0x86;
  }
  std::vector<net::Packet> packets = workload;
  for (const std::size_t size : {4095, 4096, 4097}) {
    const std::vector<net::Packet> r = resized(workload, size);
    packets.insert(packets.end(), r.begin(), r.end());
  }
  std::array<perf::PcvRegistry, 2> regs;
  std::array<core::NfTarget, 2> targets;
  for (std::size_t k = 0; k < 2; ++k) {
    ASSERT_TRUE(core::make_named_target("router", regs[k], targets[k]));
  }
  hw::ConservativeModel got_sink, ref_sink;
  const auto got = targets[0].make_runner(nf::framework_full(), &got_sink);
  const auto ref = targets[1].make_runner(nf::framework_full(), &ref_sink,
                                          ir::EngineKind::kReference);
  ASSERT_TRUE(got->meters_first_touch());
  const std::vector<RunResult> refs =
      expect_same_cycles(*got, got_sink, *ref, ref_sink, packets, "router");
  EXPECT_GT(count_where(refs, [](const RunResult& r) {
              return r.verdict == net::NfVerdict::kForward;
            }),
            0u);
  EXPECT_GT(count_where(refs, [](const RunResult& r) {  // the drop mbuf line
              return r.verdict == net::NfVerdict::kDrop;
            }),
            0u);
}

const ir::NativeEntry* fixture_entry(const Program& p) {
  for (const ir::NativeEntry& e : fixture_native_table()) {
    if (e.fingerprint == ir::program_fingerprint(p)) return &e;
  }
  return nullptr;
}

/// A `size`-byte packet with byte 1 = `slot_byte` (the fixture's scratch
/// slot is 2 * slot_byte + 1) and byte 2 = `keep` (0 drops).
net::Packet fixture_packet(std::size_t size, std::uint8_t slot_byte,
                           std::uint8_t keep) {
  std::vector<std::uint8_t> data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  data[1] = slot_byte;
  data[2] = keep;
  return net::Packet(std::move(data), 1'000'000'000);
}

TEST(FirstTouch, HandBuiltProgramsAtTheFourKibEdges) {
  // "edges" has 512 locals and 512 scratch slots (4 KiB each, the largest
  // frame that qualifies) and touches both ends of each; every fixture
  // straddles lines 0/1 and reads the packet's last two bytes, which on a
  // 4097-byte packet is line 64: only the probing meter can charge it.
  for (const Program& p : fixtures::native_fixtures()) {
    SCOPED_TRACE(p.name);
    const ir::NativeEntry* entry = fixture_entry(p);
    ASSERT_NE(entry, nullptr);
    const bool fits = p.num_locals <= 512 && p.scratch_slots <= 512;
    EXPECT_EQ(entry->first_touch != nullptr, fits);
    if (!fits) continue;
    hw::ConservativeModel ft_sink, probe_sink, ref_sink;
    ir::InterpreterOptions opts;
    nf::apply_framework(opts, nf::framework_full());
    opts.sink = &ft_sink;
    ir::NativeEngine first_touch(*entry, p, nullptr, opts);
    ASSERT_TRUE(first_touch.can_meter_first_touch());
    first_touch.use_first_touch();
    opts.sink = &probe_sink;
    ir::NativeEngine probe(*entry, p, nullptr, opts);
    opts.sink = &ref_sink;
    Interpreter reference(p, nullptr, opts);
    const std::uint8_t top = static_cast<std::uint8_t>(
        std::min<std::size_t>(255, (p.scratch_slots - 1) / 2));
    std::size_t drops = 0;
    for (const std::size_t size : {66, 127, 128, 4095, 4096, 4097, 6000}) {
      for (const std::uint8_t slot_byte : {std::uint8_t{0}, top}) {
        for (const std::uint8_t keep : {0, 1}) {
          const std::string ctx = "size=" + std::to_string(size) +
                                  " slot=" + std::to_string(slot_byte) +
                                  " keep=" + std::to_string(keep);
          std::array<net::Packet, 3> pkts;
          pkts.fill(fixture_packet(size, slot_byte, keep));
          std::array<RunResult, 3> res;
          ft_sink.begin_packet();
          probe_sink.begin_packet();
          ref_sink.begin_packet();
          first_touch.run_into(pkts[0], res[0]);
          probe.run_into(pkts[1], res[1]);
          reference.run_into(pkts[2], res[2]);
          for (std::size_t k = 0; k < 2; ++k) {
            expect_equal_results(res[k], res[2], ctx);
            EXPECT_EQ(bytes_of(pkts[k]), bytes_of(pkts[2])) << ctx;
          }
          EXPECT_EQ(ft_sink.packet_cycles(), ref_sink.packet_cycles()) << ctx;
          EXPECT_EQ(probe_sink.packet_cycles(), ref_sink.packet_cycles())
              << ctx;
          drops += res[2].verdict == net::NfVerdict::kDrop ? 1 : 0;
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
    EXPECT_EQ(drops, 14u);
    EXPECT_EQ(first_touch.scratch(), reference.scratch());
  }
}

TEST(FirstTouchDeathTest, OnlyPacketsUpToFourKibSkipTheProbe) {
  // A packet the probe has already metered cannot take a first-touch
  // charge: a 4097-byte packet runs on the probe after it, a 4096-byte
  // one is charged by first touch and aborts.
  const Program p = fixtures::native_fixtures().front();
  const ir::NativeEntry* entry = fixture_entry(p);
  ASSERT_NE(entry, nullptr);
  hw::ConservativeModel sink;
  ir::InterpreterOptions opts;
  opts.sink = &sink;
  ir::NativeEngine engine(*entry, p, nullptr, opts);
  engine.use_first_touch();
  RunResult r;
  sink.begin_packet();
  sink.fast_meter()->access(ir::kPacketBase, 1);
  net::Packet over = fixture_packet(4097, 0, 1);
  engine.run_into(over, r);
  net::Packet edge = fixture_packet(4096, 0, 1);
  EXPECT_DEATH(engine.run_into(edge, r), "the L1 probe has metered");
}

TEST(FirstTouch, FwRouterThroughTheRunnerAndStageEngines) {
  std::vector<net::Packet> packets = identity_inputs("fw+router");
  const std::vector<net::Packet> big = resized(
      core::monitor_workload("fw+router", "drift", 200), 4096);
  packets.insert(packets.end(), big.begin(), big.end());
  std::array<perf::PcvRegistry, 3> regs;
  std::array<core::NfTarget, 3> targets;
  for (std::size_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(core::make_named_target("fw+router", regs[k], targets[k]));
  }
  std::array<hw::ConservativeModel, 3> sinks;
  StageEngines first_touch(targets[0], &sinks[0], Engine::kNative, true);
  StageEngines reference(targets[1], &sinks[1], Engine::kReference);
  const auto runner = targets[2].make_runner(nf::framework_full(), &sinks[2]);
  ASSERT_TRUE(runner->meters_first_touch());
  std::size_t second_stage = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    std::array<net::Packet, 3> pkts = {packets[i], packets[i], packets[i]};
    for (hw::ConservativeModel& sink : sinks) sink.begin_packet();
    const std::vector<RunResult> got = first_touch.run(pkts[0]);
    const std::vector<RunResult> ref = reference.run(pkts[1]);
    const RunResult merged = runner->process(pkts[2]);
    const std::string ctx = "pkt=" + std::to_string(i);
    ASSERT_EQ(got.size(), ref.size()) << ctx;
    for (std::size_t s = 0; s < got.size(); ++s) {
      expect_equal_results(got[s], ref[s], ctx + " stage=" + std::to_string(s));
    }
    second_stage += ref.size() == 2 ? 1 : 0;
    EXPECT_EQ(merged.verdict, ref.back().verdict) << ctx;
    EXPECT_EQ(bytes_of(pkts[0]), bytes_of(pkts[1])) << ctx;
    EXPECT_EQ(bytes_of(pkts[2]), bytes_of(pkts[1])) << ctx;
    EXPECT_EQ(sinks[0].packet_cycles(), sinks[1].packet_cycles()) << ctx;
    EXPECT_EQ(sinks[2].packet_cycles(), sinks[1].packet_cycles()) << ctx;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(second_stage, 0u);
}

TEST(FirstTouch, AChainWithADslibCallProbesEveryStage) {
  // router -> NAT: the router is call-free, the NAT is not, so the runner
  // probes both stages for the whole packet.
  std::array<perf::PcvRegistry, 2> regs;
  std::array<core::NfTarget, 2> routers;
  std::vector<core::NfInstance> nats;
  std::vector<std::unique_ptr<core::NfRunner>> runners;
  std::array<hw::ConservativeModel, 2> sinks;
  for (std::size_t k = 0; k < 2; ++k) {
    ASSERT_TRUE(core::make_named_target("router", regs[k], routers[k]));
    nats.push_back(core::make_nat(regs[k], core::default_nat_config()));
  }
  for (std::size_t k = 0; k < 2; ++k) {
    ir::InterpreterOptions opts;
    nf::apply_framework(opts, nf::framework_full());
    opts.sink = &sinks[k];
    opts.engine = k == 0 ? ir::EngineKind::kNative : ir::EngineKind::kReference;
    runners.push_back(std::make_unique<core::NfRunner>(
        std::vector<const Program*>{&routers[k].stateless.front(),
                                    &nats[k].program},
        nats[k].env.get(), opts));
  }
  ASSERT_TRUE(runners[0]->uses_fast_path());
  ASSERT_NE(ir::find_native(nats[0].program), nullptr);
  EXPECT_FALSE(runners[0]->meters_first_touch());
  std::vector<net::Packet> packets = core::monitor_workload("nat", "", 1500);
  const std::vector<net::Packet> drift =
      core::monitor_workload("router", "drift", 500);
  packets.insert(packets.end(), drift.begin(), drift.end());
  const std::vector<RunResult> refs = expect_same_cycles(
      *runners[0], sinks[0], *runners[1], sinks[1], packets, "router->nat");
  // Packets reached the NAT's dslib calls.
  EXPECT_GT(
      count_where(refs, [](const RunResult& r) { return !r.calls.empty(); }),
      0u);
}

// --- packet bounds ----------------------------------------------------------

TEST(BoundsDeathTest, OffsetsWhoseEndWrapsAreOutOfBounds) {
  // offset + width wraps to a small number for these offsets; both engines
  // must still reject them rather than touch the bytes before the packet.
  perf::PcvRegistry reg;
  core::NfTarget router;
  ASSERT_TRUE(core::make_named_target("router", reg, router));
  const Program& registered = router.stateless.front();
  ir::NativeEngine native(*ir::find_native(registered), registered, nullptr);
  for (const std::uint8_t width : {1, 2, 4, 8}) {
    const std::uint64_t wrap = 0 - std::uint64_t{width};  // 2^64 - width
    for (const std::uint64_t offset : {~std::uint64_t{0}, wrap}) {
      SCOPED_TRACE("width=" + std::to_string(width) +
                   " offset=" + std::to_string(offset));
      net::Packet packet(std::vector<std::uint8_t>(64, 0), 0);
      ir::IrBuilder load("wrapping_load");
      load.load_pkt(load.imm(offset), width);
      load.forward_imm(0);
      const Program load_program = load.finish();
      Interpreter load_interp(load_program, nullptr);
      EXPECT_DEATH(load_interp.run(packet), "packet load out of bounds");
      ir::IrBuilder store("wrapping_store");
      store.store_pkt(store.imm(offset), store.imm(0), width);
      store.forward_imm(0);
      const Program store_program = store.finish();
      Interpreter store_interp(store_program, nullptr);
      EXPECT_DEATH(store_interp.run(packet), "packet store out of bounds");
      ir::NativeCounts n;
      EXPECT_DEATH(native.load_pkt<ir::Metering::kNone>(packet.bytes(),
                                                        offset, width, n),
                   "packet load out of bounds");
      EXPECT_DEATH(
          native.store_pkt<ir::Metering::kNone>(packet, offset, 0, width, n),
          "packet store out of bounds");
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
