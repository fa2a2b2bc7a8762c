#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <vector>

#include "core/targets.h"
#include "hw/cache.h"
#include "hw/models.h"
#include "ir/cost.h"
#include "ir/cycle_meter.h"
#include "support/random.h"

namespace bolt::hw {
namespace {

TEST(Cache, HitAfterMiss) {
  Cache cache(1024, 2);
  EXPECT_FALSE(cache.access(100));
  EXPECT_TRUE(cache.access(100));
  EXPECT_TRUE(cache.contains(100));
}

TEST(Cache, LruEviction) {
  Cache cache(2 * kCacheLineBytes, 2);  // one set, two ways
  cache.access(0);
  cache.access(1);
  cache.access(0);       // 0 is now the most recent
  cache.access(2);       // evicts 1
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(Cache, SetsAreIndependent) {
  Cache cache(4 * kCacheLineBytes, 1);  // 4 sets, direct mapped
  cache.access(0);
  cache.access(1);
  cache.access(2);
  cache.access(3);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(3));
  cache.access(4);  // maps to set 0, evicts line 0 only
  EXPECT_FALSE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
}

TEST(Cache, InsertDoesNotEvictResident) {
  Cache cache(1024, 2);
  cache.access(5);
  cache.insert(5);
  EXPECT_TRUE(cache.contains(5));
}

TEST(Cache, ClearEmpties) {
  Cache cache(1024, 2);
  cache.access(5);
  cache.clear();
  EXPECT_FALSE(cache.contains(5));
}

TEST(Conservative, ColdAccessIsDram) {
  ConservativeModel model;
  model.begin_packet();
  model.on_access(0x1000, 8, false, false);
  EXPECT_EQ(model.packet_cycles(), default_cycle_costs().cons_dram);
}

TEST(Conservative, ProvenRepeatIsL1) {
  ConservativeModel model;
  model.begin_packet();
  model.on_access(0x1000, 8, false, false);
  model.on_access(0x1004, 4, false, false);  // same line: must-hit
  EXPECT_EQ(model.packet_cycles(),
            default_cycle_costs().cons_dram + default_cycle_costs().cons_l1);
}

TEST(Conservative, PacketBoundaryResetsMustHit) {
  ConservativeModel model;
  model.begin_packet();
  model.on_access(0x1000, 8, false, false);
  model.begin_packet();
  model.on_access(0x1000, 8, false, false);  // may not assume prior packet
  EXPECT_EQ(model.packet_cycles(), default_cycle_costs().cons_dram);
}

TEST(Conservative, StraddlingAccessChargesBothLines) {
  ConservativeModel model;
  model.begin_packet();
  model.on_access(kCacheLineBytes - 2, 4, false, false);
  EXPECT_EQ(model.packet_cycles(), 2 * default_cycle_costs().cons_dram);
}

TEST(Conservative, InstructionCosts) {
  ConservativeModel model;
  model.begin_packet();
  model.on_instruction(ir::Op::kAdd);
  model.on_instruction(ir::Op::kMul);
  model.on_metered_instructions(10);
  const auto& c = default_cycle_costs();
  EXPECT_EQ(model.packet_cycles(), c.cons_alu + 5 + 10 * c.cons_alu);
}

TEST(Realistic, WarmCachesPersistAcrossPackets) {
  RealisticSim sim;
  sim.begin_packet();
  sim.on_access(0x1000, 8, false, false);
  const std::uint64_t cold = sim.packet_cycles();
  sim.begin_packet();
  sim.on_access(0x1000, 8, false, false);  // warm from the previous packet
  EXPECT_LT(sim.packet_cycles(), cold);
  EXPECT_EQ(sim.packet_cycles(), default_cycle_costs().real_l1);
}

TEST(Realistic, DependentStreamUsesPrefetchCost) {
  RealisticSim sim;
  sim.begin_packet();
  // A long ascending run of dependent line misses (cold footprint).
  for (int i = 0; i < 100; ++i) {
    sim.on_access(0x10000000ULL + 64ULL * std::uint64_t(i), 8, false, true);
  }
  EXPECT_GT(sim.stats().prefetch_hits, 90u);
  EXPECT_EQ(sim.stats().mlp_hits, 0u);
}

TEST(Realistic, IndependentStreamUsesMlpCost) {
  RealisticSim sim;
  sim.begin_packet();
  for (int i = 0; i < 100; ++i) {
    sim.on_access(0x20000000ULL + 64ULL * std::uint64_t(i), 8, false, false);
  }
  EXPECT_GT(sim.stats().mlp_hits, 90u);
}

TEST(Realistic, RandomDependentMissesPayFullDram) {
  RealisticSim sim;
  sim.begin_packet();
  std::uint64_t addr = 0xa00000;
  for (int i = 0; i < 100; ++i) {
    addr = (addr * 2862933555777941757ULL + 3037000493ULL);
    sim.on_access((addr % (1ULL << 30)) & ~63ULL, 8, false, true);
  }
  EXPECT_GT(sim.stats().dram, 60u);
}

TEST(Realistic, DescendingStreamsAlsoPrefetch) {
  RealisticSim sim;
  sim.begin_packet();
  for (int i = 100; i >= 0; --i) {
    sim.on_access(0x30000000ULL + 64ULL * std::uint64_t(i), 8, false, true);
  }
  EXPECT_GT(sim.stats().prefetch_hits, 90u);
}

TEST(Soundness, ConservativeNeverUndershootsRealistic) {
  // Property: on any access pattern, the conservative model's charge is at
  // least the realistic one's (the contract must upper-bound the testbed).
  const CycleCosts& c = default_cycle_costs();
  EXPECT_GE(c.cons_alu * 2, c.real_ipc_num);  // per-instruction (num/den=1.5)
  EXPECT_GE(c.cons_l1, c.real_l1);
  EXPECT_GE(c.cons_dram, c.real_dram);
  EXPECT_GE(c.cons_dram, c.real_stream_dependent);
  EXPECT_GE(c.cons_dram, c.real_stream_independent);
}

// ---------------------------------------------------------------------------
// Independent oracle for the must-hit analysis. The production cache keeps
// per-set occupancy, epoch-stamped O(1) clears and LRU ticks, and the meter
// skips the probe for a repeat of the previous line. The reference below has
// none of that: one list per set, most recently used first, rebuilt per
// packet. Every production path must agree with it packet by packet.

/// Textbook LRU cache: one std::list per set, most recently used first.
class ReferenceLru {
 public:
  ReferenceLru(std::size_t size_bytes, std::size_t ways)
      : ways_(ways), sets_(size_bytes / kCacheLineBytes / ways) {}

  bool access(std::uint64_t line) {
    std::list<std::uint64_t>& set = sets_[line % sets_.size()];
    const auto it = std::find(set.begin(), set.end(), line);
    if (it != set.end()) {
      set.splice(set.begin(), set, it);
      return true;
    }
    fill(set, line);
    return false;
  }
  void insert(std::uint64_t line) {
    if (!contains(line)) fill(sets_[line % sets_.size()], line);
  }
  bool contains(std::uint64_t line) const {
    const std::list<std::uint64_t>& set = sets_[line % sets_.size()];
    return std::find(set.begin(), set.end(), line) != set.end();
  }
  std::size_t evictions() const { return evictions_; }

 private:
  void fill(std::list<std::uint64_t>& set, std::uint64_t line) {
    set.push_front(line);
    if (set.size() > ways_) {
      set.pop_back();
      ++evictions_;
    }
  }

  std::size_t ways_;
  std::vector<std::list<std::uint64_t>> sets_;
  std::size_t evictions_ = 0;
};

/// One event of an execution's cost stream.
struct Event {
  enum Kind : std::uint8_t { kInstr, kMetered, kRead, kWrite } kind;
  ir::Op op = ir::Op::kAdd;  ///< kInstr
  std::uint64_t n = 0;       ///< kMetered: count; kRead/kWrite: address
  std::uint32_t size = 0;    ///< kRead/kWrite
};
using PacketStream = std::vector<Event>;

/// The oracle: per-packet conservative cycles of `stream`, cold L1.
std::uint64_t reference_cycles(const PacketStream& stream,
                               std::size_t* evictions = nullptr) {
  const CycleCosts& c = default_cycle_costs();
  constexpr std::uint64_t kImul = 5;  // imul worst case
  ReferenceLru l1(32 * 1024, 8);
  std::uint64_t cycles = 0;
  for (const Event& e : stream) {
    if (e.kind == Event::kInstr) {
      cycles += e.op == ir::Op::kMul ? kImul : c.cons_alu;
    } else if (e.kind == Event::kMetered) {
      cycles += e.n * c.cons_alu;
    } else {
      const std::uint64_t end = e.n + (e.size == 0 ? 0 : e.size - 1);
      for (std::uint64_t line = line_of(e.n); line <= line_of(end); ++line) {
        cycles += l1.access(line) ? c.cons_l1 : c.cons_dram;
      }
    }
  }
  if (evictions != nullptr) *evictions += l1.evictions();
  return cycles;
}

/// The three production entry points into the conservative meter.
enum class MeterPath { kMeter, kCostMeter, kSink };

/// Per-packet cycles of `packets` replayed back to back through one
/// long-lived production meter (so clears and the filter reset are
/// exercised at every packet boundary).
std::vector<std::uint64_t> production_cycles(
    const std::vector<PacketStream>& packets, MeterPath path) {
  ConservativeModel model;
  ir::ConservativeCycleMeter& meter = *model.fast_meter();
  ir::TraceSink& sink = model;
  std::vector<std::uint64_t> out;
  for (const PacketStream& stream : packets) {
    model.begin_packet();
    ir::CostMeter cost(&model);
    for (const Event& e : stream) {
      switch (path) {
        case MeterPath::kMeter:
          if (e.kind == Event::kInstr) {
            meter.add_instructions(1, e.op == ir::Op::kMul ? 1 : 0);
          } else if (e.kind == Event::kMetered) {
            meter.add_instructions(e.n);
          } else {
            meter.access(e.n, e.size);
          }
          break;
        case MeterPath::kCostMeter:
          if (e.kind == Event::kInstr) {
            cost.stateless_instruction(e.op);
          } else if (e.kind == Event::kMetered) {
            cost.metered_instructions(e.n);
          } else if (e.kind == Event::kRead) {
            cost.mem_read(e.n, e.size);
          } else {
            cost.mem_write(e.n, e.size);
          }
          break;
        case MeterPath::kSink:
          if (e.kind == Event::kInstr) {
            sink.on_instruction(e.op);
          } else if (e.kind == Event::kMetered) {
            sink.on_metered_instructions(e.n);
          } else {
            sink.on_access(e.n, e.size, e.kind == Event::kWrite, false);
          }
          break;
      }
    }
    out.push_back(model.packet_cycles());
  }
  return out;
}

void expect_agrees_with_reference(const std::vector<PacketStream>& packets,
                                  std::size_t* evictions = nullptr) {
  std::vector<std::uint64_t> want;
  for (const PacketStream& stream : packets) {
    want.push_back(reference_cycles(stream, evictions));
  }
  for (const MeterPath path :
       {MeterPath::kMeter, MeterPath::kCostMeter, MeterPath::kSink}) {
    SCOPED_TRACE("path " + std::to_string(static_cast<int>(path)));
    const std::vector<std::uint64_t> got = production_cycles(packets, path);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "packet " << i;
    }
  }
}

/// Seeded streams built to stress the must-hit analysis: twelve lines of
/// set 0 (more than its eight ways) plus the synthetic mbuf, packet, locals,
/// scratch and arena bases (all of which also map to set 0), immediate
/// repeats of the previous access, line-straddling and size-0 accesses, and
/// packet boundaries at random points.
std::vector<PacketStream> random_streams(std::uint64_t seed,
                                         std::size_t events) {
  support::Rng rng(seed);
  std::vector<std::uint64_t> hot;
  for (std::uint64_t k = 1; k <= 12; ++k) {
    hot.push_back(k * 64 * kCacheLineBytes);  // line k*64: set 0 of 64
  }
  for (const std::uint64_t base :
       {ir::kMbufBase, ir::kPacketBase, ir::kLocalsBase, ir::kScratchBase,
        ir::kArenaBase, ir::kArenaBase + ir::kArenaStride,
        ir::kArenaBase + 2 * ir::kArenaStride}) {
    hot.push_back(base);
  }
  const std::uint32_t sizes[] = {0, 1, 2, 4, 8, 16};
  std::vector<PacketStream> packets(1);
  std::uint64_t prev = hot[0];
  for (std::size_t i = 0; i < events; ++i) {
    if (rng.chance(0.01)) {
      packets.emplace_back();  // begin_packet mid-stream
      continue;
    }
    Event e{Event::kRead};
    const double r = rng.uniform();
    if (r < 0.1) {
      e.kind = Event::kInstr;
      e.op = rng.chance(0.3) ? ir::Op::kMul : ir::Op::kXor;
    } else if (r < 0.15) {
      e.kind = Event::kMetered;
      e.n = rng.below(40);
    } else {
      e.kind = rng.chance(0.5) ? Event::kRead : Event::kWrite;
      e.size = sizes[rng.below(6)];
      const double where = rng.uniform();
      if (where < 0.3) {
        e.n = rng.chance(0.5) ? prev : (prev & ~63ULL) + rng.below(56);
      } else if (where < 0.65) {
        e.n = hot[rng.below(hot.size())] + 8 * rng.below(8);
      } else if (where < 0.8) {
        e.n = hot[rng.below(hot.size())] + 60;  // straddles into set 1
        e.size = 8;
      } else {
        e.n = rng.below(1ULL << 22);
      }
      prev = e.n;
    }
    packets.back().push_back(e);
  }
  return packets;
}

TEST(MustHitOracle, RandomStreamsMatchTextbookLru) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<PacketStream> packets = random_streams(seed, 20'000);
    std::size_t evictions = 0;
    expect_agrees_with_reference(packets, &evictions);
    EXPECT_GT(packets.size(), 100u);
    EXPECT_GT(evictions, 0u) << "stream never overflowed a set";
  }
}

/// Records the full virtual event stream, one PacketStream per packet.
/// No fast_meter(), so the runner keeps every event on the virtual path.
class RecordingSink final : public ir::TraceSink {
 public:
  std::vector<PacketStream> packets;

  void on_instruction(ir::Op op) override {
    packets.back().push_back(Event{Event::kInstr, op});
  }
  void on_metered_instructions(std::uint64_t n) override {
    packets.back().push_back(Event{Event::kMetered, ir::Op::kAdd, n});
  }
  void on_access(std::uint64_t addr, std::uint32_t size, bool is_write,
                 bool /*dependent*/) override {
    packets.back().push_back(Event{is_write ? Event::kWrite : Event::kRead,
                                   ir::Op::kAdd, addr, size});
  }
};

TEST(MustHitOracle, RegisteredTargetStreamsMatchTextbookLru) {
  constexpr std::size_t kPackets = 3000;
  for (const std::string& name : core::named_targets()) {
    SCOPED_TRACE(name);
    const std::vector<net::Packet> workload =
        core::monitor_workload(name, "", kPackets);
    ASSERT_FALSE(workload.empty());

    // Record on the reference engine with a plain (non-fast) sink.
    perf::PcvRegistry reg;
    core::NfTarget target;
    ASSERT_TRUE(core::make_named_target(name, reg, target));
    RecordingSink recorder;
    const auto recording = target.make_runner(
        nf::framework_full(), &recorder, ir::EngineKind::kReference);
    std::vector<net::Packet> packets = workload;
    for (net::Packet& p : packets) {
      recorder.packets.emplace_back();
      recording->process(p);
    }
    expect_agrees_with_reference(recorder.packets);

    // The engines' own metering (native code by default) must agree as well.
    perf::PcvRegistry reg2;
    core::NfTarget target2;
    ASSERT_TRUE(core::make_named_target(name, reg2, target2));
    ConservativeModel model;
    const auto metered = target2.make_runner(nf::framework_full(), &model);
    packets = workload;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      model.begin_packet();
      metered->process(packets[i]);
      ASSERT_EQ(model.packet_cycles(), reference_cycles(recorder.packets[i]))
          << "packet " << i;
    }
  }
}

TEST(MustHitOracle, WarmCacheMatchesTextbookLru) {
  // hw::RealisticSim never clears its caches: check access/insert/contains
  // on long warm streams, including the small-cache eviction regime.
  struct Shape {
    std::size_t bytes, ways, line_pool;
  };
  for (const Shape& shape : {Shape{16 * kCacheLineBytes, 4, 48},
                             Shape{32 * 1024, 8, 4096}}) {
    SCOPED_TRACE("ways " + std::to_string(shape.ways));
    Cache cache(shape.bytes, shape.ways);
    ReferenceLru reference(shape.bytes, shape.ways);
    support::Rng rng(shape.ways);
    for (int i = 0; i < 200'000; ++i) {
      // Half the lines from set 0, so its ways overflow constantly.
      const std::uint64_t line = rng.chance(0.5)
                                     ? rng.below(shape.line_pool)
                                     : cache.sets() * rng.below(24);
      const double op = rng.uniform();
      if (op < 0.5) {
        ASSERT_EQ(cache.access(line), reference.access(line)) << "op " << i;
      } else if (op < 0.75) {
        cache.insert(line);
        reference.insert(line);
      } else {
        ASSERT_EQ(cache.contains(line), reference.contains(line)) << "op " << i;
      }
    }
    EXPECT_GT(reference.evictions(), 0u);
  }
}

}  // namespace
}  // namespace bolt::hw
