#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <map>
#include <memory>
#include <set>

#include "core/scenarios.h"
#include "dslib/bridge_state.h"
#include "dslib/contract_exprs.h"
#include "dslib/flow_table.h"
#include "dslib/lpm.h"
#include "dslib/mac_table.h"
#include "dslib/maglev.h"
#include "dslib/nat_state.h"
#include "dslib/port_allocator.h"
#include "net/workload.h"
#include "support/random.h"

namespace bolt::dslib {
namespace {

using perf::Metric;

FlowTable::Config small_config() {
  FlowTable::Config cfg;
  cfg.capacity = 64;
  cfg.ttl_ns = 1'000'000'000;
  return cfg;
}

TEST(FlowTable, GetMissOnEmpty) {
  FlowTable table(small_config());
  ir::CostMeter m;
  const auto r = table.get(42, m);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.stats.traversals, 0u);
  EXPECT_GT(m.instructions(), 0u);
}

TEST(FlowTable, PutThenGet) {
  FlowTable table(small_config());
  ir::CostMeter m;
  EXPECT_EQ(table.put(1, 100, 0, m).outcome, FlowTable::PutCase::kNew);
  const auto r = table.get(1, m);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.value, 100u);
  EXPECT_EQ(table.occupancy(), 1u);
}

TEST(FlowTable, PutUpdatesExisting) {
  FlowTable table(small_config());
  ir::CostMeter m;
  table.put(1, 100, 0, m);
  EXPECT_EQ(table.put(1, 200, 10, m).outcome, FlowTable::PutCase::kUpdate);
  EXPECT_EQ(table.get(1, m).value, 200u);
  EXPECT_EQ(table.occupancy(), 1u);
}

TEST(FlowTable, FillsToCapacityThenRejects) {
  FlowTable table(small_config());
  ir::CostMeter m;
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(table.put(k + 1000, k, 0, m).outcome, FlowTable::PutCase::kNew);
  }
  EXPECT_EQ(table.put(9999, 1, 0, m).outcome, FlowTable::PutCase::kFull);
  EXPECT_EQ(table.occupancy(), 64u);
}

TEST(FlowTable, ExpiryEvictsOldEntries) {
  FlowTable table(small_config());
  ir::CostMeter m;
  table.put(1, 10, 1'000'000'000, m);
  table.put(2, 20, 1'500'000'000, m);
  // At t=2.4s entry 1 (stamped 1.0s, ttl 1s) is stale, entry 2 is not.
  const auto r = table.expire(2'400'000'000, m);
  EXPECT_EQ(r.expired, 1u);
  EXPECT_FALSE(table.get(1, m).found);
  EXPECT_TRUE(table.get(2, m).found);
}

TEST(FlowTable, RefreshPreventsExpiry) {
  FlowTable table(small_config());
  ir::CostMeter m;
  table.put(1, 10, 1'000'000'000, m);
  table.put(1, 10, 1'900'000'000, m);  // refresh
  EXPECT_EQ(table.expire(2'400'000'000, m).expired, 0u);
}

TEST(FlowTable, StampGranularityBatchesExpiry) {
  // The paper's VigNAT bug: second-granularity stamps expire in bursts.
  FlowTable::Config cfg = small_config();
  cfg.stamp_granularity_ns = 1'000'000'000;  // one second
  FlowTable table(cfg);
  ir::CostMeter m;
  // Insert entries spread across one second; all get the same stamp.
  for (std::uint64_t k = 0; k < 10; ++k) {
    table.put(k + 1, k, 1'000'000'000 + k * 90'000'000, m);
  }
  const auto r = table.expire(2'000'000'000 + 1, m);
  EXPECT_EQ(r.expired, 10u);  // mass expiry, not gradual
}

TEST(FlowTable, EraseByKey) {
  FlowTable table(small_config());
  ir::CostMeter m;
  table.put(1, 10, 0, m);
  table.put(2, 20, 0, m);
  EXPECT_TRUE(table.erase(1, m).erased);
  EXPECT_FALSE(table.erase(1, m).erased);
  EXPECT_FALSE(table.get(1, m).found);
  EXPECT_TRUE(table.get(2, m).found);
  EXPECT_EQ(table.occupancy(), 1u);
}

TEST(FlowTable, SynthesizedStateCollides) {
  FlowTable table(small_config());
  const std::uint64_t probe = 0xabcdef;
  table.synthesize_colliding_state(32, probe, 0);
  EXPECT_EQ(table.occupancy(), 32u);
  ir::CostMeter m;
  const auto r = table.get(probe, m);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.stats.traversals, 32u);   // walks the whole chain
  EXPECT_EQ(r.stats.collisions, 32u);   // every node shares the tag
}

TEST(FlowTable, MassExpiryIsQuadratic) {
  FlowTable::Config cfg = small_config();
  cfg.capacity = 128;
  FlowTable table(cfg);
  table.synthesize_colliding_state(128, 7, 0);
  ir::CostMeter m;
  const auto r = table.expire(10'000'000'000, m);
  EXPECT_EQ(r.expired, 128u);
  // Oldest entries sit deepest in the chain: total walk ~ n^2 / 2.
  EXPECT_GE(r.total_walk, 128u * 128u / 2);
  EXPECT_EQ(table.occupancy(), 0u);
}

TEST(FlowTable, RekeyKeepsEntriesReachable) {
  FlowTable table(small_config());
  ir::CostMeter m;
  for (std::uint64_t k = 0; k < 20; ++k) table.put(k, k * 2, 0, m);
  table.rekey(0x1234);
  for (std::uint64_t k = 0; k < 20; ++k) {
    const auto r = table.get(k, m);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.value, k * 2);
  }
}

// --- contract soundness: the paper's essential property ---------------------
// For any real execution, the measured cost must never exceed the contract's
// prediction at the observed PCV binding, and should be close to it.

class FlowTableContractTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowTableContractTest, GetPutExpireAreSoundAndTight) {
  perf::PcvRegistry reg;
  const FlowPcvs p = FlowPcvs::standard(reg);
  FlowTable::Config cfg;
  cfg.capacity = 256;
  FlowTable table(cfg);
  support::Rng rng(GetParam());

  std::uint64_t now = 1'000'000'000;
  for (int op = 0; op < 3000; ++op) {
    now += rng.below(3'000'000);
    const std::uint64_t key = rng.below(300);
    ir::CostMeter m;
    perf::PcvBinding bind;
    CostShape expected;
    if (rng.chance(0.4)) {
      const auto r = table.get(key, m);
      bind.set(p.c, r.stats.collisions);
      bind.set(p.t, r.stats.traversals);
      expected = r.found ? ft_get_hit(p) : ft_get_miss(p);
    } else if (rng.chance(0.7)) {
      const auto r = table.put(key, op, now, m);
      bind.set(p.c, r.stats.collisions);
      bind.set(p.t, r.stats.traversals);
      switch (r.outcome) {
        case FlowTable::PutCase::kNew: expected = ft_put_new(p); break;
        case FlowTable::PutCase::kUpdate: expected = ft_put_update(p); break;
        case FlowTable::PutCase::kFull: expected = ft_put_full(p); break;
      }
    } else {
      const auto r = table.expire(now, m);
      bind.set(p.e, r.expired);
      bind.set(p.t, r.amortised_walk);
      bind.set(p.c, r.amortised_collisions);
      expected = ft_expire(p);
    }
    const std::int64_t pred_i =
        expected.exprs.get(Metric::kInstructions).eval(bind);
    const std::int64_t pred_m =
        expected.exprs.get(Metric::kMemoryAccesses).eval(bind);
    // The unique-line expression must never exceed the MA expression.
    ASSERT_LE(expected.unique_lines.eval(bind), pred_m);
    // Soundness: prediction >= measured.
    ASSERT_GE(pred_i, static_cast<std::int64_t>(m.instructions()));
    ASSERT_GE(pred_m, static_cast<std::int64_t>(m.accesses()));
    // Tightness: within 15% + small slack (the deliberate coalescing gap).
    EXPECT_LE(static_cast<double>(pred_i),
              1.15 * static_cast<double>(m.instructions()) + 24.0);
    EXPECT_LE(static_cast<double>(pred_m),
              1.15 * static_cast<double>(m.accesses()) + 8.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableContractTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(MacTable, LearnsAndLooksUp) {
  MacTable::Config cfg;
  cfg.capacity = 128;
  MacTable table(cfg);
  ir::CostMeter m;
  EXPECT_EQ(table.learn(0xaaa, 3, 0, m).outcome, MacTable::LearnCase::kNew);
  EXPECT_EQ(table.learn(0xaaa, 3, 1, m).outcome, MacTable::LearnCase::kKnown);
  const auto r = table.lookup(0xaaa, m);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.port, 3);
  EXPECT_FALSE(table.lookup(0xbbb, m).found);
}

TEST(MacTable, CollisionAttackTriggersRehash) {
  MacTable::Config cfg;
  cfg.capacity = 1024;
  cfg.rehash_threshold = 6;
  cfg.initial_hash_key = 0;  // the attacker knows the key
  MacTable table(cfg);
  const auto macs = net::colliding_keys(16, 0, 1024, 0, 0x020000000000ULL);
  ir::CostMeter m;
  bool rehashed = false;
  for (const std::uint64_t mac : macs) {
    const auto r = table.learn(mac, 1, 0, m);
    if (r.outcome == MacTable::LearnCase::kRehash) rehashed = true;
  }
  EXPECT_TRUE(rehashed);
  EXPECT_GE(table.rehash_count(), 1u);
  EXPECT_NE(table.hash_key(), 0u);  // key was renewed
  // All MACs still reachable after the rehash.
  for (const std::uint64_t mac : macs) {
    EXPECT_TRUE(table.lookup(mac, m).found);
  }
}

TEST(MacTable, RehashDefeatsTheAttack) {
  MacTable::Config cfg;
  cfg.capacity = 1024;
  cfg.rehash_threshold = 6;
  MacTable table(cfg);
  const auto macs = net::colliding_keys(64, 0, 1024, 0, 0x020000000000ULL);
  ir::CostMeter m;
  for (const std::uint64_t mac : macs) table.learn(mac, 1, 0, m);
  // Under the new secret key the attacker's MACs no longer pile up: the
  // worst chain is far below the station count.
  std::uint64_t worst = 0;
  for (const std::uint64_t mac : macs) {
    worst = std::max(worst, table.lookup(mac, m).stats.traversals);
  }
  EXPECT_LT(worst, 16u);
}

TEST(LpmTrie, LongestPrefixWins) {
  LpmTrie trie;
  trie.insert(0x0a000000, 8, 1);   // 10/8 -> 1
  trie.insert(0x0a010000, 16, 2);  // 10.1/16 -> 2
  trie.insert(0x0a010200, 24, 3);  // 10.1.2/24 -> 3
  ir::CostMeter m;
  EXPECT_EQ(trie.lookup(0x0a020304, m).port, 1);
  EXPECT_EQ(trie.lookup(0x0a01ff00, m).port, 2);
  EXPECT_EQ(trie.lookup(0x0a010203, m).port, 3);
  EXPECT_EQ(trie.lookup(0x0b000000, m).port, 0);  // default route
}

TEST(LpmTrie, MatchedLengthIsTheDepthWalked) {
  LpmTrie trie;
  trie.insert(0x80000000, 4, 9);
  ir::CostMeter m;
  EXPECT_EQ(trie.lookup(0x80000000, m).matched_length, 4u);
  EXPECT_EQ(trie.lookup(0x00000000, m).matched_length, 0u);
}

TEST(LpmTrie, CostMatchesTable2) {
  // Table 2: 4*l + 2 instructions, l + 1 memory accesses (upper bound).
  LpmTrie trie;
  trie.insert(0xffffff00, 24, 5);
  ir::CostMeter m;
  const auto r = trie.lookup(0xffffffff, m);
  EXPECT_EQ(r.matched_length, 24u);
  EXPECT_LE(m.instructions(), 4 * 24 + 2u);
  EXPECT_GE(m.instructions(), 3 * 24 + 2u);  // bit-dependent lower bound
  EXPECT_EQ(m.accesses(), 24 + 1u);
}

TEST(LpmDir, TierSplitAt24Bits) {
  LpmDir24_8 lpm;
  lpm.insert(0x0a000000, 8, 1);
  lpm.insert(0xc0a80000, 30, 2);  // >24-bit prefix forces tbl8
  ir::CostMeter m;
  const auto one = lpm.lookup(0x0a121212, m);
  EXPECT_EQ(one.port, 1);
  EXPECT_EQ(one.tier, LpmDir24_8::LookupCase::kOneLookup);
  const auto two = lpm.lookup(0xc0a80001, m);
  EXPECT_EQ(two.port, 2);
  EXPECT_EQ(two.tier, LpmDir24_8::LookupCase::kTwoLookups);
  // Anything sharing the /24 of a long prefix also takes two lookups, and
  // falls back to whatever shorter route covers it (here: none -> default).
  const auto spill = lpm.lookup(0xc0a800ff, m);
  EXPECT_EQ(spill.tier, LpmDir24_8::LookupCase::kTwoLookups);
  EXPECT_EQ(spill.port, 0);
}

TEST(LpmDir, AgreesWithTrieOnRandomRoutes) {
  LpmDir24_8 lpm;
  LpmTrie trie;
  support::Rng rng(77);
  std::vector<std::uint32_t> probes;
  for (int i = 0; i < 100; ++i) {
    const int len = static_cast<int>(rng.range(1, 32));
    const std::uint32_t mask = len == 32 ? ~0u : ~((1u << (32 - len)) - 1);
    const std::uint32_t prefix = static_cast<std::uint32_t>(rng.next()) & mask;
    const std::uint16_t port = static_cast<std::uint16_t>(rng.range(1, 100));
    lpm.insert(prefix, len, port);
    trie.insert(prefix, len, port);
    // First and last address of the prefix and one either side: the
    // edges of short-prefix mass writes and of tbl8 groups.
    const std::uint32_t last = prefix | ~mask;
    for (std::uint32_t addr : {prefix - 1, prefix, last, last + 1}) {
      probes.push_back(addr);
    }
  }
  for (int i = 0; i < 2000; ++i) {
    probes.push_back(static_cast<std::uint32_t>(rng.next()));
  }
  ir::CostMeter m;
  for (const std::uint32_t addr : probes) {
    EXPECT_EQ(lpm.lookup(addr, m).port, trie.lookup(addr, m).port)
        << "addr=" << addr;
  }
}

/// Resident pages of this process, from /proc/self/statm (0 if unreadable).
std::size_t resident_pages() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size = 0;
  std::size_t resident = 0;
  statm >> size >> resident;
  return resident;
}

TEST(LpmDir, BuildingCommitsOnlyTheWrittenPages) {
  // The tables are 48 MB of address space, but a table holding the
  // canonical routes plus a /8 writes under 200 KB of it; lookups of
  // unrouted addresses read the shared zero page.
  const std::size_t before = resident_pages();
  if (before == 0) GTEST_SKIP() << "/proc/self/statm is not readable";
  std::vector<LpmDir24_8> tables(2);
  ir::CostMeter m;
  for (LpmDir24_8& lpm : tables) {
    for (const core::DirLpmRoute& r : core::dir_lpm_routes()) {
      lpm.insert(r.prefix, r.length, r.port);
    }
    lpm.insert(0x0a000000u, 8, 7);  // 10.0.0.0/8
    EXPECT_EQ(lpm.lookup(0x0a010203u, m).port, 7);
    EXPECT_EQ(lpm.lookup(0xc6120741u, m).port, 5);  // the /30
    for (std::uint32_t addr = 0; addr < 0xff000000u; addr += 0x01000100u) {
      lpm.lookup(addr, m);
    }
  }
  const double grown_mb = (double(resident_pages()) - double(before)) *
                          double(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
  EXPECT_LT(grown_mb, 4.0);
}

TEST(Maglev, TableIsFullAndBalanced) {
  MaglevRing::Config cfg;
  cfg.backend_count = 8;
  cfg.table_size = 4099;
  MaglevRing ring(cfg);
  std::map<std::uint32_t, std::size_t> share;
  for (std::size_t i = 0; i < ring.table_size(); ++i) {
    ++share[ring.table_entry(i)];
  }
  ASSERT_EQ(share.size(), 8u);
  for (const auto& [backend, count] : share) {
    // Maglev guarantees near-equal shares.
    EXPECT_NEAR(static_cast<double>(count), 4099.0 / 8, 4099.0 / 8 * 0.2);
  }
}

TEST(Maglev, LookupIsDeterministic) {
  MaglevRing ring({4, 211, 5'000'000'000});
  ir::CostMeter m;
  const auto a = ring.lookup(12345, m);
  const auto b = ring.lookup(12345, m);
  EXPECT_EQ(a.backend, b.backend);
}

TEST(Maglev, SelectAliveSkipsDeadBackends) {
  MaglevRing ring({4, 211, 5'000'000'000});
  ring.all_alive(1'000'000'000);
  ir::CostMeter m;
  const auto home = ring.select_alive(999, 1'000'000'001, m);
  EXPECT_EQ(home.ring_steps, 0u);
  ring.kill_backend(home.backend);
  const auto moved = ring.select_alive(999, 1'000'000'001, m);
  EXPECT_NE(moved.backend, home.backend);
  EXPECT_GE(moved.ring_steps, 1u);
}

TEST(Maglev, HeartbeatRevives) {
  MaglevRing ring({4, 211, 5'000'000'000});
  ir::CostMeter m;
  EXPECT_FALSE(ring.alive(2, 1'000'000'000, m));
  ring.heartbeat(2, 1'000'000'000, m);
  EXPECT_TRUE(ring.alive(2, 1'000'000'001, m));
  EXPECT_FALSE(ring.alive(2, 7'000'000'000, m));  // timed out
}

TEST(Allocators, ExhaustionAndReuse) {
  for (const bool use_b : {false, true}) {
    std::unique_ptr<PortAllocator> alloc;
    if (use_b) alloc = std::make_unique<PortAllocatorB>(1000, 4);
    else alloc = std::make_unique<PortAllocatorA>(1000, 4);
    ir::CostMeter m;
    std::set<std::uint16_t> ports;
    for (int i = 0; i < 4; ++i) {
      const auto r = alloc->alloc(m);
      ASSERT_TRUE(r.ok);
      ports.insert(r.port);
    }
    EXPECT_EQ(ports.size(), 4u);
    EXPECT_FALSE(alloc->alloc(m).ok);
    alloc->free(*ports.begin(), m);
    EXPECT_TRUE(alloc->alloc(m).ok);
  }
}

TEST(Allocators, BProbesGrowWithOccupancy) {
  PortAllocatorB alloc(1000, 256);
  ir::CostMeter m;
  // Fill the whole range; the cursor wraps back to slot 0.
  std::vector<std::uint16_t> held;
  for (int i = 0; i < 256; ++i) held.push_back(alloc.alloc(m).port);
  // Free one slot far past the cursor: the next allocation must scan
  // through the occupied prefix to reach it.
  alloc.free(held[10], m);
  const auto r = alloc.alloc(m);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.port, held[10]);
  EXPECT_EQ(r.probes, 11u);
  // At low occupancy the scan hits immediately.
  PortAllocatorB fresh(1000, 256);
  EXPECT_EQ(fresh.alloc(m).probes, 1u);
}

TEST(Allocators, ACostIsFlat) {
  PortAllocatorA alloc(1000, 256);
  ir::CostMeter m1;
  alloc.alloc(m1);
  // Fill most of the range.
  ir::CostMeter mtmp;
  for (int i = 0; i < 200; ++i) alloc.alloc(mtmp);
  ir::CostMeter m2;
  alloc.alloc(m2);
  EXPECT_EQ(m1.instructions(), m2.instructions());
}

TEST(NatState, PathologicalSynthesisIsConsistent) {
  perf::PcvRegistry reg;
  NatState::Config cfg;
  cfg.flow.capacity = 128;
  NatState nat(cfg, reg);
  nat.synthesize_pathological(/*probe_key=*/777, 128, /*stamp=*/0);
  EXPECT_EQ(nat.internal_table().occupancy(), 128u);
  EXPECT_EQ(nat.external_table().occupancy(), 128u);
  EXPECT_EQ(nat.allocator().in_use(), 128u);
  // A packet far in the future mass-expires everything and releases the
  // ports and reverse mappings.
  DispatchEnv env;
  nat.bind(env);
  net::Packet pkt =
      net::packet_for_tuple(net::tuple_for_index(1), 100'000'000'000ULL);
  ir::CostMeter m;
  const auto out = env.call(NatState::kExpire, 0, 0, pkt, m);
  EXPECT_EQ(out.v0, 128u);
  EXPECT_EQ(nat.internal_table().occupancy(), 0u);
  EXPECT_EQ(nat.external_table().occupancy(), 0u);
  EXPECT_EQ(nat.allocator().in_use(), 0u);
}

TEST(NatState, AddFlowCreatesBothMappings) {
  perf::PcvRegistry reg;
  NatState::Config cfg;
  cfg.flow.capacity = 64;
  NatState nat(cfg, reg);
  DispatchEnv env;
  nat.bind(env);
  net::Packet pkt = net::packet_for_tuple(net::tuple_for_index(5), 1'000'000'000);
  ir::CostMeter m;
  const auto added = env.call(NatState::kAddFlow, 0, 0, pkt, m);
  EXPECT_EQ(added.v0, 1u);
  const std::uint16_t ext_port = static_cast<std::uint16_t>(added.v1);
  // Internal lookup now hits.
  const auto hit = env.call(NatState::kLookupInt, 0, 0, pkt, m);
  EXPECT_EQ(hit.v0, 1u);
  EXPECT_EQ(hit.v1, ext_port);
  // Return traffic (dst port = allocated port) resolves the reverse mapping.
  net::FiveTuple back = net::tuple_for_index(5).reversed();
  back.dst_port = ext_port;
  net::Packet ret = net::packet_for_tuple(back, 1'000'100'000);
  const auto rev = env.call(NatState::kLookupExt, 0, 0, ret, m);
  EXPECT_EQ(rev.v0, 1u);
  const auto tuple = net::tuple_for_index(5);
  EXPECT_EQ(rev.v1 >> 16, tuple.src_ip.value);
  EXPECT_EQ(rev.v1 & 0xffff, tuple.src_port);
}

}  // namespace
}  // namespace bolt::dslib
