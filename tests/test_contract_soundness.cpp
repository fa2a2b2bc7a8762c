// Method-contract soundness sweeps: for every stateful method of every
// composite, across randomized workloads, the manually derived contract
// evaluated at the reported PCVs must dominate the metered cost — and the
// unique-line expression must never exceed the memory-access expression
// (otherwise the cycle derivation would be ill-formed).
//
// This is the library-level half of the paper's "essential property"
// (§2.2); test_pipeline.cpp checks the composed, NF-level half.
#include <gtest/gtest.h>

#include "core/scenarios.h"
#include "dslib/bridge_state.h"
#include "dslib/lb_state.h"
#include "dslib/nat_state.h"
#include "net/workload.h"
#include "support/random.h"

namespace bolt::dslib {
namespace {

using perf::Metric;

/// Calls a method through the dispatcher while checking the outcome against
/// the method table's contract.
class ContractChecker {
 public:
  ContractChecker(DispatchEnv& env, const MethodTable& methods)
      : env_(env), methods_(methods) {}

  ir::CallOutcome call(std::int64_t method, std::uint64_t arg0,
                       std::uint64_t arg1, const net::Packet& packet) {
    ir::CostMeter meter;
    ir::CallOutcome out = env_.call(method, arg0, arg1, packet, meter);
    const perf::MethodContract& contract = methods_.at(method).contract;
    EXPECT_TRUE(contract.has_case(out.case_label))
        << methods_.at(method).name << " case " << out.case_label;
    if (!contract.has_case(out.case_label)) return out;
    const auto& exprs = contract.for_case(out.case_label);
    const std::int64_t pred_i =
        exprs.get(Metric::kInstructions).eval(out.pcvs.binding());
    const std::int64_t pred_m =
        exprs.get(Metric::kMemoryAccesses).eval(out.pcvs.binding());
    const std::int64_t unique =
        contract.unique_lines(out.case_label).eval(out.pcvs.binding());
    EXPECT_GE(pred_i, static_cast<std::int64_t>(meter.instructions()))
        << methods_.at(method).name << "/" << out.case_label;
    EXPECT_GE(pred_m, static_cast<std::int64_t>(meter.accesses()))
        << methods_.at(method).name << "/" << out.case_label;
    EXPECT_LE(unique, pred_m)
        << methods_.at(method).name << "/" << out.case_label;
    EXPECT_GE(unique, 0) << methods_.at(method).name;
    ++checked_;
    return out;
  }

  std::size_t checked() const { return checked_; }

 private:
  DispatchEnv& env_;
  const MethodTable& methods_;
  std::size_t checked_ = 0;
};

class BridgeMethodSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BridgeMethodSoundness, AllCasesDominated) {
  perf::PcvRegistry reg;
  MacTable::Config cfg;
  cfg.capacity = 512;
  cfg.ttl_ns = 2'000'000;
  cfg.rehash_threshold = 3;  // low threshold: rehash happens in the sweep
  cfg.initial_hash_key = 0;
  BridgeState state(cfg, reg);
  DispatchEnv env;
  state.bind(env);
  const MethodTable methods = BridgeState::method_table(reg, cfg);
  ContractChecker checker(env, methods);

  // Adversarial MACs guarantee long chains and an eventual rehash.
  const auto attack = net::colliding_keys(48, 0, 512, 0, 0x020000000000ULL);
  support::Rng rng(GetParam());
  net::Packet pkt = net::packet_for_tuple(net::tuple_for_index(1), 0);
  for (int i = 0; i < 4000; ++i) {
    pkt.set_timestamp_ns(1'000'000'000 + std::uint64_t(i) * 7'000);
    const std::uint64_t mac = rng.chance(0.3)
                                  ? attack[rng.below(attack.size())]
                                  : 0x020000300000ULL + rng.below(600);
    switch (rng.below(3)) {
      case 0:
        checker.call(BridgeState::kExpire, 0, 0, pkt);
        break;
      case 1:
        checker.call(BridgeState::kLearn, mac, rng.below(8), pkt);
        break;
      default:
        checker.call(BridgeState::kLookup, mac, 0, pkt);
        break;
    }
  }
  EXPECT_EQ(checker.checked(), 4000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BridgeMethodSoundness,
                         ::testing::Values(1, 2, 3));

class NatMethodSoundness
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(NatMethodSoundness, AllCasesDominated) {
  const auto [seed, use_b] = GetParam();
  perf::PcvRegistry reg;
  NatState::Config cfg;
  cfg.flow.capacity = 256;
  cfg.flow.ttl_ns = 3'000'000;
  cfg.allocator = use_b ? NatState::AllocatorKind::kB
                        : NatState::AllocatorKind::kA;
  NatState state(cfg, reg);
  DispatchEnv env;
  state.bind(env);
  const MethodTable methods = NatState::method_table(reg, cfg);
  ContractChecker checker(env, methods);

  support::Rng rng(seed);
  for (int i = 0; i < 4000; ++i) {
    const net::TimestampNs now = 1'000'000'000 + std::uint64_t(i) * 9'000;
    const std::uint64_t flow = rng.below(400);
    net::Packet pkt = net::packet_for_tuple(net::tuple_for_index(flow), now);
    switch (rng.below(4)) {
      case 0:
        checker.call(NatState::kExpire, 0, 0, pkt);
        break;
      case 1:
        checker.call(NatState::kLookupInt, 0, 0, pkt);
        break;
      case 2: {
        net::Packet ext = net::packet_for_tuple(
            net::tuple_for_index(flow, false), now, 1);
        checker.call(NatState::kLookupExt, 0, 0, ext);
        break;
      }
      default: {
        // Only add flows that are not yet mapped (the NF's usage pattern).
        ir::CostMeter probe_meter;
        const auto probe =
            env.call(NatState::kLookupInt, 0, 0, pkt, probe_meter);
        if (probe.v0 == 0) checker.call(NatState::kAddFlow, 0, 0, pkt);
        break;
      }
    }
  }
  EXPECT_GT(checker.checked(), 2000u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndAllocators, NatMethodSoundness,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Bool()));

class LbMethodSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LbMethodSoundness, AllCasesDominated) {
  perf::PcvRegistry reg;
  LbState::Config cfg;
  cfg.flow.capacity = 256;
  cfg.flow.ttl_ns = 3'000'000;
  cfg.ring.backend_count = 8;
  cfg.ring.table_size = 211;
  LbState state(cfg, reg);
  DispatchEnv env;
  state.bind(env);
  const MethodTable methods = LbState::method_table(reg, cfg);
  ContractChecker checker(env, methods);

  support::Rng rng(GetParam());
  state.ring().all_alive(1'000'000'000);
  for (int i = 0; i < 4000; ++i) {
    const net::TimestampNs now = 1'000'000'000 + std::uint64_t(i) * 9'000;
    const std::uint64_t flow = rng.below(400);
    net::Packet pkt =
        net::packet_for_tuple(net::tuple_for_index(flow, false), now, 1);
    // Occasionally flap a backend to exercise dead paths and ring walks.
    if (rng.chance(0.01)) {
      state.ring().kill_backend(static_cast<std::uint32_t>(rng.below(8)));
    }
    switch (rng.below(5)) {
      case 0:
        checker.call(LbState::kExpire, 0, 0, pkt);
        break;
      case 1:
        checker.call(LbState::kFlowLookup, 0, 0, pkt);
        break;
      case 2:
        checker.call(LbState::kBackendAlive, rng.below(8), 0, pkt);
        break;
      case 3: {
        // RingSelect only for unmapped flows; Reselect only for mapped.
        ir::CostMeter probe_meter;
        const auto probe =
            env.call(LbState::kFlowLookup, 0, 0, pkt, probe_meter);
        checker.call(probe.v0 != 0 ? LbState::kReselect : LbState::kRingSelect,
                     0, 0, pkt);
        break;
      }
      default: {
        net::HeartbeatSpec hb;
        hb.backends = 8;
        hb.packet_count = 1;
        hb.seed = rng.next();
        auto beat = net::heartbeat_traffic(hb);
        beat[0].set_timestamp_ns(now);
        checker.call(LbState::kHeartbeat, 0, 0, beat[0]);
        break;
      }
    }
  }
  EXPECT_EQ(checker.checked(), 4000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LbMethodSoundness, ::testing::Values(1, 2, 3));

class LpmContractSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpmContractSoundness, TrieAndDirDominated) {
  perf::PcvRegistry reg;
  LpmTrieState trie_state(reg);
  LpmDirState dir_state(reg);
  support::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const int len = static_cast<int>(rng.range(4, 32));
    const std::uint32_t mask = len == 32 ? ~0u : ~((1u << (32 - len)) - 1);
    const std::uint32_t prefix = static_cast<std::uint32_t>(rng.next()) & mask;
    trie_state.trie().insert(prefix, len, static_cast<std::uint16_t>(len));
    dir_state.table().insert(prefix, len, static_cast<std::uint16_t>(len));
  }
  DispatchEnv trie_env, dir_env;
  trie_state.bind(trie_env);
  dir_state.bind(dir_env);
  const MethodTable trie_methods = LpmTrieState::method_table(reg);
  const MethodTable dir_methods = LpmDirState::method_table(reg);
  ContractChecker trie_check(trie_env, trie_methods);
  ContractChecker dir_check(dir_env, dir_methods);
  net::Packet pkt = net::packet_for_tuple(net::tuple_for_index(1), 0);
  for (int i = 0; i < 3000; ++i) {
    const std::uint32_t addr = static_cast<std::uint32_t>(rng.next());
    trie_check.call(LpmTrieState::kLookup, addr, 0, pkt);
    dir_check.call(LpmDirState::kLookup, addr, 0, pkt);
  }
  EXPECT_EQ(trie_check.checked(), 3000u);
  EXPECT_EQ(dir_check.checked(), 3000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmContractSoundness,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace bolt::dslib
