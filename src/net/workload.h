// Workload generation — the reproduction's stand-in for MoonGen + CASTAN.
//
// Every evaluation scenario in the paper is driven by a packet class
// (paper §5.1): unconstrained/adversarial traffic, broadcast/unicast MAC
// traffic, new vs established flows, heartbeats, LPM prefixes of specific
// lengths. The generators here synthesise PCAP-able packet vectors for each
// of those classes deterministically from a seed.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/addresses.h"
#include "net/flow.h"
#include "net/packet.h"

namespace bolt::net {

/// Receives a generator's packets one at a time, in order. Each generator
/// below comes in two forms: one streams its packets into a sink, the
/// other returns them as a vector (the same packets, collected). A caller
/// that writes packets out as they come, as `bolt_cli gen` does, holds no
/// memory per packet.
using PacketSink = std::function<void(Packet&&)>;

/// Timing knobs shared by all generators.
struct TrafficTiming {
  TimestampNs start_ns = 1'000'000'000;  ///< first packet timestamp
  TimestampNs gap_ns = 10'000;           ///< inter-arrival (100kpps default)
};

/// UDP packets drawn uniformly from a fixed pool of five-tuple flows.
struct UniformSpec {
  std::uint64_t seed = 1;
  std::size_t flow_pool = 1024;   ///< number of distinct flows
  std::size_t packet_count = 10'000;
  TrafficTiming timing;
  std::uint16_t in_port = 0;
  bool internal_side = true;  ///< NAT direction (internal -> external)
};
std::vector<Packet> uniform_random_traffic(const UniformSpec& spec);
void uniform_random_traffic(const UniformSpec& spec, const PacketSink& sink);

/// Heavy-tailed flow-popularity traffic: flow ranks are drawn from a Zipf
/// distribution (P(rank r) ~ 1/r^skew), the regime where per-class hit
/// rates, chain lengths, and therefore violation rates diverge most from
/// uniform traffic. Rank 1 is the most popular flow; `skew` ~ 1.0 matches
/// the classic Internet mix, higher values concentrate harder. Ranks are
/// mapped to five-tuples through a seed-keyed permutation so the popular
/// flows do not cluster in tuple space (and therefore spread across
/// monitor partitions and hash buckets).
struct ZipfSpec {
  std::uint64_t seed = 1;
  std::size_t flow_pool = 4096;  ///< number of distinct flows (ranks)
  double skew = 1.0;             ///< Zipf exponent; 0 degenerates to uniform
  std::size_t packet_count = 10'000;
  TrafficTiming timing;
  std::uint16_t in_port = 0;
  bool internal_side = true;
};
std::vector<Packet> zipf_traffic(const ZipfSpec& spec);
void zipf_traffic(const ZipfSpec& spec, const PacketSink& sink);

/// Long-running operator traffic: a simulated multi-day trace compressed
/// into a bounded packet count. Traffic arrives in `bursts` evenly spaced
/// bursts across `duration_ns` (the paper's operator reality: diurnal /
/// periodic load, not a constant firehose). Within a burst, packets are
/// `burst_gap_ns` apart and flows are drawn Zipf from a working set that
/// rotates every `rotation_bursts` bursts — so the distinct-flow count
/// over the whole run vastly exceeds any flow table's capacity, and
/// between bursts every cached entry goes stale (TTLs are seconds, burst
/// spacing is hours). Each burst therefore opens with a mass-expiry event
/// — the paper's §5.3 pathological scenario — making this the canonical
/// input for the monitor's state-expiry and bounded-memory guarantees.
/// Deterministic in `seed`; a prefix of the trace is itself a valid
/// shorter run.
struct LongRunSpec {
  std::uint64_t seed = 1;
  std::size_t flow_pool = 1024;  ///< active working set (Zipf ranks)
  double skew = 1.1;
  std::size_t packet_count = 100'000;
  TimestampNs start_ns = 1'000'000'000;
  std::uint64_t duration_ns = 7ull * 24 * 3600 * 1'000'000'000ull;  ///< a week
  std::size_t bursts = 168;          ///< one per simulated hour by default
  std::uint64_t burst_gap_ns = 10'000;  ///< 100kpps within a burst
  std::size_t rotation_bursts = 4;   ///< working set rotates this often
  std::uint16_t in_port = 0;
  bool internal_side = true;
};
std::vector<Packet> long_run_traffic(const LongRunSpec& spec);
void long_run_traffic(const LongRunSpec& spec, const PacketSink& sink);

/// Flow-churn traffic: a working set of `active_flows` flows; with
/// probability `churn` a packet retires the oldest flow and starts a fresh
/// one. High churn exercises allocation; low churn exercises lookups.
struct ChurnSpec {
  std::uint64_t seed = 1;
  std::size_t active_flows = 512;
  double churn = 0.05;  ///< probability a packet begins a brand-new flow
  std::size_t packet_count = 20'000;
  TrafficTiming timing;
  std::uint16_t in_port = 0;
};
std::vector<Packet> churn_traffic(const ChurnSpec& spec);
void churn_traffic(const ChurnSpec& spec, const PacketSink& sink);

/// Ethernet traffic for the MAC bridge: a pool of source stations sending
/// to known stations (unicast) or to ff:ff:ff:ff:ff:ff (broadcast).
struct BridgeSpec {
  std::uint64_t seed = 1;
  std::size_t stations = 256;
  double broadcast_fraction = 0.0;
  std::size_t packet_count = 10'000;
  TrafficTiming timing;
};
std::vector<Packet> bridge_traffic(const BridgeSpec& spec);
void bridge_traffic(const BridgeSpec& spec, const PacketSink& sink);

/// Adversarial bridge traffic (CASTAN-like): source MACs chosen so that
/// *every* station hashes to the same bucket of a `table_buckets`-bucket
/// table under the public mix64 hash (secret key assumed zero / leaked).
struct BridgeAttackSpec {
  std::uint64_t seed = 1;
  std::size_t stations = 64;
  std::size_t table_buckets = 1024;  ///< must be a power of two
  std::size_t packet_count = 2'000;
  TrafficTiming timing;
};
void bridge_collision_attack(const BridgeAttackSpec& spec,
                             const PacketSink& sink);

/// Brute-force search for `count` distinct keys whose hash lands in bucket
/// `bucket` of a power-of-two table (under mix64 ^ key0). Exposed separately
/// so tests and state-synthesis can reuse it.
std::vector<std::uint64_t> colliding_keys(std::size_t count, std::size_t bucket,
                                          std::size_t table_buckets,
                                          std::uint64_t hash_key = 0,
                                          std::uint64_t start = 1);

/// The five-tuple flavour of colliding_keys: walks tuple_for_index() from
/// `start` and keeps tuples whose FiveTuple::key() lands in `bucket` of a
/// power-of-two flow table under `hash_key`. This is how an attacker with
/// the (public or leaked) table key builds bucket-chain traffic against the
/// NAT's and LB's flow tables — the adversarial synthesiser's raw material.
std::vector<FiveTuple> colliding_tuples(std::size_t count, std::size_t bucket,
                                        std::size_t table_buckets,
                                        std::uint64_t hash_key = 0,
                                        bool internal = true,
                                        std::uint64_t start = 0);

/// IPv4 traffic whose destination addresses match LPM prefixes with lengths
/// drawn from [min_prefix_len, max_prefix_len]. Used for LPM1 (>24) and
/// LPM2 (<=24).
struct LpmSpec {
  std::uint64_t seed = 1;
  int min_prefix_len = 8;
  int max_prefix_len = 24;
  std::size_t packet_count = 10'000;
  TrafficTiming timing;
  /// Route set generator callback: receives (prefix, length, index).
  /// The same routes must be installed in the router under test; see
  /// `lpm_route_plan` below.
  std::size_t routes_per_length = 16;
};
struct LpmRoute {
  std::uint32_t prefix = 0;  ///< host-order, low bits zero
  int length = 0;
  std::uint16_t port = 0;
};
struct LpmWorkload {
  std::vector<LpmRoute> routes;
  std::vector<Packet> packets;
  std::vector<int> matched_length;  ///< per packet, expected LPM match length
};
LpmWorkload lpm_traffic(const LpmSpec& spec);

/// Headroom-eroding traffic for the contract-drift detector (obs/drift.h):
/// IPv4-options packets for the static router whose options walk stays a
/// fixed `option_words` words long (so the contract's loop bound — and
/// therefore the predicted cost — is constant) while the *mix* of words
/// shifts over time: window by window, cheap NOP words are replaced by
/// RFC 781 timestamp words, the loop body's expensive branch. Measured
/// cost rises linearly toward the per-word worst case the bound charges,
/// so p99 utilization ramps monotonically toward — but never past — the
/// bound: zero violations, unambiguous drift. One erosion step per
/// `window_ns` window (align window_ns with epoch_ns * delta_every so
/// each delta window sees one step). Deterministic in `seed`.
struct DriftSpec {
  std::uint64_t seed = 1;
  std::size_t flow_pool = 256;
  std::size_t windows = 11;  ///< erosion steps (cheap-only -> expensive-only)
  std::uint64_t window_ns = 1'000'000'000;
  std::size_t packets_per_window = 1'000;
  TimestampNs start_ns = 1'000'000'000;
  std::size_t option_words = 10;  ///< fixed walk length (10 => maximal ihl 15)
  std::uint16_t in_port = 0;
};
std::vector<Packet> drift_traffic(const DriftSpec& spec);
void drift_traffic(const DriftSpec& spec, const PacketSink& sink);

/// Maglev heartbeat datagrams from backend servers (LB5 class).
struct HeartbeatSpec {
  std::uint64_t seed = 1;
  std::size_t backends = 16;
  std::size_t packet_count = 1'000;
  TrafficTiming timing;
  std::uint16_t heartbeat_port = 7000;  ///< UDP dst port the LB recognises
};
std::vector<Packet> heartbeat_traffic(const HeartbeatSpec& spec);
void heartbeat_traffic(const HeartbeatSpec& spec, const PacketSink& sink);

/// A single minimal non-IPv4 frame (the "invalid packet" class).
Packet invalid_packet(TimestampNs ts = 1'000'000'000);

/// Builds the canonical UDP packet for a five-tuple (convenience used by
/// generators, tests, and state synthesis).
Packet packet_for_tuple(const FiveTuple& t, TimestampNs ts,
                        std::uint16_t in_port = 0);

/// Deterministic five-tuple for an index (distinct tuples for distinct
/// indices). `internal` picks 10.0.0.0/8 sources (NAT inside) vs
/// 198.18.0.0/15 sources (outside).
FiveTuple tuple_for_index(std::uint64_t index, bool internal = true);

}  // namespace bolt::net
