#include "adversary/adversary.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "core/bolt.h"
#include "core/scenarios.h"
#include "core/targets.h"
#include "dslib/bridge_state.h"
#include "dslib/lb_state.h"
#include "dslib/nat_state.h"
#include "monitor/monitor.h"
#include "monitor/partition.h"
#include "net/flow.h"
#include "net/headers.h"
#include "net/packet_builder.h"
#include "net/workload.h"
#include "nf/framework.h"
#include "support/assert.h"

namespace bolt::adversary {

namespace {

using perf::Metric;
using perf::kAllMetrics;
using perf::metric_index;

/// Hard cap on any brute-force key/tuple search. The constraints we search
/// under (partition residue x hash bucket) have density >= 1/2^16 for every
/// shipped configuration, so tripping this means a driver bug, not bad
/// luck.
constexpr std::uint64_t kSearchBudget = 64'000'000;

// ---------------------------------------------------------------------------
// Shadow: a bit-exact model of the monitor's measurement side. One
// monitor::PartitionRunner per flow-affine partition — the very runner the
// monitor steps its partitions through, cycle meter off — advanced in
// emission order, so the class and PCVs observed here are exactly what the
// replay will see.
// ---------------------------------------------------------------------------
class Shadow {
 public:
  Shadow(const std::string& nf, const perf::Contract& contract,
         const perf::PcvRegistry& reg, const AdversaryOptions& opts)
      : options_(monitor_options(opts)),
        compiled_(contract, reg, options_),
        row_(compiled_.slot_stride) {
    const auto factory = monitor::MonitorEngine::named_factory(nf);
    runners_.reserve(options_.partitions);
    for (std::size_t p = 0; p < options_.partitions; ++p) {
      runners_.push_back(std::make_unique<monitor::PartitionRunner>(
          compiled_, options_, factory));
    }
  }

  struct Outcome {
    std::uint32_t entry = kNoEntry;
    /// Contract bound per metric at the observed PCVs (attributed only).
    std::array<std::int64_t, 3> predicted{};
    net::Packet processed;   ///< post-NF bytes (rewrites readable)
    net::NfVerdict verdict = net::NfVerdict::kDrop;
  };

  std::size_t partition_of(const net::Packet& p) const {
    return monitor::partition_of(p, options_.partitions);
  }

  /// Processes `p` in its partition and COMMITS the state change — every
  /// committed packet must become part of the trace, or shadow and replay
  /// state histories diverge.
  Outcome commit(const net::Packet& p) {
    monitor::PartitionRunner& part = *runners_[partition_of(p)];
    Outcome out;
    out.entry = part.step(p).entry;
    out.processed = part.processed();
    out.verdict = part.run().verdict;
    if (out.entry != kNoEntry) {
      part.fill_row(row_.data());
      for (const Metric m : kAllMetrics) {
        const int mi = metric_index(m);
        out.predicted[mi] = compiled_.bounds[out.entry][mi].eval_slots(
            row_.data());
      }
    }
    return out;
  }

  core::NfTarget& target(std::size_t partition) {
    return runners_[partition]->target();
  }

 private:
  static monitor::MonitorOptions monitor_options(const AdversaryOptions& o) {
    monitor::MonitorOptions m;
    m.partitions = o.partitions;
    m.epoch_ns = o.epoch_ns;
    m.framework = o.framework;
    m.check_cycles = false;
    return m;
  }

  monitor::MonitorOptions options_;
  monitor::CompiledContract compiled_;
  std::vector<std::unique_ptr<monitor::PartitionRunner>> runners_;
  std::vector<std::uint64_t> row_;  ///< reused dense PCV row
};

// ---------------------------------------------------------------------------
// Emitter: owns the trace under construction, the packet clock, and the
// per-class bookkeeping. emit() = commit to the shadow + append to the
// trace + record the observed attribution and the bound at the observed
// PCVs. There is deliberately no "try without committing": every processed
// packet ships.
// ---------------------------------------------------------------------------
class Emitter {
 public:
  Emitter(Shadow& shadow, AdversarialTrace& trace,
          const AdversaryOptions& opts)
      : shadow_(shadow),
        trace_(trace),
        opts_(opts),
        clock_(opts.start_ns) {}

  Shadow::Outcome emit(net::Packet p) {
    p.set_timestamp_ns(clock_);
    clock_ += opts_.gap_ns;
    Shadow::Outcome out = shadow_.commit(p);
    PacketPlan plan;
    plan.entry = out.entry;
    plan.predicted = out.predicted;
    if (out.entry != kNoEntry) {
      ClassPlan& cp = trace_.classes[out.entry];
      ++cp.packets;
      cp.reached = true;
    }
    trace_.packets.push_back(std::move(p));
    trace_.plans.push_back(plan);
    return out;
  }

  /// Jumps the packet clock forward (heartbeat-silence gaps etc.). Time
  /// only moves forward — the replay partitions assume monotone stamps.
  void advance_clock(std::uint64_t ns) { clock_ += ns; }

  void note(std::uint32_t entry, const std::string& text) {
    if (entry < trace_.classes.size() && trace_.classes[entry].note.empty()) {
      trace_.classes[entry].note = text;
    }
  }
  void note_class(const std::string& input_class, const std::string& text) {
    for (ClassPlan& cp : trace_.classes) {
      if (cp.input_class == input_class && cp.note.empty()) cp.note = text;
    }
  }

  std::size_t probes() const { return opts_.probes_per_class; }
  Shadow& shadow() { return shadow_; }

 private:
  Shadow& shadow_;
  AdversarialTrace& trace_;
  AdversaryOptions opts_;
  net::TimestampNs clock_;
};

// ---------------------------------------------------------------------------
// Witness materialisation: turn the solver's raw byte-level witness into a
// well-formed frame through PacketBuilder (correct lengths and checksums,
// minimum frame size) whenever the witness parses as plain Ethernet/IPv4/
// {UDP,TCP} without options; anything else — non-IP frames, IP options,
// exotic protocols — replays the solver's bytes verbatim, because those
// bytes *are* the class membership proof.
// ---------------------------------------------------------------------------
net::Packet materialize_witness(const net::Packet& witness) {
  const auto eth = net::parse_ethernet(witness.bytes());
  if (!eth || eth->ether_type != net::kEtherTypeIpv4) return witness;
  const auto ip = net::parse_ipv4(witness.bytes(), net::kEthernetHeaderSize);
  if (!ip || ip->has_options()) return witness;
  if (ip->protocol != net::kIpProtoUdp && ip->protocol != net::kIpProtoTcp) {
    return witness;
  }
  const std::size_t l4_off = net::kEthernetHeaderSize + ip->header_size();
  net::PacketBuilder b;
  b.eth(eth->src, eth->dst).ipv4(ip->src, ip->dst, ip->protocol, ip->ttl);
  if (ip->protocol == net::kIpProtoUdp) {
    const auto udp = net::parse_udp(witness.bytes(), l4_off);
    if (!udp) return witness;
    b.udp(udp->src_port, udp->dst_port);
  } else {
    const auto tcp = net::parse_tcp(witness.bytes(), l4_off);
    if (!tcp) return witness;
    b.tcp(tcp->src_port, tcp->dst_port);
  }
  b.in_port(witness.in_port());
  return b.build();
}

/// class_key -> pristine witness packet for every solved path (first path
/// in canonical order wins; coalesced classes share the key).
std::unordered_map<std::string, net::Packet> witness_map(
    const std::vector<core::PathReport>& paths) {
  std::unordered_map<std::string, net::Packet> out;
  for (const core::PathReport& r : paths) {
    if (r.solved) out.emplace(r.class_key, r.input);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Search helpers. All deterministic scans with an explicit budget.
// ---------------------------------------------------------------------------

/// First candidate c >= *cursor for which pred(c); advances *cursor past it.
template <typename Pred>
std::uint64_t scan(std::uint64_t* cursor, const char* what, Pred pred) {
  for (std::uint64_t tries = 0; tries < kSearchBudget; ++tries) {
    const std::uint64_t c = (*cursor)++;
    if (pred(c)) return c;
  }
  BOLT_CHECK(false, std::string("adversary: search budget exhausted for ") +
                        what);
  return 0;
}

// --- bridge ---------------------------------------------------------------

net::Packet bridge_frame(std::uint64_t src_mac, std::uint64_t dst_mac,
                         std::uint16_t in_port = 2) {
  net::PacketBuilder b;
  b.eth(net::MacAddress::from_u64(src_mac), net::MacAddress::from_u64(dst_mac))
      .ipv4(net::Ipv4Address::from_octets(10, 0, 0, 1),
            net::Ipv4Address::from_octets(10, 0, 0, 2))
      .udp(4000, 4001)
      .in_port(in_port);
  return b.build();
}

constexpr std::uint64_t kBcastMac = 0xffffffffffffULL;

/// The MAC-learning bridge. Stateful sequences live in one "home"
/// partition — the attacker's version of pinning one RSS queue — so table
/// fills and collision chains actually accumulate in the state instance
/// the probe packet will hit.
void drive_bridge(Emitter& em, const AdversaryOptions& opts) {
  Shadow& sh = em.shadow();
  const std::size_t home = 0;
  auto& bridge = em.shadow()
                     .target(home)
                     .instance.state_as<dslib::BridgeState>();
  auto& table = bridge.mac_table();

  // Locally administered MAC pool, offset by the seed.
  std::uint64_t cursor = 0x020000300000ULL + (opts.seed % 0xffff) * 0x10000ULL;
  const auto src_for_dst = [&](std::uint64_t dst) {
    return scan(&cursor, "bridge src MAC in home partition", [&](std::uint64_t c) {
      return sh.partition_of(bridge_frame(c, dst)) == home;
    });
  };

  // A destination never learned as a source: lookups on it always miss.
  const std::uint64_t kMissDst = 0x020000200001ULL;

  // learn=new / learn=known, against all three stateless tags.
  const std::uint64_t a = src_for_dst(kMissDst);
  em.emit(bridge_frame(a, kMissDst));  // unicast_miss | learn=new
  for (std::size_t i = 0; i < em.probes(); ++i) {
    em.emit(bridge_frame(a, kMissDst));  // unicast_miss | learn=known
  }
  const std::uint64_t b = src_for_dst(a);
  em.emit(bridge_frame(b, a));  // unicast | learn=new, lookup=hit
  for (std::size_t i = 0; i < em.probes(); ++i) {
    em.emit(bridge_frame(b, a));  // unicast | learn=known, lookup=hit
  }
  const std::uint64_t c = src_for_dst(kBcastMac);
  em.emit(bridge_frame(c, kBcastMac));  // broadcast | learn=new
  for (std::size_t i = 0; i < em.probes(); ++i) {
    em.emit(bridge_frame(c, kBcastMac));  // broadcast | learn=known
  }

  // learn=rehash for each tag: build a bucket chain longer than the rehash
  // threshold under the table's *current* hash key (initially the paper's
  // leaked-key setup; after each rehash we simply read the renewed key back
  // from the shadow — the synthesiser is a white-box tool), then trip the
  // defence with one more colliding source aimed at the right destination.
  for (const std::uint64_t trigger_dst : {kMissDst, a, kBcastMac}) {
    const std::uint64_t key = table.hash_key();
    auto& raw = table.raw_table();
    const std::uint64_t buckets = raw.bucket_count();
    const std::uint64_t threshold = table.config().rehash_threshold;
    const std::uint64_t target_bucket = 0;
    const auto chain_mac = [&](std::uint64_t dst) {
      return scan(&cursor, "bridge collision-chain MAC", [&](std::uint64_t m) {
        if ((net::mix64(m ^ key) & (buckets - 1)) != target_bucket) return false;
        return sh.partition_of(bridge_frame(m, dst)) == home;
      });
    };
    for (std::uint64_t i = 0; i <= threshold; ++i) {
      em.emit(bridge_frame(chain_mac(kMissDst), kMissDst));  // chain: learn=new
    }
    // The (threshold+2)'th colliding learn walks threshold+1 nodes and
    // trips the defence: learn=rehash, with the tag the destination picks.
    em.emit(bridge_frame(chain_mac(trigger_dst), trigger_dst));
  }

  // learn=full x all tags: occupancy ramp to capacity, then fresh-source
  // probes. The ramp itself is more learn=new traffic.
  while (table.occupancy() < table.capacity()) {
    em.emit(bridge_frame(src_for_dst(kMissDst), kMissDst));
  }
  for (std::size_t i = 0; i <= em.probes(); ++i) {
    em.emit(bridge_frame(src_for_dst(kMissDst), kMissDst));  // miss | full
    em.emit(bridge_frame(src_for_dst(a), a));                // hit  | full
    em.emit(bridge_frame(src_for_dst(kBcastMac), kBcastMac));  // bcast | full
  }
}

// --- NAT ------------------------------------------------------------------

void drive_nat(Emitter& em, const AdversaryOptions& opts,
               const std::unordered_map<std::string, net::Packet>& witnesses) {
  Shadow& sh = em.shadow();
  const std::size_t home = 0;
  auto& nat = sh.target(home).instance.state_as<dslib::NatState>();
  auto& table = nat.internal_table();
  const std::uint32_t external_ip = nat.config().external_ip;

  // invalid: replay the solver's witness (a malformed frame) verbatim.
  const auto invalid_it = witnesses.find("invalid");
  const net::Packet invalid = invalid_it != witnesses.end()
                                  ? invalid_it->second
                                  : net::invalid_packet();
  for (std::size_t i = 0; i <= em.probes(); ++i) em.emit(invalid);

  std::uint64_t cursor = opts.seed * 1'000'003ULL;
  const auto internal_packet = [&](std::uint64_t index) {
    return net::packet_for_tuple(net::tuple_for_index(index, true), 0,
                                 /*in_port=*/0);
  };
  const auto reverse_packet = [&](const net::FiveTuple& fwd,
                                  std::uint16_t ext_port) {
    const net::FiveTuple rev{fwd.dst_ip, net::Ipv4Address{external_ip},
                             fwd.dst_port, ext_port, fwd.protocol};
    return net::packet_for_tuple(rev, 0, /*in_port=*/1);
  };

  // Forward/reverse pair pinned to the home partition: the reverse packet
  // must hash to the partition holding the forward mapping, and its dst
  // port is the mapping's external port — predictable because ports
  // allocate sequentially and nothing frees inside the synthesis window.
  const std::uint64_t pair_index = scan(
      &cursor, "NAT forward/reverse tuple pair", [&](std::uint64_t i) {
        if (sh.partition_of(internal_packet(i)) != home) return false;
        const std::uint16_t predicted_port = static_cast<std::uint16_t>(
            nat.config().first_external_port + nat.allocator().in_use());
        return sh.partition_of(reverse_packet(net::tuple_for_index(i, true),
                                              predicted_port)) == home;
      });
  const net::FiveTuple fwd_tuple = net::tuple_for_index(pair_index, true);
  const auto fwd_out = em.emit(internal_packet(pair_index));  // internal_new
  for (std::size_t i = 0; i < em.probes(); ++i) {
    em.emit(internal_packet(pair_index));  // internal_known
  }
  // Read the allocated external port off the translated packet itself.
  if (fwd_out.verdict == net::NfVerdict::kForward) {
    const std::uint16_t ext_port =
        net::load_be16(fwd_out.processed.bytes(), nf::kOffL4Src);
    const net::Packet rev = reverse_packet(fwd_tuple, ext_port);
    if (sh.partition_of(rev) == home) {
      for (std::size_t i = 0; i <= em.probes(); ++i) {
        em.emit(rev);  // external_known
      }
    } else {
      em.note_class("external_known | nat.expire=expire,nat.lookup_ext=hit",
                    "reverse partition diverged from prediction");
    }
  }

  // external_drop: reverse-side traffic at a port outside the allocator's
  // range — no mapping in any partition.
  const net::Packet stray = reverse_packet(net::tuple_for_index(7, true), 60000);
  for (std::size_t i = 0; i <= em.probes(); ++i) em.emit(stray);

  // Collision-chain amplification: internal flows whose keys share one
  // bucket of the home partition's table (leaked/public hash key). The
  // first flow of the chain ends up deepest (entries insert at the head),
  // so probing it walks the whole chain — internal_known with worst-case
  // traversals.
  const std::size_t chain_len = 8;
  std::vector<net::FiveTuple> chain;
  const auto batch = net::colliding_tuples(
      chain_len * std::max<std::size_t>(16, 8 * opts.partitions),
      /*bucket=*/0, table.bucket_count(), table.hash_key(),
      /*internal=*/true, /*start=*/opts.seed * 2'000'003ULL);
  for (const net::FiveTuple& t : batch) {
    if (chain.size() < chain_len &&
        sh.partition_of(net::packet_for_tuple(t, 0, 0)) == home) {
      chain.push_back(t);
    }
  }
  BOLT_CHECK(chain.size() == chain_len,
             "adversary: NAT collision chain search came up short");
  for (const net::FiveTuple& t : chain) {
    em.emit(net::packet_for_tuple(t, 0, 0));  // internal_new, chain grows
  }
  for (std::size_t i = 0; i < em.probes(); ++i) {
    em.emit(net::packet_for_tuple(chain.front(), 0, 0));  // deepest walk
  }

  // internal_table_full: occupancy ramp to capacity in the home partition,
  // then fresh flows bounce off the occupancy check.
  while (table.occupancy() < table.capacity()) {
    const std::uint64_t i = scan(&cursor, "NAT fill tuple", [&](std::uint64_t c) {
      return sh.partition_of(internal_packet(c)) == home;
    });
    em.emit(internal_packet(i));  // internal_new
  }
  for (std::size_t i = 0; i <= em.probes(); ++i) {
    const std::uint64_t j = scan(&cursor, "NAT full-probe tuple",
                                 [&](std::uint64_t c) {
                                   return sh.partition_of(internal_packet(c)) ==
                                          home;
                                 });
    em.emit(internal_packet(j));  // internal_table_full
  }
}

// --- load balancer --------------------------------------------------------

void drive_lb(Emitter& em, const AdversaryOptions& opts,
              const std::unordered_map<std::string, net::Packet>& witnesses) {
  Shadow& sh = em.shadow();
  const std::size_t home = 0;
  auto& lb = sh.target(home).instance.state_as<dslib::LbState>();
  const auto& cfg = lb.config();
  const std::size_t backends = cfg.ring.backend_count;

  const auto invalid_it = witnesses.find("invalid");
  const net::Packet invalid = invalid_it != witnesses.end()
                                  ? invalid_it->second
                                  : net::invalid_packet();
  for (std::size_t i = 0; i <= em.probes(); ++i) em.emit(invalid);

  // Heartbeat for backend k, steered into the home partition via the
  // source port (the LB only looks at src IP subnet + dst port).
  std::uint64_t hb_cursor = 20'000 + (opts.seed % 1000);
  const auto heartbeat = [&](std::size_t backend) {
    net::Packet probe;
    scan(&hb_cursor, "LB heartbeat source port", [&](std::uint64_t sp) {
      net::PacketBuilder b;
      b.ipv4(net::Ipv4Address{0xac100000u |
                              static_cast<std::uint32_t>(backend + 1)},
             net::Ipv4Address::from_octets(10, 0, 0, 100))
          .udp(static_cast<std::uint16_t>(sp % 65536), cfg.heartbeat_port)
          .in_port(1);
      net::Packet p = b.build();
      if (sh.partition_of(p) != home) return false;
      probe = std::move(p);
      return true;
    });
    return probe;
  };
  const auto all_alive = [&] {
    for (std::size_t k = 0; k < backends; ++k) em.emit(heartbeat(k));
  };
  all_alive();  // heartbeat class + revives the home partition's ring

  std::uint64_t cursor = opts.seed * 3'000'017ULL;
  const auto flow_packet = [&](std::uint64_t index) {
    return net::packet_for_tuple(net::tuple_for_index(index, false), 0,
                                 /*in_port=*/0);
  };
  const auto home_flow = [&] {
    return scan(&cursor, "LB flow tuple in home partition",
                [&](std::uint64_t c) {
                  return sh.partition_of(flow_packet(c)) == home;
                });
  };

  // new_flow (ring_select=ok) + existing_live (cached backend responsive).
  const std::uint64_t pinned = home_flow();
  em.emit(flow_packet(pinned));  // new_flow | ring_select=ok
  for (std::size_t i = 0; i < em.probes(); ++i) {
    em.emit(flow_packet(pinned));  // existing_live
  }

  // Heartbeat-miss storm: silence every backend past the health timeout
  // (the flow-table TTL is longer, so the pinned flow survives), then keep
  // hammering the pinned flow — each packet finds its cached backend dead
  // and walks the entire Maglev ring past dead backends before falling
  // back. This is the LB's contract-predicted worst case.
  const std::uint64_t silence = cfg.ring.heartbeat_timeout_ns + 1'000'000'000;
  BOLT_CHECK(silence < cfg.flow.ttl_ns,
             "adversary: heartbeat silence would expire the pinned flow");
  em.advance_clock(silence);
  for (std::size_t i = 0; i <= em.probes(); ++i) {
    em.emit(flow_packet(pinned));  // existing_unresponsive (full ring walk)
  }

  // Revive the ring, then ramp the home partition's flow table to capacity
  // for new_flow | ring_select=full.
  all_alive();
  auto& table = lb.flow_table();
  while (table.occupancy() < table.capacity()) {
    em.emit(flow_packet(home_flow()));  // new_flow | ring_select=ok
  }
  for (std::size_t i = 0; i <= em.probes(); ++i) {
    em.emit(flow_packet(home_flow()));  // new_flow | ring_select=full
  }
}

// --- DIR-24-8 LPM router --------------------------------------------------

void drive_lpm(Emitter& em,
               const std::unordered_map<std::string, net::Packet>& witnesses) {
  // Stateless per-packet behaviour (the route table is static config), so
  // no partition pinning: the class is decided entirely by the destination
  // address against the canonical route set.
  const auto invalid_it = witnesses.find("invalid");
  const net::Packet invalid = invalid_it != witnesses.end()
                                  ? invalid_it->second
                                  : net::invalid_packet();
  for (std::size_t i = 0; i <= em.probes(); ++i) em.emit(invalid);

  // Split the canonical routes by *lookup tier*, which in DIR-24-8 is a
  // property of the destination's /24 block, not just the matched route: a
  // single >24-bit prefix flips its whole /24's tbl24 slot to indirect, so
  // every address in that block costs two lookups. A one-lookup probe must
  // therefore aim at a /24 block containing no long prefix at all.
  std::vector<std::uint32_t> one_dsts, two_dsts;
  for (const core::DirLpmRoute& r : core::dir_lpm_routes()) {
    const std::uint32_t span = r.length == 32 ? 1u : 1u << (32 - r.length);
    const std::uint32_t dst = r.prefix + span - 1;  // last address of range
    bool indirect_block = false;
    for (const core::DirLpmRoute& other : core::dir_lpm_routes()) {
      if (other.length > 24 && (dst >> 8) == (other.prefix >> 8)) {
        indirect_block = true;
      }
    }
    (indirect_block || r.length > 24 ? two_dsts : one_dsts).push_back(dst);
  }

  const auto probe = [&](std::uint32_t dst) {
    net::PacketBuilder b;
    b.ipv4(net::Ipv4Address::from_octets(192, 0, 2, 1), net::Ipv4Address{dst})
        .udp(5000, 5001);
    return b.build();
  };
  for (std::size_t i = 0; i <= em.probes(); ++i) {
    em.emit(probe(one_dsts[i % one_dsts.size()]));  // ipv4 | one_lookup
    em.emit(probe(two_dsts[i % two_dsts.size()]));  // ipv4 | two_lookups
  }
}

// --- generic fallback -----------------------------------------------------

/// Witness replay for targets whose classes are decided by the packet
/// alone (stateless chains, the trie router): every solved class's witness,
/// materialised through PacketBuilder, emitted 1 + probes times.
void drive_generic(Emitter& em, const perf::Contract& contract,
                   const std::unordered_map<std::string, net::Packet>&
                       witnesses) {
  for (std::size_t e = 0; e < contract.entries().size(); ++e) {
    const auto it = witnesses.find(contract.entries()[e].input_class);
    if (it == witnesses.end()) {
      em.note(static_cast<std::uint32_t>(e), "no solved witness");
      continue;
    }
    const net::Packet probe = materialize_witness(it->second);
    for (std::size_t i = 0; i <= em.probes(); ++i) em.emit(probe);
  }
}

}  // namespace

std::size_t AdversarialTrace::classes_reached() const {
  std::size_t reached = 0;
  for (const ClassPlan& cp : classes) {
    if (cp.reached) ++reached;
  }
  return reached;
}

std::vector<std::string> AdversarialTrace::unreached_classes() const {
  std::vector<std::string> out;
  for (const ClassPlan& cp : classes) {
    if (!cp.reached) out.push_back(cp.input_class);
  }
  return out;
}

AdversarialTrace adversarial_traffic(
    const std::string& nf_name, const perf::Contract& contract,
    const perf::PcvRegistry& reg, const AdversaryOptions& options,
    const std::vector<core::PathReport>* path_reports) {
  AdversaryOptions opts = options;
  if (opts.partitions == 0) opts.partitions = 1;

  AdversarialTrace trace;
  trace.nf = nf_name;
  trace.contract_nf = contract.nf_name();
  trace.seed = opts.seed;
  trace.partitions = opts.partitions;
  trace.epoch_ns = opts.epoch_ns;
  trace.classes.reserve(contract.entries().size());
  for (const perf::ContractEntry& entry : contract.entries()) {
    ClassPlan cp;
    cp.input_class = entry.input_class;
    trace.classes.push_back(std::move(cp));
  }

  // Witness side: reuse the caller's path reports when it already ran the
  // generator, else (re)generate in-process — the stored artifact carries
  // bounds, not witnesses. Either way, cross-check that the contract names
  // the live target.
  perf::PcvRegistry gen_reg;
  core::NfTarget gen_target;
  BOLT_CHECK(core::make_named_target(nf_name, gen_reg, gen_target),
             "adversary: unknown target '" + nf_name + "'");
  BOLT_CHECK(gen_target.contract_name() == contract.nf_name(),
             "adversary: contract was generated for nf '" +
                 contract.nf_name() + "', not '" +
                 gen_target.contract_name() + "'");
  core::GenerationResult generated;
  if (path_reports == nullptr) {
    core::ContractGenerator generator(gen_reg);
    generated = generator.generate(gen_target.analysis());
    path_reports = &generated.path_reports;
  }
  const auto witnesses = witness_map(*path_reports);

  Shadow shadow(nf_name, contract, reg, opts);
  Emitter emitter(shadow, trace, opts);

  if (nf_name == "bridge") {
    drive_bridge(emitter, opts);
  } else if (nf_name == "nat" || nf_name == "nat-b") {
    drive_nat(emitter, opts, witnesses);
  } else if (nf_name == "lb") {
    drive_lb(emitter, opts, witnesses);
  } else if (nf_name == "lpm") {
    drive_lpm(emitter, witnesses);
  } else {
    drive_generic(emitter, contract, witnesses);
  }

  for (ClassPlan& cp : trace.classes) {
    if (!cp.reached && cp.note.empty()) {
      cp.note = witnesses.count(cp.input_class)
                    ? "witness available but state driver never landed here"
                    : "no generated witness (stored-contract-only class?)";
    }
  }
  return trace;
}

AdversarialTrace plan_packets(const std::string& nf_name,
                              const perf::Contract& contract,
                              const perf::PcvRegistry& reg,
                              std::vector<net::Packet> packets,
                              const AdversaryOptions& options) {
  AdversaryOptions opts = options;
  if (opts.partitions == 0) opts.partitions = 1;

  AdversarialTrace trace;
  trace.nf = nf_name;
  trace.contract_nf = contract.nf_name();
  trace.seed = opts.seed;
  trace.partitions = opts.partitions;
  trace.epoch_ns = opts.epoch_ns;
  trace.classes.reserve(contract.entries().size());
  for (const perf::ContractEntry& entry : contract.entries()) {
    ClassPlan cp;
    cp.input_class = entry.input_class;
    trace.classes.push_back(std::move(cp));
  }

  Shadow shadow(nf_name, contract, reg, opts);
  trace.packets = std::move(packets);
  trace.plans.reserve(trace.packets.size());
  for (const net::Packet& p : trace.packets) {
    const Shadow::Outcome out = shadow.commit(p);
    PacketPlan plan;
    plan.entry = out.entry;
    plan.predicted = out.predicted;
    if (out.entry != kNoEntry) {
      ClassPlan& cp = trace.classes[out.entry];
      ++cp.packets;
      cp.reached = true;
    }
    trace.plans.push_back(plan);
  }
  for (ClassPlan& cp : trace.classes) {
    if (!cp.reached && cp.note.empty()) cp.note = "not exercised by this trace";
  }
  return trace;
}

}  // namespace bolt::adversary
