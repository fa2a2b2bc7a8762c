#include "net/workload.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>

#include "net/packet_builder.h"
#include "support/assert.h"
#include "support/random.h"

namespace bolt::net {

FiveTuple tuple_for_index(std::uint64_t index, bool internal) {
  FiveTuple t;
  if (internal) {
    t.src_ip = Ipv4Address{0x0a000000u | static_cast<std::uint32_t>(index % (1u << 24))};
    t.dst_ip = Ipv4Address{0xc6120000u | static_cast<std::uint32_t>((index / 7) % 65536)};
  } else {
    t.src_ip = Ipv4Address{0xc6120000u | static_cast<std::uint32_t>(index % 65536)};
    t.dst_ip = Ipv4Address{0x0a000000u | static_cast<std::uint32_t>((index / 3) % (1u << 24))};
  }
  t.src_port = static_cast<std::uint16_t>(1024 + (index % 60000));
  t.dst_port = static_cast<std::uint16_t>(80 + (index % 8));
  t.protocol = kIpProtoUdp;
  return t;
}

Packet packet_for_tuple(const FiveTuple& t, TimestampNs ts,
                        std::uint16_t in_port) {
  PacketBuilder b;
  b.eth(MacAddress::from_u64(0x020000000000ULL | (t.src_ip.value & 0xffffff)),
        MacAddress::from_u64(0x020000001000ULL | (t.dst_ip.value & 0xffffff)));
  b.ipv4(t.src_ip, t.dst_ip, t.protocol);
  if (t.protocol == kIpProtoTcp) {
    b.tcp(t.src_port, t.dst_port);
  } else {
    b.udp(t.src_port, t.dst_port);
  }
  b.timestamp_ns(ts).in_port(in_port);
  return b.build();
}

Packet invalid_packet(TimestampNs ts) {
  PacketBuilder b;
  b.ether_type(kEtherTypeArp).timestamp_ns(ts);
  return b.build();
}

namespace {

/// The packets `generate` streams for `spec`, collected (`count` reserved).
template <typename Spec>
std::vector<Packet> collect(void (*generate)(const Spec&, const PacketSink&),
                            const Spec& spec, std::size_t count) {
  std::vector<Packet> out;
  out.reserve(count);
  generate(spec, [&out](Packet&& p) { out.push_back(std::move(p)); });
  return out;
}

}  // namespace

void uniform_random_traffic(const UniformSpec& spec,
                            const PacketSink& sink) {
  support::Rng rng(spec.seed);
  TimestampNs ts = spec.timing.start_ns;
  for (std::size_t i = 0; i < spec.packet_count; ++i) {
    const std::uint64_t flow = rng.below(spec.flow_pool);
    sink(packet_for_tuple(tuple_for_index(flow, spec.internal_side), ts,
                          spec.in_port));
    ts += spec.timing.gap_ns;
  }
}

void zipf_traffic(const ZipfSpec& spec, const PacketSink& sink) {
  BOLT_CHECK(spec.flow_pool > 0, "zipf_traffic needs a non-empty flow pool");
  support::Rng rng(spec.seed);

  // Cumulative mass of 1/r^skew for r = 1..flow_pool; sampling is a binary
  // search over the prefix sums (exact inverse-CDF, no rejection).
  std::vector<double> cumulative(spec.flow_pool);
  double total = 0.0;
  for (std::size_t r = 0; r < spec.flow_pool; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), spec.skew);
    cumulative[r] = total;
  }

  // Seed-keyed permutation of rank -> flow index: popular flows land in
  // unrelated parts of the tuple space instead of the low indices.
  std::vector<std::uint64_t> flow_of_rank(spec.flow_pool);
  for (std::size_t r = 0; r < spec.flow_pool; ++r) flow_of_rank[r] = r;
  for (std::size_t r = spec.flow_pool; r > 1; --r) {
    std::swap(flow_of_rank[r - 1], flow_of_rank[rng.below(r)]);
  }

  TimestampNs ts = spec.timing.start_ns;
  for (std::size_t i = 0; i < spec.packet_count; ++i) {
    const double u = rng.uniform() * total;
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    const std::uint64_t flow = flow_of_rank[std::min(rank, spec.flow_pool - 1)];
    sink(packet_for_tuple(tuple_for_index(flow, spec.internal_side), ts,
                          spec.in_port));
    ts += spec.timing.gap_ns;
  }
}

void long_run_traffic(const LongRunSpec& spec, const PacketSink& sink) {
  BOLT_CHECK(spec.flow_pool > 0, "long_run_traffic needs a non-empty pool");
  BOLT_CHECK(spec.bursts > 0, "long_run_traffic needs at least one burst");
  BOLT_CHECK(spec.rotation_bursts > 0,
             "long_run_traffic needs a non-zero rotation period");
  const std::uint64_t burst_spacing = spec.duration_ns / spec.bursts;
  const std::size_t per_burst =
      (spec.packet_count + spec.bursts - 1) / spec.bursts;
  BOLT_CHECK(static_cast<std::uint64_t>(per_burst) * spec.burst_gap_ns <
                 burst_spacing,
             "long_run_traffic: bursts overlap (raise duration_ns or bursts)");
  support::Rng rng(spec.seed);

  // Zipf mass over the working-set ranks (same inverse-CDF sampling as
  // zipf_traffic).
  std::vector<double> cumulative(spec.flow_pool);
  double total = 0.0;
  for (std::size_t r = 0; r < spec.flow_pool; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), spec.skew);
    cumulative[r] = total;
  }

  for (std::size_t i = 0; i < spec.packet_count; ++i) {
    const std::size_t burst = i / per_burst;
    const std::size_t in_burst = i % per_burst;
    const TimestampNs ts = spec.start_ns + burst * burst_spacing +
                           in_burst * spec.burst_gap_ns;
    const double u = rng.uniform() * total;
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    // The working set rotates wholesale every rotation_bursts bursts:
    // rank r of generation g is a globally fresh flow, scattered through
    // tuple space by the mix (so generations do not cluster in buckets or
    // monitor partitions).
    const std::uint64_t generation = burst / spec.rotation_bursts;
    const std::uint64_t flow = mix64(
        (generation << 32) ^ std::min<std::uint64_t>(rank, spec.flow_pool - 1) ^
        (spec.seed * 0x9E3779B97F4A7C15ULL));
    sink(packet_for_tuple(tuple_for_index(flow, spec.internal_side), ts,
                          spec.in_port));
  }
}

void churn_traffic(const ChurnSpec& spec, const PacketSink& sink) {
  support::Rng rng(spec.seed);
  std::deque<std::uint64_t> active;
  std::uint64_t next_flow = 0;
  for (std::size_t i = 0; i < spec.active_flows; ++i) active.push_back(next_flow++);

  TimestampNs ts = spec.timing.start_ns;
  for (std::size_t i = 0; i < spec.packet_count; ++i) {
    std::uint64_t flow;
    if (rng.chance(spec.churn)) {
      // Retire a *random* active flow (real flow lifetimes are not FIFO)
      // and admit a brand-new one, sending its first packet.
      flow = next_flow++;
      active[rng.below(active.size())] = flow;
    } else {
      flow = active[rng.below(active.size())];
    }
    sink(packet_for_tuple(tuple_for_index(flow), ts, spec.in_port));
    ts += spec.timing.gap_ns;
  }
}

void bridge_traffic(const BridgeSpec& spec, const PacketSink& sink) {
  support::Rng rng(spec.seed);
  TimestampNs ts = spec.timing.start_ns;
  for (std::size_t i = 0; i < spec.packet_count; ++i) {
    const std::uint64_t src_station = rng.below(spec.stations);
    const MacAddress src = MacAddress::from_u64(0x020000100000ULL + src_station);
    MacAddress dst;
    if (rng.chance(spec.broadcast_fraction)) {
      dst = MacAddress::broadcast();
    } else {
      std::uint64_t dst_station = rng.below(spec.stations);
      if (dst_station == src_station) {
        dst_station = (dst_station + 1) % spec.stations;
      }
      dst = MacAddress::from_u64(0x020000100000ULL + dst_station);
    }
    PacketBuilder b;
    b.eth(src, dst)
        .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
              Ipv4Address::from_octets(10, 0, 0, 2))
        .udp(4000, 4001)
        .timestamp_ns(ts)
        .in_port(static_cast<std::uint16_t>(src_station % 8));
    sink(b.build());
    ts += spec.timing.gap_ns;
  }
}

std::vector<std::uint64_t> colliding_keys(std::size_t count, std::size_t bucket,
                                          std::size_t table_buckets,
                                          std::uint64_t hash_key,
                                          std::uint64_t start) {
  BOLT_CHECK(table_buckets != 0 && (table_buckets & (table_buckets - 1)) == 0,
             "table_buckets must be a power of two");
  std::vector<std::uint64_t> keys;
  keys.reserve(count);
  const std::uint64_t mask = table_buckets - 1;
  for (std::uint64_t candidate = start; keys.size() < count; ++candidate) {
    if ((mix64(candidate ^ hash_key) & mask) == bucket) {
      keys.push_back(candidate);
    }
  }
  return keys;
}

std::vector<FiveTuple> colliding_tuples(std::size_t count, std::size_t bucket,
                                        std::size_t table_buckets,
                                        std::uint64_t hash_key, bool internal,
                                        std::uint64_t start) {
  BOLT_CHECK(table_buckets != 0 && (table_buckets & (table_buckets - 1)) == 0,
             "table_buckets must be a power of two");
  std::vector<FiveTuple> tuples;
  tuples.reserve(count);
  const std::uint64_t mask = table_buckets - 1;
  for (std::uint64_t index = start; tuples.size() < count; ++index) {
    const FiveTuple t = tuple_for_index(index, internal);
    if ((mix64(t.key() ^ hash_key) & mask) == bucket) tuples.push_back(t);
  }
  return tuples;
}

void bridge_collision_attack(const BridgeAttackSpec& spec,
                             const PacketSink& sink) {
  support::Rng rng(spec.seed);
  // MAC-table keys are the 48-bit MAC as an integer; pick MACs in the
  // locally-administered range whose hash collides in bucket 0.
  const std::vector<std::uint64_t> macs = colliding_keys(
      spec.stations, /*bucket=*/0, spec.table_buckets, /*hash_key=*/0,
      /*start=*/0x020000200000ULL);
  TimestampNs ts = spec.timing.start_ns;
  for (std::size_t i = 0; i < spec.packet_count; ++i) {
    const std::uint64_t src = macs[rng.below(macs.size())];
    std::uint64_t dst = macs[rng.below(macs.size())];
    if (dst == src) dst = macs[(i + 1) % macs.size()];
    PacketBuilder b;
    b.eth(MacAddress::from_u64(src), MacAddress::from_u64(dst))
        .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
              Ipv4Address::from_octets(10, 0, 0, 2))
        .udp(4000, 4001)
        .timestamp_ns(ts);
    sink(b.build());
    ts += spec.timing.gap_ns;
  }
}

LpmWorkload lpm_traffic(const LpmSpec& spec) {
  BOLT_CHECK(spec.min_prefix_len >= 1 && spec.max_prefix_len <= 32 &&
                 spec.min_prefix_len <= spec.max_prefix_len,
             "bad LPM prefix length range");
  support::Rng rng(spec.seed);
  LpmWorkload out;

  // Install routes: for each length in range, `routes_per_length` prefixes
  // spread across the address space. Longer routes nest inside shorter ones
  // only by accident; matched length is computed against the final set.
  for (int len = spec.min_prefix_len; len <= spec.max_prefix_len; ++len) {
    for (std::size_t r = 0; r < spec.routes_per_length; ++r) {
      const std::uint32_t mask =
          len == 32 ? 0xffffffffu : ~((1u << (32 - len)) - 1);
      LpmRoute route;
      route.prefix = static_cast<std::uint32_t>(rng.next()) & mask;
      route.length = len;
      route.port = static_cast<std::uint16_t>(1 + (rng.next() % 14));
      out.routes.push_back(route);
    }
  }

  auto matched = [&](std::uint32_t addr) {
    int best = 0;
    for (const LpmRoute& r : out.routes) {
      const std::uint32_t mask =
          r.length == 32 ? 0xffffffffu : ~((1u << (32 - r.length)) - 1);
      if ((addr & mask) == r.prefix && r.length > best) best = r.length;
    }
    return best;
  };

  out.packets.reserve(spec.packet_count);
  out.matched_length.reserve(spec.packet_count);
  TimestampNs ts = spec.timing.start_ns;
  for (std::size_t i = 0; i < spec.packet_count; ++i) {
    // Aim at a random installed route; add host bits below its length.
    const LpmRoute& target = out.routes[rng.below(out.routes.size())];
    const std::uint32_t host_bits =
        target.length == 32
            ? 0
            : static_cast<std::uint32_t>(rng.next()) &
                  ((1u << (32 - target.length)) - 1);
    const Ipv4Address dst{target.prefix | host_bits};
    PacketBuilder b;
    b.ipv4(Ipv4Address::from_octets(192, 0, 2, 1), dst).udp(5000, 5001)
        .timestamp_ns(ts);
    out.packets.push_back(b.build());
    out.matched_length.push_back(matched(dst.value));
    ts += spec.timing.gap_ns;
  }
  return out;
}

void drift_traffic(const DriftSpec& spec, const PacketSink& sink) {
  BOLT_CHECK(spec.option_words <= 10,
             "drift_traffic: at most 10 option words fit an IPv4 header");
  support::Rng rng(spec.seed);
  // Packets spread evenly inside each window, strictly before its end.
  const std::uint64_t gap = spec.window_ns / (spec.packets_per_window + 1);
  for (std::size_t w = 0; w < spec.windows; ++w) {
    // Expensive (timestamp) words this window: 0 at w=0 ramping linearly
    // to all of them in the last window. Total word count never changes.
    const std::size_t expensive =
        spec.windows > 1
            ? w * spec.option_words / (spec.windows - 1)
            : spec.option_words;
    for (std::size_t i = 0; i < spec.packets_per_window; ++i) {
      const FiveTuple t = tuple_for_index(rng.below(spec.flow_pool), true);
      PacketBuilder b;
      b.eth(MacAddress::from_u64(0x020000000000ULL |
                                 (t.src_ip.value & 0xffffff)),
            MacAddress::from_u64(0x020000001000ULL |
                                 (t.dst_ip.value & 0xffffff)));
      b.ipv4(t.src_ip, t.dst_ip);
      // A zero-slot RFC 781 timestamp option is exactly one 4-byte word
      // starting with kind 68 — one expensive loop trip; 4 NOPs are one
      // cheap word.
      for (std::size_t o = 0; o < expensive; ++o) b.ip_timestamp_option(0);
      b.ip_nop_options(static_cast<int>(4 * (spec.option_words - expensive)));
      b.udp(t.src_port, t.dst_port);
      b.timestamp_ns(spec.start_ns + w * spec.window_ns + (i + 1) * gap);
      b.in_port(spec.in_port);
      sink(b.build());
    }
  }
}

void heartbeat_traffic(const HeartbeatSpec& spec, const PacketSink& sink) {
  support::Rng rng(spec.seed);
  TimestampNs ts = spec.timing.start_ns;
  for (std::size_t i = 0; i < spec.packet_count; ++i) {
    const std::uint32_t backend =
        static_cast<std::uint32_t>(rng.below(spec.backends));
    PacketBuilder b;
    // Backends live in 172.16.0.0/16; heartbeat = UDP to the magic port.
    b.ipv4(Ipv4Address{0xac100000u | (backend + 1)},
           Ipv4Address::from_octets(10, 0, 0, 100))
        .udp(static_cast<std::uint16_t>(30000 + backend), spec.heartbeat_port)
        .timestamp_ns(ts)
        .in_port(1);
    sink(b.build());
    ts += spec.timing.gap_ns;
  }
}

std::vector<Packet> uniform_random_traffic(const UniformSpec& spec) {
  return collect<UniformSpec>(uniform_random_traffic, spec,
                              spec.packet_count);
}

std::vector<Packet> zipf_traffic(const ZipfSpec& spec) {
  return collect<ZipfSpec>(zipf_traffic, spec, spec.packet_count);
}

std::vector<Packet> long_run_traffic(const LongRunSpec& spec) {
  return collect<LongRunSpec>(long_run_traffic, spec, spec.packet_count);
}

std::vector<Packet> churn_traffic(const ChurnSpec& spec) {
  return collect<ChurnSpec>(churn_traffic, spec, spec.packet_count);
}

std::vector<Packet> bridge_traffic(const BridgeSpec& spec) {
  return collect<BridgeSpec>(bridge_traffic, spec, spec.packet_count);
}

std::vector<Packet> drift_traffic(const DriftSpec& spec) {
  return collect<DriftSpec>(drift_traffic, spec,
                            spec.windows * spec.packets_per_window);
}

std::vector<Packet> heartbeat_traffic(const HeartbeatSpec& spec) {
  return collect<HeartbeatSpec>(heartbeat_traffic, spec, spec.packet_count);
}

}  // namespace bolt::net
