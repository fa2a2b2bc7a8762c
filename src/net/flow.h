// Five-tuple flow identity and hashing.
//
// The NAT and load balancer key their state on the five-tuple. The hash
// here is deliberately simple and *public* — the MAC bridge's rehash-defence
// experiment (paper §5.2) depends on an attacker being able to construct
// collisions against a known hash, which our adversarial workload generator
// does, and on the defence being a secret random key mixed into the hash.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <tuple>

#include "net/addresses.h"
#include "net/headers.h"
#include "net/packet.h"
#include "support/hash.h"

namespace bolt::net {

struct FiveTuple {
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;

  friend bool operator==(const FiveTuple& a, const FiveTuple& b) {
    return a.tie() == b.tie();
  }
  friend bool operator!=(const FiveTuple& a, const FiveTuple& b) {
    return !(a == b);
  }
  friend bool operator<(const FiveTuple& a, const FiveTuple& b) {
    return a.tie() < b.tie();
  }

  /// Packs the tuple into a 64-bit key the dslib flow table uses:
  /// a 64-bit mix of the 104 tuple bits. Collisions of the *key* are
  /// astronomically unlikely for test workloads; collisions of the *bucket*
  /// are what the PCVs track.
  inline std::uint64_t key() const;

  /// Reversed tuple (for return traffic).
  FiveTuple reversed() const {
    return FiveTuple{dst_ip, src_ip, dst_port, src_port, protocol};
  }

 private:
  std::tuple<std::uint32_t, std::uint32_t, std::uint16_t, std::uint16_t,
             std::uint8_t>
  tie() const {
    return {src_ip.value, dst_ip.value, src_port, dst_port, protocol};
  }
};

/// Extracts the five-tuple of a TCP/UDP-over-IPv4 frame (no VLAN) by
/// fixed-offset reads, with the bounds checks of parse_ethernet, parse_ipv4
/// and parse_tcp/parse_udp and no allocation. Returns nullopt for anything
/// else (non-IPv4, other protocols, truncated) — exactly where the parse_*
/// composition fails. Inline: the NAT and LB methods parse every packet,
/// and an out-of-line call hands the optional back through memory written
/// field by field, which the caller reloads as whole words (a
/// store-forwarding stall on every call).
inline std::optional<FiveTuple> extract_five_tuple(const PacketView& packet) {
  const auto be16 = [](const std::uint8_t* p) {
    std::uint16_t v;
    std::memcpy(&v, p, 2);
    return __builtin_bswap16(v);
  };
  const auto be32 = [](const std::uint8_t* p) {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return __builtin_bswap32(v);
  };
  const std::uint8_t* b = packet.bytes().data();
  const std::size_t n = packet.size();
  constexpr std::size_t kIp = kEthernetHeaderSize;
  if (n < kIp + kIpv4MinHeaderSize || be16(b + 12) != kEtherTypeIpv4) {
    return std::nullopt;
  }
  const std::uint8_t vihl = b[kIp];
  const std::size_t l4 = kIp + std::size_t(vihl & 0x0f) * 4;
  const std::uint8_t proto = b[kIp + 9];
  const std::size_t l4_size = proto == kIpProtoTcp   ? kTcpMinHeaderSize
                              : proto == kIpProtoUdp ? kUdpHeaderSize
                                                     : 0;
  if ((vihl >> 4) != 4 || (vihl & 0x0f) < 5 || l4_size == 0 ||
      l4 + l4_size > n) {
    return std::nullopt;
  }
  FiveTuple t;
  t.src_ip.value = be32(b + kIp + 12);
  t.dst_ip.value = be32(b + kIp + 16);
  t.src_port = be16(b + l4);
  t.dst_port = be16(b + l4 + 2);
  t.protocol = proto;
  return t;
}

/// The public 64 -> 64 bit mixing function used by dslib hash tables:
/// the splitmix64 finaliser the symbolic side also uses (support/hash.h;
/// fast, invertible, and well distributed).
using support::mix64;

std::uint64_t FiveTuple::key() const {
  std::uint64_t a = (std::uint64_t(src_ip.value) << 32) | dst_ip.value;
  std::uint64_t b = (std::uint64_t(src_port) << 24) |
                    (std::uint64_t(dst_port) << 8) | protocol;
  return mix64(a) ^ mix64(b + 0x9e3779b97f4a7c15ULL);
}

}  // namespace bolt::net
