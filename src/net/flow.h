// Five-tuple flow identity and hashing.
//
// The NAT and load balancer key their state on the five-tuple. The hash
// here is deliberately simple and *public* — the MAC bridge's rehash-defence
// experiment (paper §5.2) depends on an attacker being able to construct
// collisions against a known hash, which our adversarial workload generator
// does, and on the defence being a secret random key mixed into the hash.
#pragma once

#include <cstdint>
#include <optional>
#include <tuple>

#include "net/addresses.h"
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
/// fixed-offset reads. Returns nullopt for anything else (non-IPv4, other
/// protocols, truncated) — exactly where the parse_* composition fails.
std::optional<FiveTuple> extract_five_tuple(const PacketView& packet);

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
