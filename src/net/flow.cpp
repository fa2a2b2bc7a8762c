#include "net/flow.h"

#include <cstring>

#include "net/headers.h"

namespace bolt::net {

namespace {

/// Big-endian loads (the caller has bounds-checked).
std::uint32_t be32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return __builtin_bswap32(v);
}
std::uint16_t be16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return __builtin_bswap16(v);
}

}  // namespace

std::optional<FiveTuple> extract_five_tuple(const PacketView& packet) {
  // Fixed offsets with the bounds checks of parse_ethernet, parse_ipv4 and
  // parse_tcp/parse_udp, and no allocation.
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

}  // namespace bolt::net
