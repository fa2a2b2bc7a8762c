#include "net/flow.h"

#include "net/headers.h"

namespace bolt::net {

std::optional<FiveTuple> extract_five_tuple(const Packet& packet) {
  const auto buf = packet.bytes();
  const auto eth = parse_ethernet(buf);
  if (!eth || eth->ether_type != kEtherTypeIpv4) return std::nullopt;
  const auto ip = parse_ipv4(buf, kEthernetHeaderSize);
  if (!ip) return std::nullopt;
  if (ip->protocol != kIpProtoTcp && ip->protocol != kIpProtoUdp) {
    return std::nullopt;
  }
  const std::size_t l4_off = kEthernetHeaderSize + ip->header_size();
  FiveTuple t;
  t.src_ip = ip->src;
  t.dst_ip = ip->dst;
  t.protocol = ip->protocol;
  if (ip->protocol == kIpProtoTcp) {
    const auto tcp = parse_tcp(buf, l4_off);
    if (!tcp) return std::nullopt;
    t.src_port = tcp->src_port;
    t.dst_port = tcp->dst_port;
  } else {
    const auto udp = parse_udp(buf, l4_off);
    if (!udp) return std::nullopt;
    t.src_port = udp->src_port;
    t.dst_port = udp->dst_port;
  }
  return t;
}

}  // namespace bolt::net
