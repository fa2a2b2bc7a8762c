#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <set>

#include "net/checksum.h"
#include "net/flow.h"
#include "net/headers.h"
#include "net/packet_builder.h"
#include "net/pcap.h"
#include "net/workload.h"

namespace bolt::net {
namespace {

TEST(Addresses, MacRoundTrip) {
  const MacAddress mac = MacAddress::from_u64(0x0123456789abULL);
  EXPECT_EQ(mac.to_u64(), 0x0123456789abULL);
  EXPECT_EQ(mac.str(), "01:23:45:67:89:ab");
  EXPECT_FALSE(mac.is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_multicast());
}

TEST(Addresses, Ipv4Formatting) {
  EXPECT_EQ(Ipv4Address::from_octets(10, 0, 0, 1).str(), "10.0.0.1");
  EXPECT_EQ(Ipv4Address::from_octets(198, 51, 100, 1).value, 0xc6336401u);
}

TEST(Checksum, Rfc1071Examples) {
  // Known vector: checksum of this header must validate to zero.
  const std::vector<std::uint8_t> header = {0x45, 0x00, 0x00, 0x73, 0x00, 0x00,
                                            0x40, 0x00, 0x40, 0x11, 0x00, 0x00,
                                            0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8,
                                            0x00, 0xc7};
  const std::uint16_t csum = internet_checksum(header);
  EXPECT_EQ(csum, 0xb861);
}

TEST(Checksum, OddLengthTail) {
  const std::vector<std::uint8_t> data = {0x01, 0x02, 0x03};
  EXPECT_EQ(internet_checksum(data),
            checksum_finish(checksum_accumulate(data)));
}

TEST(PacketBuilder, MinimumFrameAndChecksumValid) {
  Packet pkt = PacketBuilder()
                   .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                         Ipv4Address::from_octets(10, 0, 0, 2))
                   .udp(1234, 80)
                   .timestamp_ns(5)
                   .build();
  EXPECT_GE(pkt.size(), kMinFrameSize);
  EXPECT_EQ(pkt.timestamp_ns(), 5u);

  const auto eth = parse_ethernet(pkt.bytes());
  ASSERT_TRUE(eth.has_value());
  EXPECT_EQ(eth->ether_type, kEtherTypeIpv4);
  const auto ip = parse_ipv4(pkt.bytes(), kEthernetHeaderSize);
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->protocol, kIpProtoUdp);
  // Checksumming the header (checksum field included) must give 0.
  const auto hdr = pkt.bytes().subspan(kEthernetHeaderSize, ip->header_size());
  EXPECT_EQ(internet_checksum(hdr), 0);
}

TEST(PacketBuilder, IpOptionsPaddedAndParsed) {
  Packet pkt = PacketBuilder()
                   .ipv4(Ipv4Address::from_octets(1, 2, 3, 4),
                         Ipv4Address::from_octets(5, 6, 7, 8))
                   .ip_nop_options(5)
                   .udp(1, 2)
                   .build();
  const auto ip = parse_ipv4(pkt.bytes(), kEthernetHeaderSize);
  ASSERT_TRUE(ip.has_value());
  EXPECT_TRUE(ip->has_options());
  EXPECT_EQ(ip->ihl, 7);  // 5 NOPs padded to 8 bytes = 2 words
  const auto count = count_ipv4_options(ip->options);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, 5);
}

TEST(PacketBuilder, TimestampOption) {
  Packet pkt = PacketBuilder()
                   .ipv4(Ipv4Address::from_octets(1, 2, 3, 4),
                         Ipv4Address::from_octets(5, 6, 7, 8))
                   .ip_timestamp_option(2)
                   .udp(1, 2)
                   .build();
  const auto ip = parse_ipv4(pkt.bytes(), kEthernetHeaderSize);
  ASSERT_TRUE(ip.has_value());
  ASSERT_FALSE(ip->options.empty());
  EXPECT_EQ(ip->options[0], kIpOptTimestamp);
}

TEST(PacketBuilder, TcpFrames) {
  Packet pkt = PacketBuilder()
                   .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                         Ipv4Address::from_octets(10, 0, 0, 2))
                   .tcp(4000, 443)
                   .build();
  const auto ip = parse_ipv4(pkt.bytes(), kEthernetHeaderSize);
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->protocol, kIpProtoTcp);
  const auto tcp = parse_tcp(pkt.bytes(), kEthernetHeaderSize + 20);
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(tcp->src_port, 4000);
  EXPECT_EQ(tcp->dst_port, 443);
}

// --- build -> parse -> rebuild round trips -------------------------------
//
// Every header combination the adversarial synthesiser emits must survive
// a full parse/rebuild cycle byte-for-byte: the parsed view carries all the
// information the builder needs, and the rebuild recomputes identical
// lengths and checksums. This is what makes witness "materialisation"
// (adversary/adversary.cpp) safe — a rebuilt frame is the same frame.

namespace {

/// Rebuilds a frame from its parsed headers. Expects plain Ethernet/IPv4/
/// {UDP,TCP} (optionally with NOP/timestamp options re-added verbatim).
Packet rebuild_from_parse(const Packet& original) {
  const auto eth = parse_ethernet(original.bytes());
  EXPECT_TRUE(eth.has_value());
  PacketBuilder b;
  if (eth->ether_type != kEtherTypeIpv4) {
    b.eth(eth->src, eth->dst, eth->ether_type);
  } else {
    const auto ip = parse_ipv4(original.bytes(), kEthernetHeaderSize);
    EXPECT_TRUE(ip.has_value());
    b.eth(eth->src, eth->dst).ipv4(ip->src, ip->dst, ip->protocol, ip->ttl);
    // Re-add option bytes one option at a time (NOPs, multi-byte options;
    // trailing END padding is reapplied by build()).
    for (std::size_t i = 0; i < ip->options.size();) {
      const std::uint8_t kind = ip->options[i];
      if (kind == kIpOptEnd) break;
      if (kind == kIpOptNop) {
        b.ip_option(kIpOptNop);
        ++i;
        continue;
      }
      const std::uint8_t len = ip->options[i + 1];
      b.ip_option(kind, std::vector<std::uint8_t>(
                            ip->options.begin() + i + 2,
                            ip->options.begin() + i + len));
      i += len;
    }
    const std::size_t l4 = kEthernetHeaderSize + ip->header_size();
    if (ip->protocol == kIpProtoUdp) {
      const auto udp = parse_udp(original.bytes(), l4);
      EXPECT_TRUE(udp.has_value());
      b.udp(udp->src_port, udp->dst_port);
    } else if (ip->protocol == kIpProtoTcp) {
      const auto tcp = parse_tcp(original.bytes(), l4);
      EXPECT_TRUE(tcp.has_value());
      b.tcp(tcp->src_port, tcp->dst_port);
    }
  }
  b.frame_size(original.size());
  b.timestamp_ns(original.timestamp_ns()).in_port(original.in_port());
  return b.build();
}

void expect_round_trip(const Packet& original) {
  const Packet rebuilt = rebuild_from_parse(original);
  EXPECT_EQ(std::vector<std::uint8_t>(original.bytes().begin(),
                                      original.bytes().end()),
            std::vector<std::uint8_t>(rebuilt.bytes().begin(),
                                      rebuilt.bytes().end()));
  EXPECT_EQ(original.timestamp_ns(), rebuilt.timestamp_ns());
  EXPECT_EQ(original.in_port(), rebuilt.in_port());
  // IPv4 checksum must validate (sum over the header including the
  // checksum field is zero).
  const auto eth = parse_ethernet(original.bytes());
  if (eth && eth->ether_type == kEtherTypeIpv4) {
    const auto ip = parse_ipv4(original.bytes(), kEthernetHeaderSize);
    ASSERT_TRUE(ip.has_value());
    EXPECT_EQ(internet_checksum(original.bytes().subspan(kEthernetHeaderSize,
                                                         ip->header_size())),
              0);
  }
}

}  // namespace

TEST(PacketBuilderRoundTrip, PlainUdp) {
  expect_round_trip(PacketBuilder()
                        .eth(MacAddress::from_u64(0x020000000123),
                             MacAddress::from_u64(0x020000000456))
                        .ipv4(Ipv4Address::from_octets(10, 1, 2, 3),
                              Ipv4Address::from_octets(198, 18, 7, 65))
                        .udp(4321, 80)
                        .timestamp_ns(77)
                        .in_port(3)
                        .build());
}

TEST(PacketBuilderRoundTrip, PlainTcp) {
  expect_round_trip(PacketBuilder()
                        .ipv4(Ipv4Address::from_octets(198, 18, 0, 9),
                              Ipv4Address::from_octets(10, 0, 0, 7),
                              kIpProtoTcp, 17)
                        .tcp(50000, 443)
                        .build());
}

TEST(PacketBuilderRoundTrip, NopOptions) {
  expect_round_trip(PacketBuilder()
                        .ipv4(Ipv4Address::from_octets(1, 2, 3, 4),
                              Ipv4Address::from_octets(5, 6, 7, 8))
                        .ip_nop_options(5)
                        .udp(1, 2)
                        .build());
}

TEST(PacketBuilderRoundTrip, TimestampOption) {
  expect_round_trip(PacketBuilder()
                        .ipv4(Ipv4Address::from_octets(1, 2, 3, 4),
                              Ipv4Address::from_octets(5, 6, 7, 8))
                        .ip_timestamp_option(3)
                        .udp(7, 9)
                        .build());
}

TEST(PacketBuilderRoundTrip, NonIpFrame) {
  expect_round_trip(PacketBuilder()
                        .eth(MacAddress::from_u64(0x020000100001),
                             MacAddress::broadcast(), kEtherTypeArp)
                        .timestamp_ns(12)
                        .build());
}

TEST(PacketBuilderRoundTrip, PaddedFrame) {
  expect_round_trip(PacketBuilder()
                        .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                              Ipv4Address::from_octets(10, 0, 0, 2))
                        .udp(1234, 5678)
                        .frame_size(256)
                        .build());
}

TEST(PacketBuilderRoundTrip, WorkloadGeneratorFrames) {
  // The frames the generators (and therefore the adversary) actually emit.
  expect_round_trip(packet_for_tuple(tuple_for_index(42, true), 9, 0));
  expect_round_trip(packet_for_tuple(tuple_for_index(43, false), 10, 1));
}

TEST(CollidingTuples, LandInTheRequestedBucket) {
  const std::size_t buckets = 4096;
  const auto tuples = colliding_tuples(16, 5, buckets, /*hash_key=*/0x1234);
  ASSERT_EQ(tuples.size(), 16u);
  std::set<std::uint64_t> keys;
  for (const FiveTuple& t : tuples) {
    EXPECT_EQ(mix64(t.key() ^ 0x1234) & (buckets - 1), 5u);
    keys.insert(t.key());
  }
  EXPECT_EQ(keys.size(), tuples.size());  // distinct flows
}

TEST(Flow, ExtractFiveTuple) {
  const FiveTuple want{Ipv4Address::from_octets(10, 1, 2, 3),
                       Ipv4Address::from_octets(192, 0, 2, 9), 5555, 80,
                       kIpProtoUdp};
  Packet pkt = packet_for_tuple(want, 0);
  const auto got = extract_five_tuple(pkt);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, want);
}

TEST(Flow, NonIpHasNoTuple) {
  EXPECT_FALSE(extract_five_tuple(invalid_packet()).has_value());
}

/// The five-tuple by definition: the parse_* composition the fixed-offset
/// decoder replaces.
std::optional<FiveTuple> parse_five_tuple(const Packet& packet) {
  const auto buf = packet.bytes();
  const auto eth = parse_ethernet(buf);
  if (!eth || eth->ether_type != kEtherTypeIpv4) return std::nullopt;
  const auto ip = parse_ipv4(buf, kEthernetHeaderSize);
  if (!ip) return std::nullopt;
  const std::size_t l4 = kEthernetHeaderSize + ip->header_size();
  FiveTuple t{ip->src, ip->dst, 0, 0, ip->protocol};
  if (ip->protocol == kIpProtoTcp) {
    const auto tcp = parse_tcp(buf, l4);
    if (!tcp) return std::nullopt;
    t.src_port = tcp->src_port;
    t.dst_port = tcp->dst_port;
  } else if (ip->protocol == kIpProtoUdp) {
    const auto udp = parse_udp(buf, l4);
    if (!udp) return std::nullopt;
    t.src_port = udp->src_port;
    t.dst_port = udp->dst_port;
  } else {
    return std::nullopt;
  }
  return t;
}

TEST(Flow, FixedOffsetDecoderEqualsTheParsers) {
  const Ipv4Address a = Ipv4Address::from_octets(10, 1, 2, 3);
  const Ipv4Address b = Ipv4Address::from_octets(192, 0, 2, 9);
  std::vector<Packet> seeds = {
      PacketBuilder().ipv4(a, b).udp(5555, 53).build(),
      PacketBuilder().ipv4(a, b, kIpProtoTcp).tcp(4000, 443).build(),
      PacketBuilder().ipv4(a, b).ip_nop_options(3).udp(1, 2).build(),
      PacketBuilder().ipv4(a, b, kIpProtoTcp).ip_timestamp_option(2)
          .tcp(7, 8).build(),
      PacketBuilder().ipv4(a, b, 1).payload({8, 0, 1, 2, 3, 4, 5, 6}).build(),
      invalid_packet(),
  };
  for (std::size_t i = 0; i < 64; ++i) seeds.push_back(packet_for_tuple(
      tuple_for_index(i), 0, static_cast<std::uint16_t>(i % 2)));
  std::size_t tuples = 0, cases = 0;
  const auto check = [&](const std::vector<std::uint8_t>& bytes) {
    const Packet p(bytes, 0);
    const auto want = parse_five_tuple(p);
    ASSERT_EQ(extract_five_tuple(p), want) << "size=" << bytes.size();
    tuples += want.has_value();
    ++cases;
  };
  for (const Packet& seed : seeds) {
    const std::vector<std::uint8_t> base(seed.bytes().begin(),
                                         seed.bytes().end());
    // Truncated frames, including inside every header.
    for (std::size_t n = 0; n <= base.size(); ++n) {
      check({base.begin(), base.begin() + std::ptrdiff_t(n)});
    }
    if (base.size() < kEthernetHeaderSize + kIpv4MinHeaderSize) continue;
    for (unsigned v = 0; v < 256; ++v) {  // every version/ihl: ihl < 5, options
      auto m = base;
      m[kEthernetHeaderSize] = static_cast<std::uint8_t>(v);
      check(m);
    }
    for (const std::uint8_t proto : {1, 6, 17, 47}) {  // ICMP, TCP, UDP, GRE
      auto m = base;
      m[kEthernetHeaderSize + 9] = proto;
      const std::size_t l4 = kEthernetHeaderSize +
                             std::size_t(m[kEthernetHeaderSize] & 0x0f) * 4;
      check(m);
      // A TCP (or UDP) header cut anywhere short of its 20 (8) bytes.
      for (std::size_t k = 0; k <= 20 && l4 + k <= m.size(); ++k) {
        check({m.begin(), m.begin() + std::ptrdiff_t(l4 + k)});
      }
    }
    for (const std::uint16_t type : {0x0800, 0x86dd, 0x0806}) {  // non-IPv4
      auto m = base;
      m[12] = static_cast<std::uint8_t>(type >> 8);
      m[13] = static_cast<std::uint8_t>(type & 0xff);
      check(m);
    }
  }
  EXPECT_GT(tuples, 100u);  // both outcomes are exercised
  EXPECT_GT(cases - tuples, 1000u);
}

TEST(Flow, ReversedTuple) {
  const FiveTuple t{Ipv4Address{1}, Ipv4Address{2}, 10, 20, 6};
  const FiveTuple r = t.reversed();
  EXPECT_EQ(r.src_ip.value, 2u);
  EXPECT_EQ(r.dst_port, 10);
  EXPECT_NE(t.key(), r.key());
}

TEST(Flow, KeysDifferAcrossTuples) {
  std::set<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    keys.insert(tuple_for_index(i).key());
  }
  EXPECT_EQ(keys.size(), 1000u);
}

TEST(Pcap, RoundTrip) {
  std::vector<Packet> packets;
  for (int i = 0; i < 10; ++i) {
    packets.push_back(packet_for_tuple(tuple_for_index(std::uint64_t(i)),
                                       1'000'000'000ULL + std::uint64_t(i) * 37));
  }
  const auto bytes = serialize_pcap(packets);
  const auto parsed = parse_pcap(bytes);
  ASSERT_EQ(parsed.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(parsed[i].timestamp_ns(), packets[i].timestamp_ns());
    ASSERT_EQ(parsed[i].size(), packets[i].size());
    EXPECT_TRUE(std::equal(parsed[i].bytes().begin(), parsed[i].bytes().end(),
                           packets[i].bytes().begin()));
  }
}

TEST(Pcap, FileRoundTrip) {
  std::vector<Packet> packets = {packet_for_tuple(tuple_for_index(1), 42)};
  const std::string path = ::testing::TempDir() + "/bolt_test.pcap";
  write_pcap(path, packets);
  const auto loaded = read_pcap(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].timestamp_ns(), 42u);
}

// --- Hand-built captures: every reader (parse_pcap, read_pcap, PcapMap,
// PcapTail) goes through the one header parse and record walk. ----------

struct Record {
  std::uint32_t sec;
  std::uint32_t frac;  ///< microseconds or nanoseconds, per the magic
  std::vector<std::uint8_t> data;
};

void put32(std::vector<std::uint8_t>& out, std::uint32_t v, bool big_endian) {
  for (int i = 0; i < 4; ++i) {
    const int shift = big_endian ? 24 - 8 * i : 8 * i;
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

/// A capture written field by field in the chosen byte order.
std::vector<std::uint8_t> hand_pcap(std::uint32_t magic, bool big_endian,
                                    const std::vector<Record>& records,
                                    std::uint32_t link_type = 1) {
  std::vector<std::uint8_t> out;
  put32(out, magic, big_endian);
  put32(out, big_endian ? 0x00020004u : 0x00040002u, big_endian);  // 2.4
  put32(out, 0, big_endian);       // thiszone
  put32(out, 0, big_endian);       // sigfigs
  put32(out, 65535, big_endian);   // snaplen
  put32(out, link_type, big_endian);
  for (const Record& r : records) {
    put32(out, r.sec, big_endian);
    put32(out, r.frac, big_endian);
    put32(out, static_cast<std::uint32_t>(r.data.size()), big_endian);
    put32(out, static_cast<std::uint32_t>(r.data.size()), big_endian);
    out.insert(out.end(), r.data.begin(), r.data.end());
  }
  return out;
}

std::string write_temp(const std::string& name,
                       const std::vector<std::uint8_t>& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return path;
  if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  return path;
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(seed + i * 7);
  return v;
}

void expect_same(const PacketView& got, const Record& want,
                 TimestampNs want_ts) {
  EXPECT_EQ(got.timestamp_ns(), want_ts);
  EXPECT_EQ(got.in_port(), 0u);
  ASSERT_EQ(got.size(), want.data.size());
  EXPECT_TRUE(std::equal(got.bytes().begin(), got.bytes().end(),
                         want.data.begin()));
}

TEST(Pcap, HandBuiltMicroAndNanoInBothByteOrders) {
  const std::vector<Record> records = {
      {3, 250, pattern(60, 1)},
      {4, 0, {}},  // zero-length record
      {5, 999'999, pattern(kMaxFrameSize, 9)},
  };
  for (const bool nano : {false, true}) {
    for (const bool big_endian : {false, true}) {
      SCOPED_TRACE(std::string(nano ? "nano" : "micro") +
                   (big_endian ? " big-endian" : " little-endian"));
      const auto bytes =
          hand_pcap(nano ? 0xa1b23c4d : 0xa1b2c3d4, big_endian, records);
      auto ts = [&](const Record& r) {
        return TimestampNs(r.sec) * 1'000'000'000ULL +
               (nano ? r.frac : TimestampNs(r.frac) * 1'000ULL);
      };
      const std::string path = write_temp("bolt_hand.pcap", bytes);
      const std::vector<Packet> parsed = parse_pcap(bytes);
      const std::vector<Packet> read = read_pcap(path);
      PcapTail tail(path);
      const std::vector<Packet> tailed = tail.poll();
      ASSERT_EQ(parsed.size(), records.size());
      ASSERT_EQ(read.size(), records.size());
      ASSERT_EQ(tailed.size(), records.size());
      for (std::size_t i = 0; i < records.size(); ++i) {
        SCOPED_TRACE(i);
        expect_same(parsed[i], records[i], ts(records[i]));
        expect_same(read[i], records[i], ts(records[i]));
        expect_same(tailed[i], records[i], ts(records[i]));
      }
    }
  }
}

/// PcapTail's read window and the record cap (constants of
/// src/net/pcap.cpp).
constexpr std::size_t kTailWindow = std::size_t{1} << 20;
constexpr std::size_t kRecordCap = 262144;

/// Records of mixed sizes, some at the cap, filling at least `min_bytes`
/// of capture.
std::vector<Record> mixed_records(std::size_t min_bytes) {
  const std::size_t sizes[] = {60, 1514, 0, 333, 9001, 77, 4096};
  std::vector<Record> records;
  std::size_t bytes = 24;
  for (std::uint32_t i = 0; bytes < min_bytes; ++i) {
    const std::size_t n = i % 300 == 150 ? kRecordCap : sizes[i % 7];
    records.push_back({i, i % 1000, pattern(n, static_cast<std::uint8_t>(i))});
    bytes += 16 + n;
  }
  return records;
}

void append_bytes(const std::string& path, const std::uint8_t* data,
                  std::size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data, 1, n, f), n);
  std::fclose(f);
}

TEST(PcapTail, ViewsAndPollsEqualParseAcrossWindowEdges) {
  const std::vector<Record> records = mixed_records(3 * kTailWindow + 4096);
  std::vector<std::size_t> ends;  // file offset just past each record
  std::size_t end = 24;
  for (const Record& r : records) ends.push_back(end += 16 + r.data.size());
  // Odd-sized appends, with cuts 1 byte either side of each window edge
  // and inside the global header.
  std::set<std::size_t> cuts = {7, 23, 24, 25, end};
  for (std::size_t k = 1; k <= 3; ++k) {
    cuts.insert({k * kTailWindow - 1, k * kTailWindow, k * kTailWindow + 1});
  }
  for (std::size_t c = 1; c < end; c += 299'993) cuts.insert(c);

  for (const bool nano : {false, true}) {
    for (const bool big_endian : {false, true}) {
      SCOPED_TRACE(std::string(nano ? "nano" : "micro") +
                   (big_endian ? " big-endian" : " little-endian"));
      const auto bytes =
          hand_pcap(nano ? 0xa1b23c4d : 0xa1b2c3d4, big_endian, records);
      ASSERT_EQ(bytes.size(), end);
      const std::vector<Packet> want = parse_pcap(bytes);
      ASSERT_EQ(want.size(), records.size());
      const std::string path =
          ::testing::TempDir() + "/bolt_tail_windows.pcap";
      std::remove(path.c_str());
      PcapTail by_view(path);
      PcapTail by_copy(path);
      std::vector<Packet> viewed;
      std::vector<Packet> copied;
      std::size_t written = 0;
      for (const std::size_t cut : cuts) {
        append_bytes(path, bytes.data() + written, cut - written);
        written = cut;
        // Each drain stops at its first empty poll, which must come only
        // once every complete record written so far has been handed out.
        const std::size_t complete = static_cast<std::size_t>(
            std::upper_bound(ends.begin(), ends.end(), written) - ends.begin());
        for (auto v = by_view.poll_views(); !v.empty();
             v = by_view.poll_views()) {
          for (const PacketView& p : v) viewed.emplace_back(p);
        }
        for (auto c = by_copy.poll(); !c.empty(); c = by_copy.poll()) {
          copied.insert(copied.end(), c.begin(), c.end());
        }
        ASSERT_EQ(viewed.size(), complete) << "after " << written << " bytes";
        ASSERT_EQ(copied.size(), complete) << "after " << written << " bytes";
      }
      EXPECT_EQ(serialize_pcap(viewed), serialize_pcap(want));
      EXPECT_EQ(serialize_pcap(copied), serialize_pcap(want));
      std::remove(path.c_str());
    }
  }
}

TEST(PcapTail, TwoWindowsKeepThePreviousPollValid) {
  // With two read windows, a poll's views survive the next poll (the
  // batch engine steps one chunk while the next is read) and the records
  // still arrive exactly once, in order.
  const std::vector<Record> records = mixed_records(3 * kTailWindow + 4096);
  const auto bytes = hand_pcap(0xa1b2c3d4, false, records);
  const std::string path = write_temp("bolt_two_windows.pcap", bytes);
  const std::vector<Packet> want = parse_pcap(bytes);
  PcapTail tail(path, 2);
  std::vector<Packet> got;
  support::Span<const PacketView> previous;
  std::size_t polls = 0;
  for (auto views = tail.poll_views(); !views.empty();
       views = tail.poll_views(), ++polls) {
    // The previous poll's views, checked after this poll read its window.
    for (std::size_t i = 0; i < previous.size(); ++i) {
      const std::size_t at = got.size() - previous.size() + i;
      ASSERT_EQ(serialize_pcap({Packet(previous[i])}),
                serialize_pcap({want[at]}));
    }
    for (const PacketView& v : views) got.emplace_back(v);
    previous = views;
  }
  tail.finish();
  EXPECT_GE(polls, 4u);
  EXPECT_EQ(serialize_pcap(got), serialize_pcap(want));
  std::remove(path.c_str());
}

TEST(Pcap, HeaderOnlyFileHasNoPackets) {
  const auto bytes = hand_pcap(0xa1b23c4d, false, {});
  ASSERT_EQ(bytes.size(), 24u);
  const std::string path = write_temp("bolt_header_only.pcap", bytes);
  EXPECT_TRUE(parse_pcap(bytes).empty());
  EXPECT_TRUE(read_pcap(path).empty());
  PcapTail tail(path);
  EXPECT_TRUE(tail.poll_views().empty());
  tail.finish();  // a complete header and no record: a clean end
  EXPECT_TRUE(tail.header_seen());
}

TEST(Pcap, WindowViewsEqualReadPackets) {
  ZipfSpec spec;
  spec.packet_count = 2000;
  const std::vector<Packet> packets = zipf_traffic(spec);
  const std::string path = ::testing::TempDir() + "/bolt_windowed.pcap";
  write_pcap(path, packets);
  const std::vector<Packet> read = read_pcap(path);
  PcapTail tail(path);
  const support::Span<const PacketView> views = tail.poll_views();
  ASSERT_EQ(read.size(), packets.size());
  ASSERT_EQ(views.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const PacketView& v = views[i];
    EXPECT_EQ(v.timestamp_ns(), read[i].timestamp_ns());
    EXPECT_EQ(v.in_port(), read[i].in_port());
    ASSERT_EQ(v.size(), read[i].size());
    EXPECT_TRUE(std::equal(v.bytes().begin(), v.bytes().end(),
                           read[i].bytes().begin()));
    EXPECT_TRUE(std::equal(v.bytes().begin(), v.bytes().end(),
                           packets[i].bytes().begin()));
  }
}

/// Each malformed capture must be rejected, with the same located message,
/// by the in-memory parser and by the file reader (PcapTail polled until
/// empty, then finish()), which also names the file.
void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     const std::string& message) {
  const std::string path = write_temp("bolt_bad.pcap", bytes);
  EXPECT_DEATH(parse_pcap(bytes), message);
  EXPECT_DEATH(read_pcap(path), "pcap '" + path + "': .*" + message);
}

TEST(PcapDeathTest, ShortGlobalHeader) {
  auto bytes = hand_pcap(0xa1b23c4d, false, {});
  bytes.resize(10);
  expect_rejected(bytes, "shorter than the 24-byte global header \\(10 bytes\\)");
  expect_rejected({}, "shorter than the 24-byte global header \\(0 bytes\\)");
}

TEST(PcapDeathTest, BadMagic) {
  expect_rejected(hand_pcap(0x12345678, false, {}), "bad magic number");
}

TEST(PcapDeathTest, NonEthernetLinkType) {
  expect_rejected(hand_pcap(0xa1b2c3d4, true, {}, /*link_type=*/101),
                  "only EN10MB supported \\(link type 101\\)");
}

TEST(PcapDeathTest, TruncatedRecordHeader) {
  // Record 0 spans bytes 24..100; record 1's header is cut after 10 bytes.
  auto bytes = hand_pcap(0xa1b23c4d, false,
                         {{1, 0, pattern(60, 1)}, {2, 0, pattern(60, 2)}});
  bytes.resize(24 + 76 + 10);
  expect_rejected(bytes,
                  "truncated record header at byte offset 100 \\(record "
                  "index 1\\): 10 of 16 bytes");
}

TEST(PcapDeathTest, TruncatedRecordBody) {
  auto bytes = hand_pcap(0xa1b2c3d4, true,
                         {{1, 0, pattern(60, 1)}, {2, 0, pattern(60, 2)}});
  bytes.resize(bytes.size() - 1);
  expect_rejected(bytes,
                  "truncated record body at byte offset 100 \\(record index "
                  "1\\): 60 bytes declared, 59 left");
}

TEST(PcapDeathTest, TruncatedRecordPastTheFirstWindow) {
  // The finished-file check locates a cut record by its absolute offset,
  // not by its offset in the read window.
  const std::vector<Record> records = mixed_records(kTailWindow + 5000);
  const auto whole = hand_pcap(0xa1b23c4d, false, records);
  const std::size_t offset = whole.size();
  ASSERT_GT(offset, kTailWindow);
  const std::string at = "at byte offset " + std::to_string(offset) +
                         " \\(record index " +
                         std::to_string(records.size()) + "\\)";
  auto cut_header = whole;
  put32(cut_header, 9, false);
  put32(cut_header, 0, false);
  put32(cut_header, 60, false);
  cut_header.resize(offset + 10);
  expect_rejected(cut_header,
                  "truncated record header " + at + ": 10 of 16 bytes");
  auto cut_body = hand_pcap(0xa1b23c4d, false, records);
  put32(cut_body, 9, false);
  put32(cut_body, 0, false);
  put32(cut_body, 60, false);
  put32(cut_body, 60, false);
  const std::vector<std::uint8_t> body = pattern(59, 4);
  cut_body.insert(cut_body.end(), body.begin(), body.end());
  expect_rejected(cut_body,
                  "truncated record body " + at + ": 60 bytes declared, 59 left");
}

TEST(PcapDeathTest, FinishLocatesAFileCutShortWhileBeingRead) {
  // A finished capture shrinks after the first window was read. The reader
  // holds no mapping of it, so finish() reports the record the cut left
  // incomplete, by absolute offset, where a mapped reader took SIGBUS.
  const std::vector<Record> records = mixed_records(3 * kTailWindow + 4096);
  const std::string path = write_temp(
      "bolt_cut_short.pcap", hand_pcap(0xa1b2c3d4, false, records));
  // The first poll hands out every record that ends inside the window; the
  // next one straddles its end.
  std::size_t index = 0;
  std::size_t offset = 24;
  while (offset + 16 + records[index].data.size() <= kTailWindow) {
    offset += 16 + records[index++].data.size();
  }
  const std::size_t left = kTailWindow - offset;
  ASSERT_GE(left, 16u);  // the straddling record's header is whole
  EXPECT_DEATH(
      {
        PcapTail tail(path);
        if (tail.poll_views().size() != index) std::abort();
        if (::truncate(path.c_str(), kTailWindow / 2) != 0) std::abort();
        tail.finish();
      },
      "pcap '.*bolt_cut_short.pcap': truncated record body at byte offset " +
          std::to_string(offset) + " \\(record index " +
          std::to_string(index) + "\\): " +
          std::to_string(records[index].data.size()) + " bytes declared, " +
          std::to_string(left - 16) + " left");
  std::remove(path.c_str());
}

TEST(PcapDeathTest, OversizedRecord) {
  // Record 1 at byte offset 100 declares, and holds, one byte over the cap.
  const auto bytes =
      hand_pcap(0xa1b2c3d4, true,
                {{1, 0, pattern(60, 1)}, {2, 0, pattern(kRecordCap + 1, 2)}});
  expect_rejected(bytes,
                  "oversized record at byte offset 100 \\(record index 1\\): "
                  "262145 bytes declared, more than 262144");
}

TEST(PcapDeathTest, TailRejectsOversizedRecordPastTheFirstWindow) {
  // A record declaring 2 GiB is never "not written yet": the tail rejects
  // it with its absolute offset, not its offset in the read window.
  const std::vector<Record> records = mixed_records(kTailWindow + 5000);
  auto bytes = hand_pcap(0xa1b23c4d, false, records);
  const std::size_t offset = bytes.size();
  ASSERT_GT(offset, kTailWindow);
  put32(bytes, 9, false);
  put32(bytes, 0, false);
  put32(bytes, 0x7fffffff, false);
  put32(bytes, 0x7fffffff, false);
  const std::vector<std::uint8_t> tail_bytes = pattern(60, 3);
  bytes.insert(bytes.end(), tail_bytes.begin(), tail_bytes.end());
  const std::string message =
      "oversized record at byte offset " + std::to_string(offset) +
      " \\(record index " + std::to_string(records.size()) +
      "\\): 2147483647 bytes declared";
  expect_rejected(bytes, message);
  const std::string path = write_temp("bolt_bad_tail.pcap", bytes);
  EXPECT_DEATH(
      {
        PcapTail tail(path);
        while (!tail.poll_views().empty()) {
        }
      },
      "pcap '.*bolt_bad_tail.pcap': " + message);
}

TEST(PcapDeathTest, NonRegularInputNamesItsPath) {
  // A directory (ftell on one reports -1, never a usable size).
  const std::string dir = ::testing::TempDir();
  EXPECT_DEATH(read_pcap(dir), "'" + dir + "': not a regular file");
  // A FIFO is rejected without waiting for a writer.
  const std::string fifo = ::testing::TempDir() + "/bolt_fifo.pcap";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  EXPECT_DEATH(read_pcap(fifo), "bolt_fifo.pcap': not a regular file");
  std::remove(fifo.c_str());
  // A finished file must exist: missing is an error, not "not yet".
  EXPECT_DEATH(read_pcap(fifo),
               "bolt_fifo.pcap': cannot open: No such file or directory");
}

TEST(PcapDeathTest, TailRejectsAFifoWithoutWaitingForAWriter) {
  // The daemon's input: a FIFO with no writer must fail the first poll
  // with its path, not block in open(2) where no idle timeout can fire.
  const std::string fifo = ::testing::TempDir() + "/bolt_tail_fifo.pcap";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  EXPECT_DEATH(PcapTail(fifo).poll_views(),
               "pcap '.*bolt_tail_fifo.pcap': not a regular file");
  std::remove(fifo.c_str());
  // A path that does not exist yet is still just "no data yet"; any other
  // open failure (here ENOTDIR) aborts instead of idling.
  PcapTail missing(fifo);
  EXPECT_TRUE(missing.poll_views().empty());
  EXPECT_FALSE(missing.header_seen());
  const std::string file = write_temp("bolt_tail_notdir.pcap", {});
  EXPECT_DEATH(PcapTail(file + "/x").poll_views(),
               "bolt_tail_notdir.pcap/x': cannot open: Not a directory");
}

TEST(Workload, UniformDeterministic) {
  UniformSpec spec;
  spec.packet_count = 100;
  const auto a = uniform_random_traffic(spec);
  const auto b = uniform_random_traffic(spec);
  ASSERT_EQ(a.size(), 100u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(std::equal(a[i].bytes().begin(), a[i].bytes().end(),
                           b[i].bytes().begin()));
  }
}

TEST(Workload, ZipfIsDeterministicAndHeavyTailed) {
  ZipfSpec spec;
  spec.flow_pool = 512;
  spec.skew = 1.2;
  spec.packet_count = 20'000;
  const auto a = zipf_traffic(spec);
  const auto b = zipf_traffic(spec);
  ASSERT_EQ(a.size(), spec.packet_count);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(std::equal(a[i].bytes().begin(), a[i].bytes().end(),
                           b[i].bytes().begin()));
  }

  std::map<std::uint64_t, std::size_t> counts;
  for (const auto& p : a) {
    const auto t = extract_five_tuple(p);
    ASSERT_TRUE(t.has_value());
    ++counts[t->key()];
  }
  // Many distinct flows appear, but the head dominates: the most popular
  // flow carries far more than its uniform share, and the top ~10% of
  // flows carry the majority of packets.
  EXPECT_GT(counts.size(), 100u);
  std::vector<std::size_t> sorted;
  for (const auto& [key, n] : counts) sorted.push_back(n);
  std::sort(sorted.rbegin(), sorted.rend());
  EXPECT_GT(sorted.front(), spec.packet_count / spec.flow_pool * 20);
  std::size_t top_decile = 0;
  for (std::size_t i = 0; i < sorted.size() / 10; ++i) top_decile += sorted[i];
  EXPECT_GT(top_decile, spec.packet_count / 2);

  // skew = 0 degenerates to (near-)uniform: the head flow stays small.
  ZipfSpec flat = spec;
  flat.skew = 0.0;
  std::map<std::uint64_t, std::size_t> flat_counts;
  for (const auto& p : zipf_traffic(flat)) {
    ++flat_counts[extract_five_tuple(p)->key()];
  }
  std::size_t flat_max = 0;
  for (const auto& [key, n] : flat_counts) flat_max = std::max(flat_max, n);
  EXPECT_LT(flat_max, spec.packet_count / spec.flow_pool * 5);
}

TEST(Workload, ChurnIntroducesNewFlows) {
  ChurnSpec spec;
  spec.active_flows = 16;
  spec.churn = 1.0;  // every packet starts a new flow
  spec.packet_count = 64;
  const auto packets = churn_traffic(spec);
  std::set<std::uint64_t> keys;
  for (const auto& p : packets) {
    const auto t = extract_five_tuple(p);
    ASSERT_TRUE(t.has_value());
    keys.insert(t->key());
  }
  EXPECT_EQ(keys.size(), 64u);
}

TEST(Workload, BridgeBroadcastFraction) {
  BridgeSpec spec;
  spec.broadcast_fraction = 1.0;
  spec.packet_count = 50;
  for (const auto& p : bridge_traffic(spec)) {
    const auto eth = parse_ethernet(p.bytes());
    ASSERT_TRUE(eth.has_value());
    EXPECT_TRUE(eth->dst.is_broadcast());
  }
}

TEST(Workload, CollidingKeysCollide) {
  const auto keys = colliding_keys(16, 3, 1024);
  ASSERT_EQ(keys.size(), 16u);
  std::set<std::uint64_t> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), 16u);
  for (const std::uint64_t k : keys) {
    EXPECT_EQ(mix64(k) & 1023u, 3u);
  }
}

TEST(Workload, LpmTrafficMatchesDeclaredLengths) {
  LpmSpec spec;
  spec.min_prefix_len = 9;
  spec.max_prefix_len = 16;
  spec.packet_count = 200;
  spec.routes_per_length = 4;
  const auto wl = lpm_traffic(spec);
  ASSERT_EQ(wl.packets.size(), 200u);
  ASSERT_EQ(wl.matched_length.size(), 200u);
  for (const int l : wl.matched_length) {
    EXPECT_GE(l, spec.min_prefix_len);
    EXPECT_LE(l, 32);
  }
}

TEST(Workload, HeartbeatsTargetHealthPort) {
  HeartbeatSpec spec;
  spec.packet_count = 20;
  for (const auto& p : heartbeat_traffic(spec)) {
    const auto ip = parse_ipv4(p.bytes(), kEthernetHeaderSize);
    ASSERT_TRUE(ip.has_value());
    EXPECT_EQ(ip->src.value >> 16, 0xac10u);
    const auto udp = parse_udp(p.bytes(), kEthernetHeaderSize + 20);
    ASSERT_TRUE(udp.has_value());
    EXPECT_EQ(udp->dst_port, spec.heartbeat_port);
  }
}

}  // namespace
}  // namespace bolt::net
