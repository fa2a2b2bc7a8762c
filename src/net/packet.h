// Packet — an owned byte buffer plus receive metadata — and PacketView, the
// same three fields over bytes someone else owns.
//
// Packet is the unit of work for every NF in the repository: workload
// generators produce packets, PCAP files store them, and the IR interpreter
// exposes their bytes to NF programs via packet-load instructions.
// PacketView is what the read-only consumers take (the monitor's partition
// hash, MonitorEngine::run, StreamMonitor::feed): a mapped pcap record or a
// Packet, with no copy. The NF itself always runs on an owned Packet,
// because it rewrites headers.
#pragma once

#include <cstdint>
#include "support/span.h"
#include <vector>

namespace bolt::net {

/// Nanosecond timestamps; NF time (flow expiry etc.) is driven by these.
using TimestampNs = std::uint64_t;

inline constexpr std::size_t kMinFrameSize = 60;    // without FCS
inline constexpr std::size_t kMaxFrameSize = 1514;  // standard MTU frame

class PacketView;

class Packet {
 public:
  Packet() = default;
  Packet(std::vector<std::uint8_t> data, TimestampNs timestamp_ns,
         std::uint16_t in_port = 0)
      : data_(std::move(data)), timestamp_ns_(timestamp_ns), in_port_(in_port) {}
  /// An owned copy of a view.
  explicit Packet(const PacketView& view) { assign(view); }

  /// Overwrites this packet with a copy of `view`, reusing the buffer's
  /// capacity (no allocation once it has held a packet as large).
  inline void assign(const PacketView& view);

  support::Span<const std::uint8_t> bytes() const { return data_; }
  support::Span<std::uint8_t> mutable_bytes() { return data_; }
  std::size_t size() const { return data_.size(); }

  TimestampNs timestamp_ns() const { return timestamp_ns_; }
  void set_timestamp_ns(TimestampNs t) { timestamp_ns_ = t; }

  std::uint16_t in_port() const { return in_port_; }
  void set_in_port(std::uint16_t p) { in_port_ = p; }

 private:
  std::vector<std::uint8_t> data_;
  TimestampNs timestamp_ns_ = 0;
  std::uint16_t in_port_ = 0;
};

/// A packet's bytes, timestamp and in_port, borrowed: valid only while the
/// bytes' owner (a Packet, a mapped pcap) is.
class PacketView {
 public:
  PacketView() = default;
  PacketView(support::Span<const std::uint8_t> bytes, TimestampNs timestamp_ns,
             std::uint16_t in_port = 0)
      : bytes_(bytes), timestamp_ns_(timestamp_ns), in_port_(in_port) {}
  /// Implicit, so every caller holding Packets can pass them where views
  /// are taken.
  PacketView(const Packet& packet)  // NOLINT(google-explicit-constructor)
      : PacketView(packet.bytes(), packet.timestamp_ns(), packet.in_port()) {}

  support::Span<const std::uint8_t> bytes() const { return bytes_; }
  std::size_t size() const { return bytes_.size(); }
  TimestampNs timestamp_ns() const { return timestamp_ns_; }
  std::uint16_t in_port() const { return in_port_; }

 private:
  support::Span<const std::uint8_t> bytes_;
  TimestampNs timestamp_ns_ = 0;
  std::uint16_t in_port_ = 0;
};

inline void Packet::assign(const PacketView& view) {
  data_.assign(view.bytes().begin(), view.bytes().end());
  timestamp_ns_ = view.timestamp_ns();
  in_port_ = view.in_port();
}

/// What an NF did with a packet.
enum class NfVerdict : std::uint8_t { kDrop = 0, kForward = 1, kFlood = 2 };

}  // namespace bolt::net
