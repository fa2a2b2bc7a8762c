// PCAP file reading and writing (implemented from scratch — no libpcap).
//
// The Distiller (paper §4) consumes traffic samples as PCAP files, and our
// workload generators can persist their traces the same way. We support the
// classic libpcap format, both microsecond (0xa1b2c3d4) and nanosecond
// (0xa1b23c4d) variants, in either byte order.
//
// Every reader shares one global-header parse and one record walk
// (pcap.cpp), so the format is decoded in exactly one place:
//
//  * PcapMap maps a finished capture read-only and indexes each record as
//    a PacketView into the mapping — no byte is copied. It accepts only
//    regular files (a directory, pipe or FIFO is rejected with its path).
//    A mapped file must not shrink while it is mapped: the kernel raises
//    SIGBUS on a read past the new end. Captures that are still being
//    written belong to PcapTail (`bolt_cli monitor --follow`), never to
//    the mapped reader.
//  * read_pcap maps the file the same way and copies each record into an
//    owned Packet; parse_pcap does the same over bytes in memory.
//  * PcapTail reads a growing file through one fixed 1 MiB read window
//    that it reuses for the life of the tail, so its memory does not grow
//    with the capture. Each poll moves the torn tail (less than one
//    record) to the front of the window, reads until the window is full
//    or the file ends, and hands out views into the window. The views
//    stay valid until the next poll. A torn trailing record is "not
//    written yet", never an error.
//
// Malformed input aborts with a message that locates it: a short global
// header, a bad magic number, a non-EN10MB link type, a record whose
// header or body runs past the end of a finished file, or a record that
// declares more than 262144 bytes (libpcap's MAXIMUM_SNAPLEN). Framing is
// lost after an oversized length, so every reader, PcapTail included,
// rejects it rather than skip it or wait for it. Errors give the absolute
// byte offset and record index.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/packet.h"

namespace bolt::net {

/// Byte order and timestamp resolution of a capture, from its magic number.
struct PcapFormat {
  bool swapped = false;  ///< file byte order differs from the host's
  bool nano = false;     ///< nanosecond (not microsecond) timestamps
};

/// A finished pcap file mapped read-only, every record indexed as a view
/// into the mapping. The views live as long as the map. Aborts on a file
/// that cannot be opened, is not a regular file, or is malformed.
class PcapMap {
 public:
  explicit PcapMap(const std::string& path);
  ~PcapMap();
  PcapMap(const PcapMap&) = delete;
  PcapMap& operator=(const PcapMap&) = delete;

  /// One view per record, in file order (in_port 0: pcap has no port).
  const std::vector<PacketView>& packets() const { return packets_; }

 private:
  void* base_ = nullptr;
  std::size_t length_ = 0;
  std::vector<PacketView> packets_;
};

/// Reads all packets from a PCAP file (mapped, then copied into owned
/// packets). Aborts on malformed or non-regular files, like PcapMap.
std::vector<Packet> read_pcap(const std::string& path);

/// Writes packets as a nanosecond-resolution PCAP file (link type EN10MB).
void write_pcap(const std::string& path, const std::vector<Packet>& packets);

/// In-memory variants used by tests.
std::vector<Packet> parse_pcap(const std::vector<std::uint8_t>& bytes);
std::vector<std::uint8_t> serialize_pcap(const std::vector<Packet>& packets);

/// Incremental reader for a pcap file that is still being written — the
/// daemon-mode (`bolt_cli monitor --follow`) input path. Each poll reads
/// what has been appended since the last poll, up to one read window, and
/// returns the complete records in it; a partially-written trailing record
/// (or a file that does not exist yet, or one shorter than its global
/// header) is simply "no data yet" and is retried on the next poll. Both
/// timestamp resolutions and byte orders are accepted; a *malformed*
/// header (bad magic, non-Ethernet link type) or an oversized record still
/// aborts loudly, exactly like read_pcap — a tailed file must be a pcap,
/// it is only allowed to be unfinished. Only a missing path waits: a path
/// that cannot be opened, or is not a regular file (a FIFO, a directory),
/// aborts on the first poll naming it.
class PcapTail {
 public:
  explicit PcapTail(std::string path);
  ~PcapTail();
  PcapTail(const PcapTail&) = delete;
  PcapTail& operator=(const PcapTail&) = delete;

  /// Views of the next complete records, in file order, into the read
  /// window; valid until the next poll. Empty only when no complete record
  /// is available (not yet created / nothing new appended).
  support::Span<const PacketView> poll_views();

  /// poll_views() copied into owned packets.
  std::vector<Packet> poll();

  /// True once the global header has been read and validated.
  bool header_seen() const { return header_done_; }

 private:
  std::string path_;
  int fd_ = -1;
  bool header_done_ = false;
  PcapFormat format_;
  std::unique_ptr<std::uint8_t[]> window_;  ///< fixed size, reused
  std::size_t begin_ = 0;  ///< window offset of the first unused byte
  std::size_t end_ = 0;    ///< window offset just past the bytes read
  std::uint64_t consumed_bytes_ = 0;    ///< file offset of window_[begin_]
  std::uint64_t consumed_records_ = 0;  ///< records handed out so far
  std::vector<PacketView> views_;       ///< reused across polls
};

}  // namespace bolt::net
