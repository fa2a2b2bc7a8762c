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
//  * PcapTail reads a growing file incrementally and stops at a torn
//    trailing record instead of rejecting it.
//
// Malformed input aborts with a message that locates it: a short global
// header, a bad magic number, a non-EN10MB link type, or a record whose
// header or body runs past the end of a finished file (byte offset and
// record index).
#pragma once

#include <cstdio>
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
/// daemon-mode (`bolt_cli monitor --follow`) input path. Each poll() reads
/// whatever complete records have been appended since the last poll and
/// returns them; a partially-written trailing record (or a file that does
/// not exist yet, or one shorter than its global header) is simply "no
/// data yet" and is retried on the next poll. Both timestamp resolutions
/// and byte orders are accepted; a *malformed* header (bad magic, non-
/// Ethernet link type) still aborts loudly, exactly like read_pcap — a
/// tailed file must be a pcap, it is only allowed to be unfinished.
class PcapTail {
 public:
  explicit PcapTail(std::string path);
  ~PcapTail();
  PcapTail(const PcapTail&) = delete;
  PcapTail& operator=(const PcapTail&) = delete;

  /// Drains newly completed records. Returns an empty vector when nothing
  /// new is available (not yet created / no new complete records).
  std::vector<Packet> poll();

  /// True once the global header has been read and validated.
  bool header_seen() const { return header_done_; }

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
  bool header_done_ = false;
  PcapFormat format_;
  std::vector<std::uint8_t> buf_;  ///< carried-over partial record bytes
};

}  // namespace bolt::net
