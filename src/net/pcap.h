// PCAP file reading and writing (implemented from scratch — no libpcap).
//
// The Distiller (paper §4) consumes traffic samples as PCAP files, and our
// workload generators can persist their traces the same way. We support the
// classic libpcap format, both microsecond (0xa1b2c3d4) and nanosecond
// (0xa1b23c4d) variants, in either byte order.
//
// The format is decoded in exactly one place (pcap.cpp: one global-header
// parse and one record walk), and every file goes through one reader:
//
//  * PcapTail reads a capture through fixed 512 KiB read windows that it
//    reuses for its whole life, so its memory does not grow with the
//    capture. Each poll moves the torn tail (less than one record) to the
//    front of the next window, reads until that window is full or the file
//    ends, and hands out views into it. With one window (the default) the
//    views stay valid until the next poll; with two, until the poll after
//    that. A finished file and a growing one differ only in what their end
//    means:
//      - growing (`bolt_cli monitor --follow`): a missing file, a short
//        global header or a torn trailing record is "not written yet" and
//        is retried on the next poll;
//      - finished (`monitor --pcap`, read_pcap): the caller polls until a
//        poll comes back empty, then calls finish(), which rejects a
//        missing file, a short global header and a file that ends inside
//        a record. A file cut short while it is being read therefore fails
//        with a located error too.
//  * read_pcap is that finished-file read, copied into owned Packets;
//    parse_pcap does the same over bytes in memory.
//
// Malformed input aborts with a message that names the path and locates
// the fault: a short global header, a bad magic number, a non-EN10MB link
// type, a record whose header or body runs past the end of a finished
// file, or a record that declares more than 262144 bytes (libpcap's
// MAXIMUM_SNAPLEN). Framing is lost after an oversized length, so even a
// growing file rejects it rather than skip it or wait for it. Errors give
// the absolute byte offset and record index.
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

/// Reads all packets of a finished PCAP file: PcapTail polled until empty,
/// then finish(), each record copied into an owned packet. Aborts on a
/// missing, non-regular or malformed file.
std::vector<Packet> read_pcap(const std::string& path);

/// Writes packets as a nanosecond-resolution PCAP file (link type EN10MB).
void write_pcap(const std::string& path, const std::vector<Packet>& packets);

/// In-memory variants used by tests.
std::vector<Packet> parse_pcap(const std::vector<std::uint8_t>& bytes);
std::vector<std::uint8_t> serialize_pcap(const std::vector<Packet>& packets);

/// The pcap file reader (see the file comment). Each poll reads what has
/// been appended since the last poll, up to one read window, and returns
/// the complete records in it. On a growing file, a partially written
/// trailing record, a file that does not exist yet, or one shorter than
/// its global header is "no data yet" and is retried on the next poll.
/// Both timestamp resolutions and byte orders are accepted. A malformed
/// header (bad magic, non-Ethernet link type) or an oversized record
/// aborts at once: a tailed file must be a pcap, it is only allowed to be
/// unfinished. Only a missing path waits: a path that cannot be opened, or
/// is not a regular file (a FIFO, a directory), aborts on the first poll
/// naming it.
class PcapTail {
 public:
  /// Reads `path` through `windows` read windows used in turn: the views a
  /// poll hands out stay valid until `windows` more polls. The monitor,
  /// batch and daemon alike, keeps MonitorEngine::kChunksInFlight polls in
  /// use, so that its partitions need not wait for each other at every
  /// window; a reader that copies each poll's packets needs one window.
  explicit PcapTail(std::string path, std::size_t windows = 1);
  ~PcapTail();
  PcapTail(const PcapTail&) = delete;
  PcapTail& operator=(const PcapTail&) = delete;

  /// Views of the next complete records, in file order, into the next read
  /// window; valid until `windows` more polls. Empty only when no complete
  /// record is available (not yet created / nothing new appended).
  support::Span<const PacketView> poll_views();

  /// poll_views() copied into owned packets.
  std::vector<Packet> poll();

  /// Declares the file finished; call it once a poll has come back empty.
  /// Aborts, naming the path, if the file does not exist or is shorter
  /// than its global header, and with the absolute byte offset and record
  /// index if it ends inside a record (also when the file was cut short
  /// after it was read). Aborts too if the file holds bytes no poll has
  /// read yet (a caller that stopped early). Invalidates no view.
  void finish();

  /// True once the global header has been read and validated.
  bool header_seen() const { return header_done_; }

 private:
  std::string path_;
  std::string where_;  ///< "pcap '<path>'", the prefix of every error
  int fd_ = -1;
  bool header_done_ = false;
  PcapFormat format_;
  /// One read window and the views a poll handed out into it.
  struct Window {
    std::unique_ptr<std::uint8_t[]> bytes;  ///< fixed size; null until open
    std::vector<PacketView> views;          ///< reused across polls
  };
  std::vector<Window> windows_;  ///< used in turn
  std::size_t current_ = 0;      ///< the window the last poll read into
  std::size_t begin_ = 0;  ///< window offset of the first unused byte
  std::size_t end_ = 0;    ///< window offset just past the bytes read
  std::uint64_t consumed_bytes_ = 0;    ///< file offset of window_[begin_]
  std::uint64_t consumed_records_ = 0;  ///< records handed out so far
};

}  // namespace bolt::net
