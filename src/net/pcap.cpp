#include "net/pcap.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "support/assert.h"

namespace bolt::net {
namespace {

constexpr std::uint32_t kMagicMicro = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNano = 0xa1b23c4d;
constexpr std::uint32_t kMagicMicroSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNanoSwapped = 0x4d3cb2a1;
constexpr std::uint32_t kLinkTypeEthernet = 1;
constexpr std::size_t kGlobalHeaderSize = 24;
constexpr std::size_t kRecordHeaderSize = 16;
/// The largest record any reader accepts (libpcap's MAXIMUM_SNAPLEN).
constexpr std::uint32_t kMaxRecordBytes = 262144;
/// One PcapTail read window. It holds the global header plus the largest
/// record, so a full window always contains a complete record; two of them
/// (the monitor's chunks in flight) take 1 MiB.
constexpr std::size_t kTailWindowBytes = std::size_t{1} << 19;
static_assert(kTailWindowBytes >=
              kGlobalHeaderSize + kRecordHeaderSize + kMaxRecordBytes);

std::uint32_t load_u32(const std::uint8_t* p, bool swapped) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return swapped ? __builtin_bswap32(v) : v;
}

/// Aborts unless `size` bytes hold the global header.
void check_header_size(std::size_t size, const std::string& where) {
  BOLT_CHECK(size >= kGlobalHeaderSize,
             where + ": file shorter than the 24-byte global header (" +
                 std::to_string(size) + " bytes)");
}

/// The one global-header parse: magic number (byte order, resolution) and
/// link type. `where` names the input in error messages.
PcapFormat parse_header(const std::uint8_t* data, std::size_t size,
                        const std::string& where) {
  check_header_size(size, where);
  PcapFormat fmt;
  switch (load_u32(data, false)) {
    case kMagicMicro: break;
    case kMagicNano: fmt.nano = true; break;
    case kMagicMicroSwapped: fmt.swapped = true; break;
    case kMagicNanoSwapped:
      fmt.swapped = true;
      fmt.nano = true;
      break;
    default: BOLT_UNREACHABLE(where + ": bad magic number");
  }
  // version (2+2), thiszone, sigfigs and snaplen are not used.
  const std::uint32_t link_type = load_u32(data + 20, fmt.swapped);
  BOLT_CHECK(link_type == kLinkTypeEthernet,
             where + ": only EN10MB supported (link type " +
                 std::to_string(link_type) + ")");
  return fmt;
}

/// The one record walk: visits every complete record in [pos, size) as a
/// PacketView into `data`. Errors locate a record by its absolute byte
/// offset (`data` begins at file offset `base_offset`) and record index
/// (the first record walked is `base_index`). A record cut short by the
/// end of the bytes aborts when `torn_ok` is false (a finished file), and
/// ends the walk when it is true (a file still being written). A record
/// longer than kMaxRecordBytes always aborts: framing is lost, and a
/// reader must never size anything from that length. Returns the offset
/// just past the last complete record.
template <typename Visit>
std::size_t walk_records(const std::uint8_t* data, std::size_t size,
                         std::size_t pos, PcapFormat fmt, bool torn_ok,
                         const std::string& where, std::uint64_t base_offset,
                         std::uint64_t base_index, Visit&& visit) {
  for (std::uint64_t index = base_index; pos < size; ++index) {
    const std::size_t left = size - pos;
    auto at = [&] {
      return " at byte offset " + std::to_string(base_offset + pos) +
             " (record index " + std::to_string(index) + ")";
    };
    if (left < kRecordHeaderSize) {
      if (torn_ok) break;
      BOLT_UNREACHABLE(where + ": truncated record header" + at() + ": " +
                       std::to_string(left) + " of 16 bytes");
    }
    const std::uint8_t* rec = data + pos;
    const std::uint64_t ts_sec = load_u32(rec, fmt.swapped);
    const std::uint64_t ts_frac = load_u32(rec + 4, fmt.swapped);
    const std::uint32_t incl_len = load_u32(rec + 8, fmt.swapped);
    BOLT_CHECK(incl_len <= kMaxRecordBytes,
               where + ": oversized record" + at() + ": " +
                   std::to_string(incl_len) + " bytes declared, more than " +
                   std::to_string(kMaxRecordBytes));
    if (left - kRecordHeaderSize < incl_len) {
      if (torn_ok) break;
      BOLT_UNREACHABLE(where + ": truncated record body" + at() + ": " +
                       std::to_string(incl_len) + " bytes declared, " +
                       std::to_string(left - kRecordHeaderSize) + " left");
    }
    const TimestampNs ts =
        ts_sec * 1'000'000'000ULL + (fmt.nano ? ts_frac : ts_frac * 1'000ULL);
    visit(PacketView({rec + kRecordHeaderSize, incl_len}, ts));
    pos += kRecordHeaderSize + incl_len;
  }
  return pos;
}

std::vector<Packet> to_packets(support::Span<const PacketView> views) {
  std::vector<Packet> packets;
  packets.reserve(views.size());
  for (const PacketView& v : views) packets.emplace_back(v);
  return packets;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

/// The one encoder: appends the nanosecond EN10MB global header to `out`.
void put_global_header(std::vector<std::uint8_t>& out) {
  put_u32(out, kMagicNano);
  put_u16(out, 2);   // version 2.4
  put_u16(out, 4);
  put_u32(out, 0);   // thiszone
  put_u32(out, 0);   // sigfigs
  put_u32(out, 65535);  // snaplen
  put_u32(out, kLinkTypeEthernet);
}

/// Appends one packet's record (header and bytes) to `out`.
void put_record(std::vector<std::uint8_t>& out, const Packet& p) {
  put_u32(out, static_cast<std::uint32_t>(p.timestamp_ns() / 1'000'000'000ULL));
  put_u32(out, static_cast<std::uint32_t>(p.timestamp_ns() % 1'000'000'000ULL));
  put_u32(out, static_cast<std::uint32_t>(p.size()));
  put_u32(out, static_cast<std::uint32_t>(p.size()));
  out.insert(out.end(), p.bytes().begin(), p.bytes().end());
}

/// Opens `path` read-only and checks that it is a regular file. Returns -1
/// only when the file does not exist; any other failure aborts naming
/// `where`. O_NONBLOCK: opening a FIFO must not wait for a writer before
/// fstat can reject it (no effect on reads of a regular file).
int open_regular(const std::string& path, const std::string& where) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0 && errno == ENOENT) return -1;
  BOLT_CHECK(fd >= 0, where + ": cannot open: " + std::strerror(errno));
  struct stat st {};
  const bool stat_ok = ::fstat(fd, &st) == 0;
  const int stat_errno = errno;
  if (!stat_ok || !S_ISREG(st.st_mode)) {
    ::close(fd);
    BOLT_CHECK(stat_ok, where + ": cannot stat: " + std::strerror(stat_errno));
    BOLT_UNREACHABLE(where +
                     ": not a regular file (pcap input is read from a "
                     "regular file; --follow tails one as it grows)");
  }
  return fd;
}

}  // namespace

std::vector<Packet> read_pcap(const std::string& path) {
  PcapTail tail(path);
  std::vector<Packet> packets;
  // Room for a record per minimum-size Ethernet frame (60 bytes), so the
  // vector does not regrow on an ordinary capture.
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0 && st.st_size > 0) {
    packets.reserve(static_cast<std::size_t>(st.st_size) /
                    (kRecordHeaderSize + 60));
  }
  for (auto views = tail.poll_views(); !views.empty();
       views = tail.poll_views()) {
    for (const PacketView& v : views) packets.emplace_back(v);
  }
  tail.finish();
  return packets;
}

std::vector<Packet> parse_pcap(const std::vector<std::uint8_t>& bytes) {
  const std::string where = "pcap";
  const PcapFormat fmt = parse_header(bytes.data(), bytes.size(), where);
  std::vector<Packet> packets;
  walk_records(bytes.data(), bytes.size(), kGlobalHeaderSize, fmt,
               /*torn_ok=*/false, where, /*base_offset=*/0, /*base_index=*/0,
               [&](const PacketView& v) { packets.emplace_back(v); });
  return packets;
}

std::vector<std::uint8_t> serialize_pcap(const std::vector<Packet>& packets) {
  std::vector<std::uint8_t> out;
  put_global_header(out);
  for (const Packet& p : packets) put_record(out, p);
  return out;
}

PcapTail::PcapTail(std::string path, std::size_t windows)
    : path_(std::move(path)), where_("pcap '" + path_ + "'") {
  BOLT_CHECK(windows >= 1, where_ + ": a reader needs a read window");
  windows_.resize(windows);
}

PcapTail::~PcapTail() {
  if (fd_ >= 0) ::close(fd_);
}

support::Span<const PacketView> PcapTail::poll_views() {
  if (fd_ < 0) {
    fd_ = open_regular(path_, where_);
    if (fd_ < 0) return {};  // not created yet
    for (Window& w : windows_) w.bytes.reset(new std::uint8_t[kTailWindowBytes]);
  }
  // Carry the torn tail (less than one record) to the front of the next
  // window and fill the rest with whatever the writer has appended since.
  const std::uint8_t* tail = windows_[current_].bytes.get() + begin_;
  current_ = (current_ + 1) % windows_.size();
  std::uint8_t* window = windows_[current_].bytes.get();
  std::vector<PacketView>& views = windows_[current_].views;
  views.clear();
  std::memmove(window, tail, end_ - begin_);
  end_ -= begin_;
  begin_ = 0;
  while (end_ < kTailWindowBytes) {
    const ssize_t got = ::read(fd_, window + end_, kTailWindowBytes - end_);
    if (got == 0) break;  // EOF for now; the next poll reads on from here
    if (got < 0) {
      BOLT_CHECK(errno == EINTR,
                 where_ + ": cannot read: " + std::strerror(errno));
      continue;
    }
    end_ += static_cast<std::size_t>(got);
  }

  if (!header_done_) {
    if (end_ < kGlobalHeaderSize) return views;
    format_ = parse_header(window, end_, where_);
    header_done_ = true;
    begin_ = kGlobalHeaderSize;
    consumed_bytes_ = kGlobalHeaderSize;
  }
  const std::size_t pos = walk_records(
      window, end_, begin_, format_, /*torn_ok=*/true, where_,
      /*base_offset=*/consumed_bytes_ - begin_,
      /*base_index=*/consumed_records_,
      [&](const PacketView& v) { views.push_back(v); });
  consumed_bytes_ += pos - begin_;
  consumed_records_ += views.size();
  begin_ = pos;
  return views;
}

std::vector<Packet> PcapTail::poll() { return to_packets(poll_views()); }

void PcapTail::finish() {
  BOLT_CHECK(fd_ >= 0, where_ + ": cannot open: " + std::strerror(ENOENT));
  // An empty poll read to the end of the file (a full window always holds
  // a complete record), so the file ends where the bytes read so far end.
  struct stat st {};
  BOLT_CHECK(::fstat(fd_, &st) == 0,
             where_ + ": cannot stat: " + std::strerror(errno));
  const std::uint64_t read_to = consumed_bytes_ + (end_ - begin_);
  BOLT_CHECK(static_cast<std::uint64_t>(st.st_size) <= read_to,
             where_ + ": finish() before the last poll (" +
                 std::to_string(st.st_size - read_to) + " bytes unread)");
  // What is left in the window is less than one record: the file ends
  // inside it, unless nothing is left.
  if (!header_done_) check_header_size(end_, where_);
  walk_records(windows_[current_].bytes.get(), end_, begin_, format_,
               /*torn_ok=*/false, where_,
               /*base_offset=*/consumed_bytes_ - begin_,
               /*base_index=*/consumed_records_, [](const PacketView&) {});
}

void write_pcap(const std::string& path, const std::vector<Packet>& packets) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  BOLT_CHECK(f != nullptr, "pcap: cannot open " + path + " for writing");
  // Records go out through one fixed buffer, flushed whenever it holds
  // kWriteBufferBytes, so writing needs no memory per packet.
  constexpr std::size_t kWriteBufferBytes = std::size_t{1} << 16;
  std::vector<std::uint8_t> buffer;
  buffer.reserve(kWriteBufferBytes + kRecordHeaderSize + kMaxRecordBytes);
  bool ok = true;
  auto flush = [&] {
    ok = ok && std::fwrite(buffer.data(), 1, buffer.size(), f) == buffer.size();
    buffer.clear();
  };
  put_global_header(buffer);
  for (const Packet& p : packets) {
    put_record(buffer, p);
    if (buffer.size() >= kWriteBufferBytes) flush();
  }
  flush();
  ok = std::fclose(f) == 0 && ok;
  BOLT_CHECK(ok, "pcap: short write on " + path);
}

}  // namespace bolt::net
