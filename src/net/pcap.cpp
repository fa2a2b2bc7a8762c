#include "net/pcap.h"

#include <fcntl.h>
#include <sys/mman.h>
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
/// PcapTail's read window. It holds the global header plus the largest
/// record, so a full window always contains a complete record.
constexpr std::size_t kTailWindowBytes = std::size_t{1} << 20;
static_assert(kTailWindowBytes >=
              kGlobalHeaderSize + kRecordHeaderSize + kMaxRecordBytes);

std::uint32_t load_u32(const std::uint8_t* p, bool swapped) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return swapped ? __builtin_bswap32(v) : v;
}

/// The one global-header parse: magic number (byte order, resolution) and
/// link type. `where` names the input in error messages.
PcapFormat parse_header(const std::uint8_t* data, std::size_t size,
                        const std::string& where) {
  BOLT_CHECK(size >= kGlobalHeaderSize,
             where + ": file shorter than the 24-byte global header (" +
                 std::to_string(size) + " bytes)");
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

/// Indexes a finished capture's records as views into `data`, in one pass
/// into a vector reserved once (to the most records the size admits).
std::vector<PacketView> index_records(const std::uint8_t* data,
                                      std::size_t size,
                                      const std::string& where) {
  const PcapFormat fmt = parse_header(data, size, where);
  std::vector<PacketView> views;
  views.reserve((size - kGlobalHeaderSize) / kRecordHeaderSize);
  walk_records(data, size, kGlobalHeaderSize, fmt, /*torn_ok=*/false, where,
               /*base_offset=*/0, /*base_index=*/0,
               [&](const PacketView& v) { views.push_back(v); });
  return views;
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

/// Opens `path` read-only, checks that it is a regular file and stores its
/// size in `*size`. Returns -1 only when the file does not exist and
/// `missing_ok`; any other failure aborts naming `where`, and a
/// non-regular file aborts with `hint`. O_NONBLOCK: opening a FIFO must
/// not wait for a writer before fstat can reject it (no effect on reads
/// of a regular file).
int open_regular(const std::string& path, const std::string& where,
                 bool missing_ok, const char* hint, std::size_t* size) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0 && missing_ok && errno == ENOENT) return -1;
  BOLT_CHECK(fd >= 0, where + ": cannot open: " + std::strerror(errno));
  struct stat st {};
  const bool stat_ok = ::fstat(fd, &st) == 0;
  const int stat_errno = errno;
  if (!stat_ok || !S_ISREG(st.st_mode)) {
    ::close(fd);
    BOLT_CHECK(stat_ok, where + ": cannot stat: " + std::strerror(stat_errno));
    BOLT_UNREACHABLE(where + ": not a regular file (" + hint + ")");
  }
  *size = static_cast<std::size_t>(st.st_size);
  return fd;
}

}  // namespace

PcapMap::PcapMap(const std::string& path) {
  const std::string where = "pcap '" + path + "'";
  const int fd = open_regular(
      path, where, /*missing_ok=*/false,
      "pcap input is mapped; tail a growing capture with --follow",
      &length_);
  if (length_ >= kGlobalHeaderSize) {
    base_ = ::mmap(nullptr, length_, PROT_READ, MAP_PRIVATE, fd, 0);
  }
  const int map_errno = errno;
  ::close(fd);  // the mapping keeps the file referenced
  if (base_ == MAP_FAILED) {
    base_ = nullptr;
    BOLT_UNREACHABLE(where + ": cannot map: " + std::strerror(map_errno));
  }
  packets_ = index_records(static_cast<const std::uint8_t*>(base_), length_,
                           where);
}

PcapMap::~PcapMap() {
  if (base_ != nullptr) ::munmap(base_, length_);
}

std::vector<Packet> read_pcap(const std::string& path) {
  const PcapMap map(path);
  return to_packets(map.packets());
}

std::vector<Packet> parse_pcap(const std::vector<std::uint8_t>& bytes) {
  const std::vector<PacketView> views =
      index_records(bytes.data(), bytes.size(), "pcap");
  return to_packets(views);
}

std::vector<std::uint8_t> serialize_pcap(const std::vector<Packet>& packets) {
  std::vector<std::uint8_t> out;
  put_u32(out, kMagicNano);
  put_u16(out, 2);   // version 2.4
  put_u16(out, 4);
  put_u32(out, 0);   // thiszone
  put_u32(out, 0);   // sigfigs
  put_u32(out, 65535);  // snaplen
  put_u32(out, kLinkTypeEthernet);
  for (const Packet& p : packets) {
    put_u32(out, static_cast<std::uint32_t>(p.timestamp_ns() / 1'000'000'000ULL));
    put_u32(out, static_cast<std::uint32_t>(p.timestamp_ns() % 1'000'000'000ULL));
    put_u32(out, static_cast<std::uint32_t>(p.size()));
    put_u32(out, static_cast<std::uint32_t>(p.size()));
    out.insert(out.end(), p.bytes().begin(), p.bytes().end());
  }
  return out;
}

PcapTail::PcapTail(std::string path) : path_(std::move(path)) {}

PcapTail::~PcapTail() {
  if (fd_ >= 0) ::close(fd_);
}

support::Span<const PacketView> PcapTail::poll_views() {
  views_.clear();
  const std::string where = "pcap tail '" + path_ + "'";
  if (fd_ < 0) {
    std::size_t size = 0;
    fd_ = open_regular(path_, where, /*missing_ok=*/true,
                       "--follow tails a growing capture file", &size);
    if (fd_ < 0) return views_;  // not created yet
    window_.reset(new std::uint8_t[kTailWindowBytes]);
  }
  // Keep the torn tail (less than one record) and fill the rest of the
  // window with whatever the writer has appended since.
  std::memmove(window_.get(), window_.get() + begin_, end_ - begin_);
  end_ -= begin_;
  begin_ = 0;
  while (end_ < kTailWindowBytes) {
    const ssize_t got =
        ::read(fd_, window_.get() + end_, kTailWindowBytes - end_);
    if (got == 0) break;  // EOF for now; the next poll reads on from here
    if (got < 0) {
      BOLT_CHECK(errno == EINTR,
                 where + ": cannot read: " + std::strerror(errno));
      continue;
    }
    end_ += static_cast<std::size_t>(got);
  }

  if (!header_done_) {
    if (end_ < kGlobalHeaderSize) return views_;
    format_ = parse_header(window_.get(), end_, where);
    header_done_ = true;
    begin_ = kGlobalHeaderSize;
    consumed_bytes_ = kGlobalHeaderSize;
  }
  const std::size_t pos = walk_records(
      window_.get(), end_, begin_, format_, /*torn_ok=*/true, where,
      /*base_offset=*/consumed_bytes_ - begin_,
      /*base_index=*/consumed_records_,
      [&](const PacketView& v) { views_.push_back(v); });
  consumed_bytes_ += pos - begin_;
  consumed_records_ += views_.size();
  begin_ = pos;
  return views_;
}

std::vector<Packet> PcapTail::poll() { return to_packets(poll_views()); }

void write_pcap(const std::string& path, const std::vector<Packet>& packets) {
  const std::vector<std::uint8_t> bytes = serialize_pcap(packets);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  BOLT_CHECK(f != nullptr, "pcap: cannot open " + path + " for writing");
  const std::size_t put = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  BOLT_CHECK(put == bytes.size(), "pcap: short write on " + path);
}

}  // namespace bolt::net
