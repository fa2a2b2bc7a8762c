#include "monitor/monitor.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "monitor/driver.h"
#include "monitor/partition.h"
#include "net/flow.h"
#include "net/headers.h"
#include "support/assert.h"

namespace bolt::monitor {

namespace {

/// Packets per chunk when run() slices an input held in memory.
constexpr std::size_t kSlicePackets = std::size_t{1} << 16;

/// Big-endian loads (the caller has bounds-checked).
std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return __builtin_bswap64(v);
}

/// h % partitions, without the division when partitions is a power of two
/// (the default 8).
std::size_t reduce(std::uint64_t h, std::size_t partitions) {
  if ((partitions & (partitions - 1)) == 0) {
    return static_cast<std::size_t>(h & (partitions - 1));
  }
  return static_cast<std::size_t>(h % partitions);
}

}  // namespace

std::size_t partition_of(const net::PacketView& packet, std::size_t partitions) {
  if (partitions <= 1) return 0;
  // The MACs at fixed offsets, then the five-tuple when there is one.
  const std::uint8_t* b = packet.bytes().data();
  const std::size_t n = packet.size();
  constexpr std::size_t kIp = net::kEthernetHeaderSize;
  if (n < kIp) return 0;  // no Ethernet header: hash 0
  // The 48-bit MACs, each read as part of a 64-bit word inside the header.
  const std::uint64_t dst_mac = load_be64(b) >> 16;
  const std::uint64_t src_mac = load_be64(b + 4) & 0xffffffffffffULL;
  std::uint64_t h = net::mix64(src_mac * 0x9E3779B97F4A7C15ULL ^ dst_mac);
  if (const auto t = net::extract_five_tuple(packet)) {
    h = net::mix64(h ^ t->key());
  }
  return reduce(h, partitions);
}

MonitorEngine::MonitorEngine(const perf::Contract& contract,
                             const perf::PcvRegistry& reg,
                             MonitorOptions options)
    : options_(options) {
  if (options_.partitions == 0) options_.partitions = 1;
  compiled_ = std::make_unique<const CompiledContract>(contract, reg, options_);
}

MonitorEngine::~MonitorEngine() = default;

MonitorEngine::TargetFactory MonitorEngine::named_factory(std::string name) {
  return [name = std::move(name)](perf::PcvRegistry& reg) {
    core::NfTarget target;
    BOLT_CHECK(core::make_named_target(name, reg, target),
               "monitor: unknown target '" + name + "'");
    return target;
  };
}

MonitorReport MonitorEngine::run(const std::vector<net::Packet>& packets,
                                 const TargetFactory& factory,
                                 std::vector<std::uint32_t>* attribution,
                                 obs::RunObservations* observations) const {
  std::array<std::vector<net::PacketView>, kChunksInFlight> slices;
  std::size_t next = 0;
  std::size_t calls = 0;
  return run(
      [&]() -> support::Span<const net::PacketView> {
        const std::size_t n = std::min(kSlicePackets, packets.size() - next);
        std::vector<net::PacketView>& slice = slices[calls++ % kChunksInFlight];
        slice.assign(packets.begin() + next, packets.begin() + next + n);
        next += n;
        return slice;
      },
      factory, attribution, observations);
}

MonitorReport MonitorEngine::run(support::Span<const net::PacketView> packets,
                                 const TargetFactory& factory,
                                 std::vector<std::uint32_t>* attribution,
                                 obs::RunObservations* observations) const {
  std::size_t next = 0;
  return run(
      [&] {
        const std::size_t n = std::min(kSlicePackets, packets.size() - next);
        next += n;
        return packets.subspan(next - n, n);
      },
      factory, attribution, observations);
}

MonitorReport MonitorEngine::run(const ChunkSource& next,
                                 const TargetFactory& factory,
                                 std::vector<std::uint32_t>* attribution,
                                 obs::RunObservations* observations) const {
  // The batch engine is the chunk driver owning every partition, fed the
  // source's chunks until it runs dry; its closed windows are the delta
  // stream.
  std::vector<obs::DeltaWindow> deltas;
  ChunkDriver driver(
      *compiled_, options_, factory,
      std::vector<char>(options_.partitions, 1),
      [&](const ClosedWindow& cw) {
        if (observations != nullptr && cw.has_delta) {
          deltas.push_back(cw.delta);
        }
      },
      attribution);
  for (auto chunk = next(); !chunk.empty(); chunk = next()) driver.feed(chunk);
  MonitorReport report = driver.finish();
  if (observations != nullptr) {
    *observations = obs::RunObservations{};
    observations->telemetry = driver.telemetry();
    observations->deltas = std::move(deltas);
    observations->alerts = driver.alerts();
  }
  return report;
}

}  // namespace bolt::monitor
