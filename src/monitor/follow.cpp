#include "monitor/follow.h"

#include <utility>

#include "support/assert.h"

namespace bolt::monitor {

namespace {

MonitorOptions normalized(MonitorOptions options) {
  if (options.partitions == 0) options.partitions = 1;
  return options;
}

FleetOptions normalized(FleetOptions fleet) {
  if (fleet.instances == 0) fleet.instances = 1;
  return fleet;
}

}  // namespace

StreamMonitor::StreamMonitor(const perf::Contract& contract,
                             const perf::PcvRegistry& reg,
                             const MonitorEngine::TargetFactory& factory,
                             MonitorOptions options, FleetOptions fleet,
                             WindowFn on_window)
    : factory_(factory),
      options_(normalized(options)),
      fleet_(normalized(std::move(fleet))),
      compiled_(contract, reg, options_),
      driver_(compiled_, options_, factory_, owned(), std::move(on_window)) {}

StreamMonitor::~StreamMonitor() = default;

std::vector<char> StreamMonitor::owned() const {
  BOLT_CHECK(fleet_.instance < fleet_.instances,
             "stream monitor: instance id out of range");
  BOLT_CHECK(fleet_.owners.empty() || fleet_.owners.size() == options_.partitions,
             "stream monitor: owners map must cover every partition");
  std::vector<char> owned(options_.partitions, 0);
  for (std::size_t p = 0; p < owned.size(); ++p) {
    const std::uint32_t owner =
        fleet_.owners.empty()
            ? static_cast<std::uint32_t>(p % fleet_.instances)
            : fleet_.owners[p];
    BOLT_CHECK(owner < fleet_.instances,
               "stream monitor: partition owner out of range");
    owned[p] = owner == fleet_.instance;
  }
  return owned;
}

void StreamMonitor::feed(const net::PacketView& packet) {
  driver_.feed(support::Span<const net::PacketView>(&packet, 1));
}

void StreamMonitor::feed(support::Span<const net::PacketView> chunk) {
  driver_.feed(chunk);
}

void StreamMonitor::drain() { driver_.drain(); }

void StreamMonitor::idle_flush() { driver_.idle_flush(); }

obs::MonitorTelemetry StreamMonitor::telemetry_snapshot() {
  return driver_.telemetry();
}

StreamResult StreamMonitor::finish() {
  StreamResult out;
  out.report = driver_.finish();
  out.observations.alerts = driver_.alerts();
  // Merge-time facts are mirrored whether or not counter collection was on
  // — same as the batch engine (counters stay zero when telemetry is off).
  out.observations.telemetry = driver_.telemetry();
  return out;
}

}  // namespace bolt::monitor
