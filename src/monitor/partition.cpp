#include "monitor/partition.h"

#include <algorithm>

namespace bolt::monitor {

namespace {

constexpr std::uint32_t kUnmapped = ~0u;

}  // namespace

CompiledContract::CompiledContract(const perf::Contract& contract,
                                   const perf::PcvRegistry& reg,
                                   const MonitorOptions& options)
    : contract(contract), reg(reg) {
  slot_stride = std::max<std::size_t>(reg.size(), 1);
  bounds.reserve(contract.entries().size());
  entry_names.reserve(contract.entries().size());
  for (std::size_t i = 0; i < contract.entries().size(); ++i) {
    const perf::ContractEntry& entry = contract.entries()[i];
    std::array<perf::CompiledExpr, 3> exprs;
    for (const perf::Metric m : perf::kAllMetrics) {
      const int mi = perf::metric_index(m);
      exprs[mi] = perf::CompiledExpr::compile(entry.perf.get(m));
      slot_stride = std::max(slot_stride, exprs[mi].slot_count());
    }
    bounds.push_back(std::move(exprs));
    entry_index.emplace(entry.input_class, i);
    entry_names.push_back(entry.input_class);
  }
  if (options.delta_every > 0 && options.epoch_ns > 0) {
    delta_window_ns = options.epoch_ns * options.delta_every;
  }
}

PartitionRunner::PartitionRunner(const CompiledContract& compiled,
                                 const MonitorOptions& options,
                                 const MonitorEngine::TargetFactory& factory,
                                 obs::MonitorTelemetry* tel)
    : compiled_(compiled),
      options_(options),
      tel_(tel),
      cycles_(options.cycle_costs),
      resolver_(&compiled.entry_index) {
  // The partition's PCVs are interned into a partition-local registry; map
  // them onto the contract registry's ids by name once, up front.
  target_ = factory(local_reg_);
  pcv_slot_.assign(local_reg_.size(), kUnmapped);
  for (const perf::PcvId id : local_reg_.all()) {
    const std::string& name = local_reg_.name(id);
    if (compiled.reg.contains(name)) pcv_slot_[id] = compiled.reg.require(name);
  }
  resolver_.bind(target_);
  runner_ = target_.make_runner(options.framework,
                                options.check_cycles ? &cycles_ : nullptr,
                                options.engine);
  // Loop-trip PCVs (linearised loop families): flat loop slot -> contract
  // slot of the PCV named after the loop.
  ir::RunLabels& labels = runner_->labels();
  loop_slot_.assign(labels.loop_count(), kUnmapped);
  for (std::size_t flat = 0; flat < labels.loop_count(); ++flat) {
    const std::string& name = labels.loop_name(flat);
    if (compiled.reg.contains(name)) {
      loop_slot_[flat] = compiled.reg.require(name);
    }
  }
  track_state_ = target_.has_state_observers();
  epochs_on_ = options.epoch_ns > 0 && track_state_;
}

PartitionRunner::Step PartitionRunner::step(const net::PacketView& packet) {
  Step out;
  // Deterministic epoch clock: driven purely by this partition's packet
  // timestamps (never wall-clock), so every crossing — and therefore every
  // idle-expiry sweep — is a pure function of the trace and the partition
  // count. The per-packet check is one compare against the next boundary;
  // the division only runs at crossings. Sweeps are silently metered:
  // maintenance is not attributable to a packet.
  std::uint64_t straddle_leak = 0;
  if (epochs_on_) {
    const std::uint64_t epoch_ns = options_.epoch_ns;
    const std::uint64_t ts = packet.timestamp_ns();
    if (!have_epoch_) {
      have_epoch_ = true;
      next_boundary_ = (ts / epoch_ns + 1) * epoch_ns;
    } else if (ts >= next_boundary_) {
      // Sweep state stale as of the boundary the clock just crossed.
      const std::uint64_t epoch = ts / epoch_ns;
      out.swept = true;
      out.expired = target_.expire_state(epoch * epoch_ns);
      next_boundary_ = (epoch + 1) * epoch_ns;
      // Test-only seeded bug (MonitorOptions::inject_straddle_bug): leak
      // one instruction of sweep cost into a packet sitting exactly on the
      // boundary it just triggered.
      if (options_.inject_straddle_bug && ts == epoch * epoch_ns) {
        straddle_leak = 1;
      }
    }
  }

  packet_.assign(packet);
  if (options_.check_cycles) cycles_.begin_packet();
  runner_->process_into(packet_, run_);
  if (track_state_) out.occupancy = target_.state_occupancy();
  if (tel_ != nullptr) ++tel_->packets_executed;
  out.measured = {run_.instructions + straddle_leak, run_.mem_accesses,
                  options_.check_cycles ? cycles_.packet_cycles() : 0};
  out.entry = resolver_.resolve(run_, runner_->labels(), kUnattributedEntry,
                                tel_ != nullptr ? &tel_->attr_memo_hits
                                                : nullptr);
  return out;
}

void PartitionRunner::fill_row(std::uint64_t* row) const {
  std::fill_n(row, compiled_.slot_stride, 0);
  for (const auto& [id, value] : run_.pcvs.values()) {
    if (id < pcv_slot_.size() && pcv_slot_[id] != kUnmapped) {
      row[pcv_slot_[id]] = value;
    }
  }
  for (std::size_t flat = 0; flat < run_.loop_trips.size(); ++flat) {
    const std::uint64_t trips = run_.loop_trips[flat];
    if (trips != 0 && loop_slot_[flat] != kUnmapped) {
      row[loop_slot_[flat]] = trips;
    }
  }
}

}  // namespace bolt::monitor
