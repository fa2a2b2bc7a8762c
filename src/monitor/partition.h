// One flow-affine monitor partition — the single implementation of the
// measurement side every contract consumer shares:
//
//  * MonitorEngine::run keeps one runner per partition for the whole run
//    and steps each partition's share of every input chunk as one task;
//  * StreamMonitor::feed steps one lazily built runner per owned partition;
//  * the adversarial synthesiser's shadow commits its packets through the
//    same runner (cycle meter off) to learn what the replay will observe.
//
// A PartitionRunner owns the NF instance built from the factory, the PCV
// and loop slot maps into the contract registry, the class resolver, the
// conservative cycle model, the deterministic epoch clock, and the reused
// scratch packet and RunResult. Because all three callers step packets
// through this one type, their attribution, PCV rows, measured counts and
// state maintenance agree by construction — which is what keeps batch
// reports, streamed reports, fleet merges and adversarial plans
// byte-compatible.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/runner.h"
#include "core/targets.h"
#include "hw/models.h"
#include "ir/interp.h"
#include "monitor/attribute.h"
#include "monitor/monitor.h"
#include "net/packet.h"
#include "obs/telemetry.h"
#include "perf/contract.h"
#include "perf/expr_vm.h"
#include "perf/pcv.h"

namespace bolt::monitor {

/// A contract compiled for monitoring, built once per engine: per-entry
/// compiled bounds, the input-class -> entry index, the dense PCV row
/// width, and the delta window width.
struct CompiledContract {
  /// `contract` and `reg` (the registry its PCV ids refer to) must outlive
  /// this object.
  CompiledContract(const perf::Contract& contract,
                   const perf::PcvRegistry& reg, const MonitorOptions& options);

  const perf::Contract& contract;
  const perf::PcvRegistry& reg;
  /// Per contract entry, the bound of each metric (by perf::metric_index).
  std::vector<std::array<perf::CompiledExpr, 3>> bounds;
  std::unordered_map<std::string, std::size_t> entry_index;
  std::vector<std::string> entry_names;  ///< contract entry order
  std::size_t slot_stride = 1;           ///< dense PCV row width
  std::uint64_t delta_window_ns = 0;     ///< epoch_ns * delta_every (0 = off)
};

class PartitionRunner {
 public:
  /// What one step observed besides the PCV row.
  struct Step {
    /// Contract entry the packet was attributed to, or kUnattributedEntry.
    std::uint32_t entry = kUnattributedEntry;
    /// Instructions, memory accesses, cycles (by perf::metric_index; cycles
    /// are 0 unless options.check_cycles).
    std::array<std::uint64_t, 3> measured{};
    bool swept = false;          ///< the epoch clock swept before this packet
    std::uint64_t expired = 0;   ///< entries that sweep expired
    std::uint64_t occupancy = 0; ///< state occupancy after the packet
  };

  /// Builds a fresh partition from `factory`. `compiled` and `options` must
  /// outlive the runner. `tel` (optional) receives packets_executed and
  /// attr_memo_hits.
  PartitionRunner(const CompiledContract& compiled,
                  const MonitorOptions& options,
                  const MonitorEngine::TargetFactory& factory,
                  obs::MonitorTelemetry* tel = nullptr);
  PartitionRunner(const PartitionRunner&) = delete;
  PartitionRunner& operator=(const PartitionRunner&) = delete;

  /// Advances the epoch clock to `packet`'s timestamp, then copies the
  /// packet into the reused scratch packet (Packet::assign: no allocation
  /// once it has held a frame as large), runs it through the NF, measures
  /// it and attributes it.
  Step step(const net::PacketView& packet);

  /// Writes the last stepped packet's PCVs (loop trips included) into
  /// `row` — slot_stride values, contract-registry slots, zeros elsewhere:
  /// the dense row the compiled bounds evaluate over.
  void fill_row(std::uint64_t* row) const;

  /// True when the target reports state occupancy (and so epochs run).
  bool tracks_state() const { return track_state_; }
  std::uint64_t occupancy() const { return target_.state_occupancy(); }

  /// The live NF instance (white-box access for the adversary's drivers).
  core::NfTarget& target() { return target_; }
  /// The last stepped packet as the NF left it, and its run result.
  const net::Packet& processed() const { return packet_; }
  const ir::RunResult& run() const { return run_; }

 private:
  const CompiledContract& compiled_;
  const MonitorOptions& options_;
  obs::MonitorTelemetry* tel_;
  perf::PcvRegistry local_reg_;  ///< the partition target's own PCV ids
  core::NfTarget target_;
  hw::ConservativeModel cycles_;
  std::unique_ptr<core::NfRunner> runner_;
  ClassResolver resolver_;
  std::vector<std::uint32_t> pcv_slot_;   ///< local PCV id -> contract slot
  std::vector<std::uint32_t> loop_slot_;  ///< flat loop -> contract slot
  bool track_state_ = false;
  bool epochs_on_ = false;
  bool have_epoch_ = false;
  std::uint64_t next_boundary_ = 0;
  net::Packet packet_;  ///< reused packet copy (the NF mutates headers)
  ir::RunResult run_;   ///< reused run result
};

}  // namespace bolt::monitor
