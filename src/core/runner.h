// NfRunner — executes packets through an NF or an NF chain concretely,
// merging per-program results the same way the symbolic executor does
// (chain-prefixed class tags, chain-namespaced loop ids), so measured runs
// and generated contracts speak the same class-key language.
//
// The runner owns one ir::RunLabels for the whole chain and binds every
// engine to it, so the ids each engine records (tag ids, flat loop
// indices, case tokens) are already chain-global: the chain merge is
// integer appends and vector adds, with no string work.
//
// Engine selection: options.engine picks the native path (default) or the
// reference interpreter. On the native path each program runs its native
// code when it is a registered program (ir/native.h) and the reference
// interpreter otherwise. Sinks that need the exact per-event trace (no
// fast_meter(), e.g. hw::RealisticSim) force the reference engine
// regardless of the knob — native code cannot drive them without changing
// semantics.
//
// Cycle metering: when every program runs native code that has a
// first-touch function, the runner meters the whole chain by first touch
// (no L1 probe) for packets of at most kFirstTouchMaxBytes; otherwise every
// stage probes. A chain never mixes the two within a packet
// (ir/cycle_meter.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/models.h"
#include "ir/interp.h"
#include "ir/labels.h"
#include "ir/program.h"
#include "ir/stateful.h"
#include "net/packet.h"

namespace bolt::core {

class NfRunner {
 public:
  NfRunner(std::vector<const ir::Program*> programs, ir::StatefulEnv* env,
           ir::InterpreterOptions options = {});

  /// Runs the packet through the chain (stopping at the first drop).
  /// Counters/tags/calls/PCVs are merged across the chain.
  ir::RunResult process(net::Packet& packet);

  /// Allocation-reusing variant of process(): clears `out` (keeping its
  /// container capacity) and merges the chain's results into it. The
  /// monitor's batched hot loop calls this with one long-lived RunResult
  /// per partition instead of materialising a fresh one per packet.
  void process_into(net::Packet& packet, ir::RunResult& out);

  /// Replays a whole trace in order (mutating the packets, as the NF
  /// would), marking packet boundaries on `sink` when given. A runner is
  /// inherently sequential (the NF's state is shared across packets), so
  /// parallel drivers — the scenario sweep, the bench harnesses — run one
  /// NfRunner per worker and split the *traces*, not the packets.
  void process_trace(std::vector<net::Packet>& packets,
                     hw::CycleModel* sink = nullptr);

  const std::vector<const ir::Program*>& programs() const { return programs_; }

  /// The chain's label table (what the ids in this runner's RunResults
  /// mean). Stable for the runner's lifetime.
  ir::RunLabels& labels() { return *labels_; }

  /// True if registered programs run their native code (false when the
  /// engine knob or the sink forced the reference interpreter).
  bool uses_fast_path() const { return fast_; }

  /// True if the sink's cycles are metered by first touch (every program
  /// is native code with a first-touch function; ir/cycle_meter.h) for
  /// packets of at most kFirstTouchMaxBytes.
  bool meters_first_touch() const { return first_touch_; }

  /// Scratch memory of program `index` (for microbenchmark setup).
  std::vector<std::uint64_t>& scratch(std::size_t index) {
    return engines_[index]->scratch();
  }

 private:
  std::vector<const ir::Program*> programs_;
  std::unique_ptr<ir::RunLabels> labels_;  ///< stable address across moves
  std::vector<std::unique_ptr<ir::PacketEngine>> engines_;
  bool fast_ = false;
  bool first_touch_ = false;
  ir::RunResult chain_scratch_;  ///< per-program scratch for process_into
};

}  // namespace bolt::core
