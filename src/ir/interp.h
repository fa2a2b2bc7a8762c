// Concrete IR execution — the reproduction's replay + instrumentation
// engine (the role Intel Pin plays in the paper, §3.5).
//
// Two engines execute the same programs and produce the same RunResult:
//
//  * Interpreter — the reference oracle: a per-instruction switch over the
//    Instr vector that streams every event (instruction, memory access,
//    load-taint "dependent" flags) to an arbitrary TraceSink. It runs every
//    program that has no native code.
//
//  * NativeEngine (ir/native.h) — the hot-path engine for registered
//    programs: C++ generated from the program at build time, which keeps
//    stateless cost accounting in local counters and charges it once per
//    packet. Byte-identical results to the reference, several times faster
//    (tests/test_decoded.cpp).
//
// Results carry interned ids (class-tag ids, per-method case ids, flat loop
// indices) instead of strings; RunLabels materialises names only at report
// boundaries.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/cost.h"
#include "ir/labels.h"
#include "ir/program.h"
#include "ir/stateful.h"
#include "net/packet.h"
#include "perf/pcv.h"

namespace bolt::ir {

/// A stateful call observed during one packet's execution. Trivially
/// copyable: the case label lives in RunLabels as (method, case_id), and
/// `token` is the label table's path-trie token for that pair (so class-
/// path folding needs no per-call lookup).
struct CallRec {
  std::int64_t method = 0;
  std::uint32_t case_id = 0;
  std::uint32_t token = 0;

  bool operator==(const CallRec& o) const {
    return method == o.method && case_id == o.case_id && token == o.token;
  }
};

/// Everything an engine observed while processing one packet.
///
/// Hot-loop friendly: every container is reusable (clear() keeps capacity),
/// tags/cases are small ids, and loop trips are a dense vector indexed by
/// the chain-flat loop index. String views of any of it go through
/// `labels`, which the engine that produced the result points here.
struct RunResult {
  net::NfVerdict verdict = net::NfVerdict::kDrop;
  std::uint64_t out_port = 0;

  std::uint64_t instructions = 0;       ///< total IC (stateless + metered)
  std::uint64_t mem_accesses = 0;       ///< total MA
  std::uint64_t stateless_instructions = 0;
  std::uint64_t stateless_accesses = 0;

  /// PCVs induced by this packet (per-PCV max across the packet's calls).
  perf::PcvBinding pcvs;
  std::vector<CallRec> calls;
  std::vector<std::uint32_t> class_tags;  ///< kClassTag hits: label tag ids
  /// Header visits per loop, indexed by flat loop index (see
  /// RunLabels::loop_key for the chain-namespaced key of each slot).
  std::vector<std::uint64_t> loop_trips;
  /// The label table of the engine/runner that produced this result (owned
  /// there; valid while that engine lives).
  const RunLabels* labels = nullptr;

  /// Joined class tags, e.g. "ipv4/flow_hit" — the path's input-class label.
  std::string class_label() const;

  /// Tag names in hit order (chain-prefixed), as the legacy string-carrying
  /// result stored them. Boundary/diagnostic use.
  std::vector<std::string> class_tag_names() const;

  /// Case label of one recorded call.
  const std::string& case_label_of(const CallRec& call) const;

  /// Loop trips as the legacy chain-namespaced map (visited loops only —
  /// zero-trip slots are omitted, matching what a map accumulated).
  std::map<std::int64_t, std::uint64_t> loop_trips_map() const;

  /// Resets to the default state while keeping container capacity, so a
  /// caller streaming millions of packets can reuse one RunResult instead
  /// of reallocating per packet (the monitor's hot loop does). loop_trips
  /// keeps its length, every slot zero.
  void clear();
};

/// Which execution engine a runner should build. The reference interpreter
/// remains the oracle; consumers that need the exact per-event trace (e.g.
/// hw::RealisticSim) are routed to it automatically regardless of this
/// knob, because only sinks exposing a fast_meter() can be driven by
/// native code without changing semantics.
enum class EngineKind : std::uint8_t {
  kNative = 0,    ///< native code if registered, else the reference engine
  kReference = 1, ///< per-instruction switch over the program
};

struct InterpreterOptions {
  std::uint64_t max_steps = 50'000'000;  ///< hard stop for runaway programs
  TraceSink* sink = nullptr;             ///< optional hardware-model consumer
  /// Engine selection for NfRunner (ignored by a directly constructed
  /// Interpreter, which is always the reference engine).
  EngineKind engine = EngineKind::kNative;
  /// Initial scratch-memory image (configuration, e.g. the P1/P2/P3 list
  /// layouts). Must match what the symbolic executor analysed.
  std::vector<std::uint64_t> scratch_init;
  /// Per-packet framing cost of the packet-I/O framework (our DPDK+driver
  /// substitute): added to the counters for rx and for tx/drop respectively.
  std::uint64_t rx_instructions = 0, rx_accesses = 0;
  std::uint64_t tx_instructions = 0, tx_accesses = 0;
  std::uint64_t drop_instructions = 0, drop_accesses = 0;
};

/// Where an engine sits inside a chain: the shared label table plus this
/// program's tag/loop offsets. Default-constructed = standalone single
/// program (the engine creates and owns a private RunLabels).
struct LabelBinding {
  RunLabels* labels = nullptr;
  std::uint32_t tag_base = 0;
  std::uint32_t loop_base = 0;
};

/// Common surface of the two engines, so NfRunner can hold either.
class PacketEngine {
 public:
  virtual ~PacketEngine() = default;

  /// Clears `result` (keeping capacity) and runs the program to completion
  /// on `packet` (which may be mutated by kStorePkt, e.g. NAT rewriting).
  virtual void run_into(net::Packet& packet, RunResult& result) = 0;

  /// NF-local scratch memory (persists across packets); exposed so
  /// microbenchmark programs (P1/P2/P3) can be pre-initialised.
  virtual std::vector<std::uint64_t>& scratch() = 0;

  /// The engine's label table (shared across a chain).
  virtual RunLabels& labels() = 0;
};

/// The reference interpreter (oracle).
class Interpreter final : public PacketEngine {
 public:
  /// `env` may be null only for programs with no kCall instructions.
  Interpreter(const Program& program, StatefulEnv* env,
              InterpreterOptions options = {}, LabelBinding binding = {});

  /// Runs the program to completion on `packet`; thin wrapper over
  /// run_into.
  RunResult run(net::Packet& packet);

  void run_into(net::Packet& packet, RunResult& result) override;
  std::vector<std::uint64_t>& scratch() override { return scratch_; }
  RunLabels& labels() override { return *labels_; }

 private:
  const Program& program_;
  StatefulEnv* env_;
  InterpreterOptions options_;
  std::shared_ptr<RunLabels> owned_labels_;  ///< when standalone
  RunLabels* labels_;
  std::uint32_t tag_base_ = 0;
  std::uint32_t loop_base_ = 0;
  std::vector<std::uint64_t> regs_;
  std::vector<std::uint64_t> locals_;
  std::vector<std::uint64_t> scratch_;
  std::vector<bool> from_load_;  ///< per-register load taint, reused per run
  /// Per-call-site case memo: repeat labels resolve by pointer identity.
  struct SiteMemo {
    const char* ptr = nullptr;
    std::uint32_t case_id = 0;
    std::uint32_t token = 0;
  };
  std::vector<SiteMemo> site_memo_;  ///< indexed by pc of the kCall
};

}  // namespace bolt::ir
