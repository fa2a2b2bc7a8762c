// Native code for registered programs.
//
// At build time tools/bolt_nativegen compiles every program of every
// core::named_targets() entry into a straight-line C++ function
// (emit_native_source), written to generated/native_nfs.cpp in the build
// tree and linked into the bolt library. Each basic block is one run of
// C++ statements with its stateless instruction, multiply and access
// counts summed at generation time; memory accesses, dslib calls, class
// tags and loop trips go through NativeEngine's steps in execution order,
// so they reach the meter as they do from the reference interpreter. A
// register whose every read is preceded by a write on every path becomes a
// C++ local; any other register lives in the engine's persistent register
// file.
//
// A program that makes no dslib call (kCall) and whose locals and scratch
// each fit kFirstTouchMaxBytes also gets a first-touch function: it meters
// by keeping one line bitmask per region in NativeCounts (C++ locals of the
// generated code) instead of probing the L1, and its engine charges the
// packet once through ConservativeCycleMeter::charge_first_touch. The
// cycles are the probing meter's, exactly (the lemma in ir/cycle_meter.h).
//
// A program is looked up by program_fingerprint and then compared field by
// field with the program its code was generated from (a 64-bit hash can be
// made to collide), so a program that differs from the generated one in
// any field finds no entry and runs on the reference interpreter. NfRunner
// makes that choice; tests/test_decoded.cpp holds the native and reference
// engines to identical per-packet results.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/interp.h"
#include "ir/program.h"
#include "support/assert.h"
#include "support/span.h"

namespace bolt::ir {

/// Hash of everything execution depends on: the program name, register,
/// local and scratch counts, every Instr field except the comment, and the
/// tag and loop names.
std::uint64_t program_fingerprint(const Program& program);

/// How a native function meters its accesses: not at all (no sink), by
/// probing the sink's L1 per access, or by first touch.
enum class Metering { kNone, kProbe, kFirstTouch };

/// Stateless work of one packet, summed by the generated code and charged
/// once when the packet finishes.
struct NativeCounts {
  std::uint64_t instructions = 0;
  std::uint64_t muls = 0;
  std::uint64_t accesses = 0;
  /// Metering::kFirstTouch only: the lines touched and the accesses that
  /// touched a second line.
  LineMasks lines;
  std::uint64_t straddles = 0;
};

class NativeEngine;

/// What the generated code keeps of a dslib call: its return values.
struct CallReturn {
  std::uint64_t v0 = 0;
  std::uint64_t v1 = 0;
};

/// One packet of a native program.
using NativeFn = NativeCounts (*)(NativeEngine& engine, CostMeter& meter,
                                  net::Packet& packet, RunResult& result);

/// An Instr as the generated table records it (without its comment).
struct NativeInstr {
  std::uint8_t op = 0;
  std::uint8_t width = 0;
  Reg dst = kNoReg, dst2 = kNoReg, a = kNoReg, b = kNoReg;
  std::int32_t t = -1, f = -1;
  std::uint64_t imm = 0;
};

struct NativeEntry {
  std::uint64_t fingerprint = 0;
  NativeFn metered = nullptr;  ///< probes the engine's fast meter
  NativeFn plain = nullptr;    ///< no sink
  /// Counts first touches; null unless the program qualifies (above).
  NativeFn first_touch = nullptr;
  /// The program the functions were generated from.
  const char* name = "";
  std::int32_t num_regs = 0;
  std::int32_t num_locals = 0;
  std::size_t scratch_slots = 0;
  support::Span<const NativeInstr> code;
  support::Span<const char* const> class_tags;
  support::Span<const char* const> loops;
};

/// The generated table linked into this binary (empty in the generator).
support::Span<const NativeEntry> native_table();

/// The native entry generated from exactly `program`, or null if it has
/// none.
const NativeEntry* find_native(const Program& program);

/// The C++ source of the native table for `programs`, which must have
/// distinct fingerprints, returned by the function `table` (qualified from
/// namespace bolt). Deterministic: the same programs give the same bytes.
std::string emit_native_source(const std::vector<const Program*>& programs,
                               const std::string& table = "ir::native_table");

/// Runs a program through its native function. Same construction surface
/// and observable results as ir::Interpreter, except that it drives the
/// cycle meter through TraceSink::fast_meter() and tracks no load-taint
/// ("dependent" flags): sinks that need it (hw::RealisticSim) have no
/// fast_meter(), and NfRunner runs them on the reference interpreter.
///
/// The public steps below are what the generated code calls; they keep the
/// per-packet bounds checks and diagnostics of the reference interpreter.
/// The memory steps are forced inline so that, in first-touch code, the
/// line masks stay in registers.
class NativeEngine final : public PacketEngine {
 public:
  /// `entry` must be find_native(program); `options.sink` must be null or
  /// expose a fast_meter().
  NativeEngine(const NativeEntry& entry, const Program& program,
               StatefulEnv* env, InterpreterOptions options = {},
               LabelBinding binding = {});

  /// True if the entry has a first-touch function and a sink is metered.
  bool can_meter_first_touch() const {
    return first_touch_fn_ != nullptr && fast_meter_ != nullptr;
  }
  /// Meters every packet of at most kFirstTouchMaxBytes by first touch.
  /// Requires can_meter_first_touch(). Exact only if every other engine
  /// that runs between the same begin_packet() calls does the same (the
  /// chain rule in ir/cycle_meter.h); NfRunner decides.
  void use_first_touch();

  void run_into(net::Packet& packet, RunResult& result) override;
  std::vector<std::uint64_t>& scratch() override { return scratch_; }
  RunLabels& labels() override { return *labels_; }

  template <Metering M>
  [[gnu::always_inline]] std::uint64_t load_pkt(
      support::Span<const std::uint8_t> pkt, std::uint64_t offset,
      unsigned width, NativeCounts& n) {
    if (width > pkt.size() || offset > pkt.size() - width) {
      fail("packet load out of bounds");
    }
    std::uint64_t v = 0;
    for (unsigned i = 0; i < width; ++i) v = (v << 8) | pkt[offset + i];
    meter_packet<M>(offset, width, n);
    return v;
  }
  template <Metering M>
  [[gnu::always_inline]] void store_pkt(net::Packet& packet,
                                        std::uint64_t offset,
                                        std::uint64_t value, unsigned width,
                                        NativeCounts& n) {
    const auto mut = packet.mutable_bytes();
    if (width > mut.size() || offset > mut.size() - width) {
      fail("packet store out of bounds");
    }
    for (unsigned i = width; i-- > 0;) {
      mut[offset + i] = static_cast<std::uint8_t>(value & 0xff);
      value >>= 8;
    }
    meter_packet<M>(offset, width, n);
  }
  template <Metering M>
  [[gnu::always_inline]] std::uint64_t load_local(std::int64_t slot,
                                                  NativeCounts& n) {
    meter_word<M>(kLocalsBase, std::uint64_t(slot), n.lines.locals);
    return locals_[static_cast<std::size_t>(slot)];
  }
  template <Metering M>
  [[gnu::always_inline]] void store_local(std::int64_t slot,
                                          std::uint64_t value,
                                          NativeCounts& n) {
    locals_[static_cast<std::size_t>(slot)] = value;
    meter_word<M>(kLocalsBase, std::uint64_t(slot), n.lines.locals);
  }
  template <Metering M>
  [[gnu::always_inline]] std::uint64_t load_mem(std::uint64_t slot,
                                                NativeCounts& n) {
    if (slot >= scratch_.size()) fail("scratch load out of range");
    meter_word<M>(kScratchBase, slot, n.lines.scratch);
    return scratch_[slot];
  }
  template <Metering M>
  [[gnu::always_inline]] void store_mem(std::uint64_t slot,
                                        std::uint64_t value,
                                        NativeCounts& n) {
    if (slot >= scratch_.size()) fail("scratch store out of range");
    scratch_[slot] = value;
    meter_word<M>(kScratchBase, slot, n.lines.scratch);
  }

  /// A kCall at instruction index `site`: the dslib call, then
  /// record_call (the per-packet PCV max and the call record).
  CallReturn call(std::size_t site, std::int64_t method, std::uint64_t a0,
                  std::uint64_t a1, net::Packet& packet, CostMeter& meter,
                  RunResult& result);

  void class_tag(std::int64_t tag, RunResult& result) const {
    result.class_tags.push_back(tag_base_ + static_cast<std::uint32_t>(tag));
  }
  void loop_head(std::int64_t loop, RunResult& result) const {
    ++result.loop_trips[loop_base_ + static_cast<std::size_t>(loop)];
  }
  void check_steps(std::uint64_t steps) const {
    if (steps > options_.max_steps) {
      fail("step budget exceeded (infinite loop?)");
    }
  }

  /// The persistent register file (registers a packet may read before it
  /// writes them keep their value across packets).
  std::uint64_t* regs() { return regs_.data(); }

 private:
  /// `width` packet bytes at `offset`, already bounds-checked (so with a
  /// packet of at most kFirstTouchMaxBytes, both lines are below 64).
  template <Metering M>
  [[gnu::always_inline]] void meter_packet(std::uint64_t offset,
                                           unsigned width, NativeCounts& n) {
    if constexpr (M == Metering::kProbe) {
      fast_meter_->access(kPacketBase + offset, width);
    } else if constexpr (M == Metering::kFirstTouch) {
      const std::uint64_t first = support::line_of(offset);
      const std::uint64_t last = support::line_of(offset + width - 1);
      n.lines.packet |= std::uint64_t{1} << first | std::uint64_t{1} << last;
      n.straddles += last - first;
    }
  }
  /// The 8-byte word `slot` of the region at `base` (slot < 512 in
  /// first-touch code, which the generator checks).
  template <Metering M>
  [[gnu::always_inline]] void meter_word(std::uint64_t base,
                                         std::uint64_t slot,
                                         std::uint64_t& lines) {
    if constexpr (M == Metering::kProbe) {
      fast_meter_->access(base + 8 * slot, 8);
    } else if constexpr (M == Metering::kFirstTouch) {
      lines |= std::uint64_t{1} << support::line_of(8 * slot);
    }
  }

  void run_first_touch(net::Packet& packet, RunResult& result);

  /// Aborts with "<program>: <what>". Out of line, so the generated code
  /// keeps only a call on its failure paths.
  [[noreturn, gnu::cold, gnu::noinline]] void fail(const char* what) const;

  /// `count` consecutive framework accesses of 8 bytes on one line, the
  /// first at `addr`.
  struct AccessRun {
    std::uint64_t addr = 0;
    std::uint64_t count = 0;
  };

  /// One framework step's fixed cost (rx, tx or drop): its mbuf lines for
  /// first-touch packets, and for probed packets its accesses as runs of
  /// consecutive same-line accesses (a line that recurs after another
  /// starts a new run), each charged as one probe plus an MRU hit per
  /// repeat. The reference interpreter issues the same accesses one by one.
  struct FrameworkStep {
    std::uint64_t instructions = 0;
    std::uint64_t accesses = 0;
    std::uint64_t lines = 0;  ///< mbuf region line mask
    std::vector<AccessRun> runs;
  };
  template <typename Addr>
  static FrameworkStep framework_step(std::uint64_t instructions,
                                      std::uint64_t accesses, Addr addr);
  /// Charges `step` to the fast meter, if there is one.
  void charge(const FrameworkStep& step) const;

  std::string name_;  ///< program name, for diagnostics
  StatefulEnv* env_;
  InterpreterOptions options_;
  ConservativeCycleMeter* fast_meter_ = nullptr;  ///< from options_.sink
  NativeFn fn_;
  NativeFn first_touch_fn_ = nullptr;  ///< entry's, if a sink is metered
  bool first_touch_ = false;           ///< use_first_touch() was called
  FrameworkStep rx_, tx_, drop_;
  std::shared_ptr<RunLabels> owned_labels_;  ///< when standalone
  RunLabels* labels_;
  std::uint32_t tag_base_ = 0;
  std::uint32_t loop_base_ = 0;
  std::vector<std::uint64_t> regs_;
  std::vector<std::uint64_t> locals_;
  std::vector<std::uint64_t> scratch_;
  /// Per-call-site case memo, indexed by instruction index of the kCall.
  std::vector<CallSiteMemo> site_memo_;
};

}  // namespace bolt::ir
