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

/// Stateless work of one packet, summed by the generated code and charged
/// once when the packet finishes.
struct NativeCounts {
  std::uint64_t instructions = 0;
  std::uint64_t muls = 0;
  std::uint64_t accesses = 0;
};

class NativeEngine;

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
  NativeFn metered = nullptr;  ///< drives the engine's fast meter
  NativeFn plain = nullptr;    ///< no sink
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
/// distinct fingerprints. Deterministic: the same programs give the same
/// bytes.
std::string emit_native_source(const std::vector<const Program*>& programs);

/// Runs a program through its native function. Same construction surface
/// and observable results as ir::Interpreter, except that it drives the
/// cycle meter through TraceSink::fast_meter() and tracks no load-taint
/// ("dependent" flags): sinks that need it (hw::RealisticSim) have no
/// fast_meter(), and NfRunner runs them on the reference interpreter.
///
/// The public steps below are what the generated code calls; they keep the
/// per-packet bounds checks and diagnostics of the reference interpreter.
class NativeEngine final : public PacketEngine {
 public:
  /// `entry` must be find_native(program); `options.sink` must be null or
  /// expose a fast_meter().
  NativeEngine(const NativeEntry& entry, const Program& program,
               StatefulEnv* env, InterpreterOptions options = {},
               LabelBinding binding = {});

  void run_into(net::Packet& packet, RunResult& result) override;
  std::vector<std::uint64_t>& scratch() override { return scratch_; }
  RunLabels& labels() override { return *labels_; }

  template <bool kMeter>
  std::uint64_t load_pkt(support::Span<const std::uint8_t> pkt,
                         std::uint64_t offset, unsigned width) {
    BOLT_CHECK(offset + width <= pkt.size(),
               name_ + ": packet load out of bounds");
    std::uint64_t v = 0;
    for (unsigned i = 0; i < width; ++i) v = (v << 8) | pkt[offset + i];
    if constexpr (kMeter) fast_meter_->access(kPacketBase + offset, width);
    return v;
  }
  template <bool kMeter>
  void store_pkt(net::Packet& packet, std::uint64_t offset,
                 std::uint64_t value, unsigned width) {
    const auto mut = packet.mutable_bytes();
    BOLT_CHECK(offset + width <= mut.size(),
               name_ + ": packet store out of bounds");
    for (unsigned i = width; i-- > 0;) {
      mut[offset + i] = static_cast<std::uint8_t>(value & 0xff);
      value >>= 8;
    }
    if constexpr (kMeter) fast_meter_->access(kPacketBase + offset, width);
  }
  template <bool kMeter>
  std::uint64_t load_local(std::int64_t slot) {
    if constexpr (kMeter) fast_meter_->access(kLocalsBase + 8 * slot, 8);
    return locals_[static_cast<std::size_t>(slot)];
  }
  template <bool kMeter>
  void store_local(std::int64_t slot, std::uint64_t value) {
    locals_[static_cast<std::size_t>(slot)] = value;
    if constexpr (kMeter) fast_meter_->access(kLocalsBase + 8 * slot, 8);
  }
  template <bool kMeter>
  std::uint64_t load_mem(std::uint64_t slot) {
    BOLT_CHECK(slot < scratch_.size(), name_ + ": scratch load out of range");
    if constexpr (kMeter) fast_meter_->access(kScratchBase + 8 * slot, 8);
    return scratch_[slot];
  }
  template <bool kMeter>
  void store_mem(std::uint64_t slot, std::uint64_t value) {
    BOLT_CHECK(slot < scratch_.size(), name_ + ": scratch store out of range");
    scratch_[slot] = value;
    if constexpr (kMeter) fast_meter_->access(kScratchBase + 8 * slot, 8);
  }

  /// A kCall at instruction index `site`: the dslib call, the per-packet
  /// PCV max, and the call record (its case resolved through the site's
  /// memo).
  CallOutcome call(std::size_t site, std::int64_t method, std::uint64_t a0,
                   std::uint64_t a1, net::Packet& packet, CostMeter& meter,
                   RunResult& result);

  void class_tag(std::int64_t tag, RunResult& result) const {
    result.class_tags.push_back(tag_base_ + static_cast<std::uint32_t>(tag));
  }
  void loop_head(std::int64_t loop, RunResult& result) const {
    ++result.loop_trips[loop_base_ + static_cast<std::size_t>(loop)];
  }
  void check_steps(std::uint64_t steps) const {
    BOLT_CHECK(steps <= options_.max_steps,
               name_ + ": step budget exceeded (infinite loop?)");
  }

  /// The persistent register file (registers a packet may read before it
  /// writes them keep their value across packets).
  std::uint64_t* regs() { return regs_.data(); }

 private:
  std::string name_;  ///< program name, for diagnostics
  StatefulEnv* env_;
  InterpreterOptions options_;
  ConservativeCycleMeter* fast_meter_ = nullptr;  ///< from options_.sink
  NativeFn fn_;
  std::shared_ptr<RunLabels> owned_labels_;  ///< when standalone
  RunLabels* labels_;
  std::uint32_t tag_base_ = 0;
  std::uint32_t loop_base_ = 0;
  std::vector<std::uint64_t> regs_;
  std::vector<std::uint64_t> locals_;
  std::vector<std::uint64_t> scratch_;
  /// Per-call-site case memo, indexed by instruction index of the kCall.
  struct SiteMemo {
    const char* ptr = nullptr;
    std::uint32_t case_id = 0;
    std::uint32_t token = 0;
  };
  std::vector<SiteMemo> site_memo_;
};

}  // namespace bolt::ir
