// Pre-decoded execution form + direct-threaded interpreter (the tentpole
// of the execution fast path).
//
// The reference Interpreter re-derives everything per instruction: it
// switches on a loosely packed Instr, rebuilds branch targets from
// signed fields, and reports every instruction and access to its
// CostMeter one event at a time. DecodedProgram flattens a Program once, ahead of
// time, into dense operand records with:
//
//   * resolved branch targets (decoded-index space, unsigned),
//   * superinstructions for the dominant static pairs/triples/quads
//     (compare+branch, const+ALU, const+load/store/forward, and the
//     const+load+const+and header-field idiom), and
//   * a per-record stateless instruction count, so accounting is one
//     register add per record instead of per-op virtual dispatch.
//
// DecodedInterpreter executes that form with computed-goto direct
// threading (portable switch fallback behind BOLT_NO_COMPUTED_GOTO) and
// drives the conservative cycle meter inline via TraceSink::fast_meter().
// Instruction cycles are order-independent sums, so the engine keeps no
// per-record cycle table: it counts the packet's stateless instructions
// and multiplies in locals and charges them to the meter once, when the
// packet finishes. Only memory accesses, whose cost depends on L1 state,
// reach the meter in execution order.
// It is byte-result-identical to the reference engine — enforced by
// tests/test_decoded.cpp — but does no string work, no map work, and no
// virtual dispatch on the per-packet path.
//
// Fusion safety: a record may only absorb follow-on instructions that are
// not branch targets (verified against the program's in-degree), and every
// fused record replays the member writes in original order (const writes
// first), so register aliasing between members cannot change results. The
// single extra constraint is kLoadPktMaskI, which caches the loaded value
// across the second const and therefore requires the load destination and
// the mask register to differ.
//
// The decoded engine does not track load-taint ("dependent" flags):
// nothing it reports consumes them. Sinks that do (hw::RealisticSim) have
// no fast_meter() and are automatically routed to the reference engine by
// NfRunner.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ir/interp.h"
#include "ir/program.h"

namespace bolt::ir {

/// Decoded opcodes: the 33 base ops (same order as ir::Op, so decode of an
/// unfused instruction is a cast) followed by the superinstructions.
enum class DOp : std::uint8_t {
  // --- base ops, mirroring ir::Op ---
  kConst, kMov,
  kAdd, kSub, kMul, kAnd, kOr, kXor, kShl, kShr, kNot,
  kEq, kNe, kLtU, kLeU, kGtU, kGeU,
  kLoadPkt, kStorePkt, kPktLen, kPktPort, kPktTime,
  kLoadLocal, kStoreLocal, kLoadMem, kStoreMem,
  kCall, kBr, kJmp, kForward, kDrop, kClassTag, kLoopHead,
  // --- const + ALU pairs: dst = a <op> imm (const register still written) ---
  kAddI, kSubI, kMulI, kAndI, kOrI, kXorI, kShlI, kShrI,
  kEqI, kNeI, kLtUI, kLeUI, kGtUI, kGeUI,
  // --- compare + branch pairs: dst = a <op> b, then branch on it ---
  kEqBr, kNeBr, kLtUBr, kLeUBr, kGtUBr, kGeUBr,
  // --- const + compare + branch triples: dst = a <op> imm, branch ---
  kEqIBr, kNeIBr, kLtUIBr, kLeUIBr, kGtUIBr, kGeUIBr,
  // --- packet / terminal fusions ---
  kLoadPktI,     ///< const off; load: dst = pkt[imm .. imm+width)
  kStorePktI,    ///< const off; store: pkt[imm ..] = b
  kForwardI,     ///< const port; forward(imm)
  kLoadPktMaskI, ///< const off; load; const mask; and: dst2 = pkt[imm] & imm2
};

inline constexpr std::size_t kNumDOps =
    static_cast<std::size_t>(DOp::kLoadPktMaskI) + 1;

const char* dop_name(DOp op);

/// One decoded record. Wider than Instr (it can hold up to four fused
/// members' operands) but fixed-size and dense; targets are decoded
/// indices.
struct DInstr {
  DOp op{};
  std::uint8_t width = 0;
  std::uint8_t n_instr = 0;  ///< stateless instructions this record covers
  Reg dst = kNoReg;
  Reg dst2 = kNoReg;  ///< kCall's second result; fusions' const register
  Reg a = kNoReg;
  Reg b = kNoReg;
  std::uint32_t t = 0;  ///< branch target (decoded index)
  std::uint32_t f = 0;  ///< branch fall-through (decoded index)
  std::int64_t imm = 0;
  std::int64_t imm2 = 0;  ///< kLoadPktMaskI's mask
};

/// A Program flattened for execution, plus decode statistics.
struct DecodedProgram {
  std::vector<DInstr> code;
  /// Original instructions absorbed into superinstructions (members beyond
  /// each fused record's head).
  std::size_t fused_away = 0;

  /// Decodes `program` (which must outlive the result only through this
  /// call — the decoded form holds no references into it).
  static DecodedProgram decode(const Program& program);
};

/// The direct-threaded engine. Same construction surface and observable
/// behaviour as ir::Interpreter; see file comment for what it skips.
class DecodedInterpreter final : public PacketEngine {
 public:
  /// `options.sink` must be null or expose a fast_meter() — callers that
  /// hold an order-sensitive sink must use the reference engine (NfRunner
  /// makes that routing decision; this constructor checks it).
  DecodedInterpreter(const Program& program, StatefulEnv* env,
                     InterpreterOptions options = {}, LabelBinding binding = {});

  RunResult run(net::Packet& packet);

  void run_into(net::Packet& packet, RunResult& result) override;
  std::vector<std::uint64_t>& scratch() override { return scratch_; }
  RunLabels& labels() override { return *labels_; }

  const DecodedProgram& decoded() const { return dprog_; }

 private:
  template <bool kMeter>
  void exec(net::Packet& packet, RunResult& result);

  std::string name_;  ///< program name, for diagnostics
  StatefulEnv* env_;
  InterpreterOptions options_;
  DecodedProgram dprog_;
  ConservativeCycleMeter* fast_meter_ = nullptr;  ///< from options_.sink
  std::shared_ptr<RunLabels> owned_labels_;  ///< when standalone
  RunLabels* labels_;
  std::uint32_t tag_base_ = 0;
  std::uint32_t loop_base_ = 0;
  std::vector<std::uint64_t> regs_;
  std::vector<std::uint64_t> locals_;
  std::vector<std::uint64_t> scratch_;
  /// Per-call-site case memo, indexed by decoded pc of the kCall.
  struct SiteMemo {
    const char* ptr = nullptr;
    std::uint32_t case_id = 0;
    std::uint32_t token = 0;
  };
  std::vector<SiteMemo> site_memo_;
};

}  // namespace bolt::ir
