// The native-code emitter: one `template <ir::Metering M>` C++ function per
// program (see ir/native.h for what the emitted code preserves).
#include <algorithm>
#include <sstream>

#include "ir/native.h"

namespace bolt::ir {

namespace {

/// Which of a and b an instruction reads, and whether it writes dst.
/// kCall's dst2 is handled alongside dst.
struct Uses { bool a = false, b = false, dst = false; };

Uses uses_of(const Instr& i) {
  switch (i.op) {
    case Op::kConst: case Op::kPktLen: case Op::kPktPort: case Op::kPktTime:
    case Op::kLoadLocal:
      return {false, false, true};
    case Op::kMov: case Op::kNot: case Op::kLoadPkt: case Op::kLoadMem:
      return {true, false, true};
    case Op::kStorePkt: case Op::kStoreMem:
      return {true, true, false};
    case Op::kStoreLocal: case Op::kBr: case Op::kForward:
      return {true, false, false};
    case Op::kCall:
      return {i.a != kNoReg, i.b != kNoReg, i.dst != kNoReg};
    case Op::kJmp: case Op::kDrop: case Op::kClassTag: case Op::kLoopHead:
      return {};
    default:  // binary ALU and comparisons
      return {true, true, true};
  }
}

bool ends_block(Op op) {
  return op == Op::kBr || op == Op::kJmp || op == Op::kForward ||
         op == Op::kDrop;
}

/// The C++ operator of a binary ALU op or comparison (they are contiguous
/// in ir::Op), or null.
const char* binary_op(Op op) {
  static const char* const kAlu[] = {"+", "-", "*", "&", "|", "^"};
  static const char* const kCmp[] = {"==", "!=", "<", "<=", ">", ">="};
  const int alu = int(op) - int(Op::kAdd), cmp = int(op) - int(Op::kEq);
  if (alu >= 0 && alu < 6) return kAlu[alu];
  return cmp >= 0 && cmp < 6 ? kCmp[cmp] : nullptr;
}

std::string lit(std::int64_t v) {
  return std::to_string(static_cast<std::uint64_t>(v)) + "ULL";
}

/// A C++ string literal of `s`: printable ASCII as is, anything else
/// (and the quote and backslash) as a three-digit octal escape.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const unsigned char c : s) {
    if (c >= 0x20 && c < 0x7f && c != '"' && c != '\\') {
      out += static_cast<char>(c);
    } else {
      out += {'\\', char('0' + (c >> 6)), char('0' + ((c >> 3) & 7)),
              char('0' + (c & 7))};
    }
  }
  return out + "\"";
}

/// A name array `var` (none when `list` is empty: C++ has no empty arrays).
void names(std::ostringstream& out, const std::string& var,
           const std::vector<std::string>& list) {
  if (list.empty()) return;
  out << "const char* const " << var << "[] = {";
  for (const std::string& s : list) out << quoted(s) << ", ";
  out << "};\n";
}

/// The Span over the array names() wrote for `list`.
std::string span(const std::vector<std::string>& list, const std::string& var) {
  if (list.empty()) return "{}";
  return "{" + var + ", " + std::to_string(list.size()) + "}";
}

class Emitter {
 public:
  Emitter(const Program& p, std::string fn) : p_(p), fn_(std::move(fn)) {
    p_.validate();  // also: the last instruction does not fall through
    find_blocks();
    find_locals();
  }

  void emit(std::ostringstream& out) {
    out << "template <ir::Metering M>\n"
        << "ir::NativeCounts " << fn_
        << "(ir::NativeEngine& F, [[maybe_unused]] ir::CostMeter& meter,\n"
        << "    [[maybe_unused]] net::Packet& packet, ir::RunResult& result) "
           "{\n"
        << "  ir::NativeCounts n;\n"
        << "  [[maybe_unused]] const auto pkt = packet.bytes();\n"
        << "  [[maybe_unused]] std::uint64_t* const R = F.regs();\n";
    if (loops_) out << "  std::uint64_t steps = 0;\n";
    std::string decl;
    for (std::size_t r = 0; r < local_.size(); ++r) {
      if (!local_[r]) continue;
      decl += (decl.empty() ? "" : ", ") + reg(static_cast<Reg>(r)) + " = 0";
    }
    if (!decl.empty()) {
      out << "  [[maybe_unused]] std::uint64_t " << decl << ";\n";
    }
    for (std::size_t bi = 0; bi < begin_.size(); ++bi) emit_block(out, bi);
    out << "  BOLT_UNREACHABLE(\"pc out of range\");\n}\n\n";
  }

 private:
  void find_blocks() {
    const std::size_t n = p_.code.size();
    std::vector<char> leader(n + 1, 0);
    leader[0] = 1;
    for (std::size_t pc = 0; pc < n; ++pc) {
      const Instr& i = p_.code[pc];
      if (i.t >= 0) leader[static_cast<std::size_t>(i.t)] = 1;
      if (i.f >= 0) leader[static_cast<std::size_t>(i.f)] = 1;
      if (ends_block(i.op)) leader[pc + 1] = 1;
    }
    block_of_.assign(n, 0);
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (leader[pc]) begin_.push_back(pc);
      block_of_[pc] = begin_.size() - 1;
    }
    targeted_.assign(begin_.size(), 0);
    for (std::size_t bi = 0; bi < begin_.size(); ++bi) {
      for (const std::size_t s : successors(bi)) {
        if (s != bi + 1) targeted_[s] = 1;  // else it falls through
        if (s <= bi) loops_ = true;
      }
    }
  }

  std::size_t end(std::size_t bi) const {
    return bi + 1 < begin_.size() ? begin_[bi + 1] : p_.code.size();
  }

  std::vector<std::size_t> successors(std::size_t bi) const {
    const Instr& last = p_.code[end(bi) - 1];
    switch (last.op) {
      case Op::kBr:
        return {block_of_[static_cast<std::size_t>(last.t)],
                block_of_[static_cast<std::size_t>(last.f)]};
      case Op::kJmp:
        return {block_of_[static_cast<std::size_t>(last.t)]};
      case Op::kForward: case Op::kDrop:
        return {};
      default:  // falls through
        return {bi + 1};
    }
  }

  /// A register may be a C++ local iff no path reads it before writing
  /// it: a forward "may be unwritten" analysis over the blocks.
  void find_locals() {
    const std::size_t nr = static_cast<std::size_t>(p_.num_regs);
    const std::size_t nb = begin_.size();
    std::vector<std::vector<char>> in(nb, std::vector<char>(nr, 0));
    in[0].assign(nr, 1);
    local_.assign(nr, 1);
    // Walks block `bi` from `state`, marking registers read while unwritten
    // when `mark` is set; returns the state at the block's end.
    const auto walk = [&](std::size_t bi, std::vector<char> state, bool mark) {
      for (std::size_t pc = begin_[bi]; pc < end(bi); ++pc) {
        const Instr& i = p_.code[pc];
        const Uses u = uses_of(i);
        for (const auto& [used, r] : {std::make_pair(u.a, i.a),
                                      std::make_pair(u.b, i.b)}) {
          if (used && mark && state[static_cast<std::size_t>(r)]) {
            local_[static_cast<std::size_t>(r)] = 0;
          }
        }
        if (u.dst) state[static_cast<std::size_t>(i.dst)] = 0;
        if (i.op == Op::kCall && i.dst2 != kNoReg) {
          state[static_cast<std::size_t>(i.dst2)] = 0;
        }
      }
      return state;
    };
    for (bool changed = true; changed;) {
      changed = false;
      for (std::size_t bi = 0; bi < nb; ++bi) {
        const std::vector<char> out = walk(bi, in[bi], false);
        for (const std::size_t s : successors(bi)) {
          for (std::size_t r = 0; r < nr; ++r) {
            if (out[r] && !in[s][r]) in[s][r] = changed = true;
          }
        }
      }
    }
    for (std::size_t bi = 0; bi < nb; ++bi) walk(bi, in[bi], true);
  }

  std::string reg(Reg r) const {
    const std::string n = std::to_string(r);
    return local_[static_cast<std::size_t>(r)] ? "r" + n : "R[" + n + "]";
  }

  std::string label(std::size_t bi) const { return "b" + std::to_string(bi); }

  void emit_block(std::ostringstream& out, std::size_t bi) {
    if (targeted_[bi]) out << label(bi) << ":\n";
    std::size_t instrs = 0, muls = 0, accesses = 0;
    for (std::size_t pc = begin_[bi]; pc < end(bi); ++pc) {
      const Op op = p_.code[pc].op;
      instrs += is_annotation(op) ? 0 : 1;
      muls += op == Op::kMul ? 1 : 0;
      accesses += is_memory_op(op) ? 1 : 0;
    }
    out << "  n.instructions += " << instrs << ";";
    if (muls > 0) out << " n.muls += " << muls << ";";
    if (accesses > 0) out << " n.accesses += " << accesses << ";";
    if (loops_) out << " steps += " << end(bi) - begin_[bi] << ";";
    out << "\n";
    for (std::size_t pc = begin_[bi]; pc < end(bi); ++pc) {
      out << "  " << statement(bi, pc) << "\n";
    }
  }

  /// `goto` to block `tb` from the end of block `bi`, or nothing when `tb`
  /// is the next block (fall-through).
  std::string jump(std::size_t bi, std::int32_t target) const {
    const std::size_t tb = block_of_[static_cast<std::size_t>(target)];
    return tb == bi + 1 ? "" : "goto " + label(tb) + ";";
  }

  /// The step-budget check before a jump that may go backward.
  std::string check(std::size_t bi) const {
    for (const std::size_t s : successors(bi)) {
      if (s <= bi) return "F.check_steps(steps); ";
    }
    return "";
  }

  std::string statement(std::size_t bi, std::size_t pc) const {
    const Instr& i = p_.code[pc];
    const std::string W = std::to_string(i.width);
    const auto A = [&] { return reg(i.a); };
    const auto B = [&] { return reg(i.b); };
    const auto D = [&] { return reg(i.dst) + " = "; };
    if (const char* sym = binary_op(i.op)) {
      return D() + A() + " " + sym + " " + B() + ";";
    }
    switch (i.op) {
      case Op::kConst: return D() + lit(i.imm) + ";";
      case Op::kMov: return D() + A() + ";";
      case Op::kShl: return D() + A() + " << (" + B() + " & 63);";
      case Op::kShr: return D() + A() + " >> (" + B() + " & 63);";
      case Op::kNot: return D() + "~" + A() + ";";
      case Op::kLoadPkt:
        return D() + "F.load_pkt<M>(pkt, " + A() + ", " + W + ", n);";
      case Op::kStorePkt:
        return "F.store_pkt<M>(packet, " + A() + ", " + B() + ", " + W +
               ", n);";
      case Op::kPktLen: return D() + "pkt.size();";
      case Op::kPktPort: return D() + "packet.in_port();";
      case Op::kPktTime: return D() + "packet.timestamp_ns();";
      case Op::kLoadLocal:
        return D() + "F.load_local<M>(" + lit(i.imm) + ", n);";
      case Op::kStoreLocal:
        return "F.store_local<M>(" + lit(i.imm) + ", " + A() + ", n);";
      case Op::kLoadMem: return D() + "F.load_mem<M>(" + A() + ", n);";
      case Op::kStoreMem:
        return "F.store_mem<M>(" + A() + ", " + B() + ", n);";
      case Op::kCall: {
        std::string s = "{ const ir::CallReturn o = F.call(" +
                        std::to_string(pc) + ", " + lit(i.imm) + ", " +
                        (i.a != kNoReg ? A() : "0") + ", " +
                        (i.b != kNoReg ? B() : "0") +
                        ", packet, meter, result);";
        if (i.dst != kNoReg) s += " " + reg(i.dst) + " = o.v0;";
        if (i.dst2 != kNoReg) s += " " + reg(i.dst2) + " = o.v1;";
        return s + " }";
      }
      case Op::kBr: {
        const std::string t = jump(bi, i.t), f = jump(bi, i.f);
        if (t.empty() && f.empty()) return check(bi);
        if (f.empty()) return check(bi) + "if (" + A() + " != 0) " + t;
        if (t.empty()) return check(bi) + "if (" + A() + " == 0) " + f;
        return check(bi) + "if (" + A() + " != 0) " + t + " " + f;
      }
      case Op::kJmp: return check(bi) + jump(bi, i.t);
      case Op::kForward:
        return "result.verdict = net::NfVerdict::kForward; "
               "result.out_port = " + A() + "; return n;";
      case Op::kDrop:
        return "result.verdict = net::NfVerdict::kDrop; return n;";
      case Op::kClassTag: return "F.class_tag(" + lit(i.imm) + ", result);";
      case Op::kLoopHead: return "F.loop_head(" + lit(i.imm) + ", result);";
      default: break;
    }
    BOLT_UNREACHABLE(p_.name + ": no native form for " + op_name(i.op));
  }

  const Program& p_;
  std::string fn_;
  std::vector<std::size_t> begin_;     ///< first instruction of each block
  std::vector<std::size_t> block_of_;  ///< instruction -> block
  std::vector<char> targeted_;         ///< block is a jump target
  std::vector<char> local_;            ///< register -> C++ local
  bool loops_ = false;                 ///< any backward jump
};

/// True if `p` may run first-touch code (the preconditions in
/// ir/cycle_meter.h that do not depend on the packet).
bool first_touch_ok(const Program& p) {
  constexpr std::size_t kWords =
      ConservativeCycleMeter::kFirstTouchMaxBytes / 8;
  return std::none_of(p.code.begin(), p.code.end(),
                      [](const Instr& i) { return i.op == Op::kCall; }) &&
         static_cast<std::size_t>(p.num_locals) <= kWords &&
         p.scratch_slots <= kWords;
}

}  // namespace

std::string emit_native_source(const std::vector<const Program*>& programs,
                               const std::string& table) {
  std::ostringstream out;
  out << "// Generated by bolt_nativegen from the registered NF programs. "
         "Do not edit.\n"
      << "#include \"ir/native.h\"\n\n"
      << "namespace bolt {\nnamespace {\n\n";
  for (std::size_t k = 0; k < programs.size(); ++k) {
    Emitter(*programs[k], "native_" + std::to_string(k)).emit(out);
  }
  // What find_native compares a program with once its fingerprint matches.
  for (std::size_t k = 0; k < programs.size(); ++k) {
    const Program& p = *programs[k];
    const std::string K = std::to_string(k);
    out << "const ir::NativeInstr code_" << K << "[] = {\n";
    for (const Instr& i : p.code) {
      out << "    {" << int(i.op) << ", " << int(i.width) << ", " << i.dst
          << ", " << i.dst2 << ", " << i.a << ", " << i.b << ", " << i.t
          << ", " << i.f << ", " << lit(i.imm) << "},\n";
    }
    out << "};\n";
    names(out, "tags_" + K, p.class_tags);
    names(out, "loops_" + K, p.loops);
    out << "\n";
  }
  out << "const ir::NativeEntry kTable[] = {\n";
  for (std::size_t k = 0; k < programs.size(); ++k) {
    const Program& p = *programs[k];
    const std::string K = std::to_string(k), fn = "native_" + K;
    const std::string first_touch =
        first_touch_ok(p) ? "&" + fn + "<ir::Metering::kFirstTouch>"
                          : "nullptr";
    out << "    {" << program_fingerprint(p) << "ULL, &" << fn
        << "<ir::Metering::kProbe>, &" << fn << "<ir::Metering::kNone>, "
        << first_touch << ", " << quoted(p.name) << ", " << p.num_regs << ", "
        << p.num_locals << ", " << p.scratch_slots << ", {code_" << K << ", "
        << p.code.size() << "}, " << span(p.class_tags, "tags_" + K) << ", "
        << span(p.loops, "loops_" + K) << "},\n";
  }
  out << "};\n\n}  // namespace\n\n"
      << "support::Span<const ir::NativeEntry> " << table << "() {\n"
      << "  return {kTable, sizeof(kTable) / sizeof(kTable[0])};\n}\n\n"
      << "}  // namespace bolt\n";
  return out.str();
}

}  // namespace bolt::ir
