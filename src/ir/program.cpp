#include "ir/program.h"

#include "support/assert.h"

namespace bolt::ir {

const char* op_name(Op op) {
  switch (op) {
    case Op::kConst: return "const";
    case Op::kMov: return "mov";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kXor: return "xor";
    case Op::kShl: return "shl";
    case Op::kShr: return "shr";
    case Op::kNot: return "not";
    case Op::kEq: return "eq";
    case Op::kNe: return "ne";
    case Op::kLtU: return "ltu";
    case Op::kLeU: return "leu";
    case Op::kGtU: return "gtu";
    case Op::kGeU: return "geu";
    case Op::kLoadPkt: return "loadpkt";
    case Op::kStorePkt: return "storepkt";
    case Op::kPktLen: return "pktlen";
    case Op::kPktPort: return "pktport";
    case Op::kPktTime: return "pkttime";
    case Op::kLoadLocal: return "loadloc";
    case Op::kStoreLocal: return "storeloc";
    case Op::kLoadMem: return "loadmem";
    case Op::kStoreMem: return "storemem";
    case Op::kCall: return "call";
    case Op::kBr: return "br";
    case Op::kJmp: return "jmp";
    case Op::kForward: return "forward";
    case Op::kDrop: return "drop";
    case Op::kClassTag: return "classtag";
    case Op::kLoopHead: return "loophead";
  }
  return "?";
}

void Program::validate() const {
  auto check_reg = [&](Reg r, bool allow_none) {
    if (r == kNoReg) {
      BOLT_CHECK(allow_none, name + ": missing required register operand");
      return;
    }
    BOLT_CHECK(r >= 0 && r < num_regs, name + ": register out of range");
  };
  auto check_target = [&](std::int32_t target) {
    BOLT_CHECK(target >= 0 && target < static_cast<std::int32_t>(code.size()),
               name + ": branch target out of range");
  };

  BOLT_CHECK(!code.empty(), name + ": empty program");
  for (const Instr& ins : code) {
    switch (ins.op) {
      case Op::kConst:
        check_reg(ins.dst, false);
        break;
      case Op::kMov:
      case Op::kNot:
        check_reg(ins.dst, false);
        check_reg(ins.a, false);
        break;
      case Op::kAdd: case Op::kSub: case Op::kMul:
      case Op::kAnd: case Op::kOr: case Op::kXor:
      case Op::kShl: case Op::kShr:
      case Op::kEq: case Op::kNe:
      case Op::kLtU: case Op::kLeU: case Op::kGtU: case Op::kGeU:
        check_reg(ins.dst, false);
        check_reg(ins.a, false);
        check_reg(ins.b, false);
        break;
      case Op::kLoadPkt:
        check_reg(ins.dst, false);
        check_reg(ins.a, false);
        BOLT_CHECK(ins.width == 1 || ins.width == 2 || ins.width == 4 ||
                       ins.width == 6 || ins.width == 8,
                   name + ": bad packet load width");
        break;
      case Op::kStorePkt:
        check_reg(ins.a, false);
        check_reg(ins.b, false);
        BOLT_CHECK(ins.width == 1 || ins.width == 2 || ins.width == 4 ||
                       ins.width == 6 || ins.width == 8,
                   name + ": bad packet store width");
        break;
      case Op::kPktLen: case Op::kPktPort: case Op::kPktTime:
        check_reg(ins.dst, false);
        break;
      case Op::kLoadLocal:
        check_reg(ins.dst, false);
        BOLT_CHECK(ins.imm >= 0 && ins.imm < num_locals,
                   name + ": local index out of range");
        break;
      case Op::kStoreLocal:
        check_reg(ins.a, false);
        BOLT_CHECK(ins.imm >= 0 && ins.imm < num_locals,
                   name + ": local index out of range");
        break;
      case Op::kLoadMem:
        check_reg(ins.dst, false);
        check_reg(ins.a, false);
        break;
      case Op::kStoreMem:
        check_reg(ins.a, false);
        check_reg(ins.b, false);
        break;
      case Op::kCall:
        check_reg(ins.dst, true);
        check_reg(ins.dst2, true);
        check_reg(ins.a, true);
        check_reg(ins.b, true);
        break;
      case Op::kBr:
        check_reg(ins.a, false);
        check_target(ins.t);
        check_target(ins.f);
        break;
      case Op::kJmp:
        check_target(ins.t);
        break;
      case Op::kForward:
        check_reg(ins.a, false);
        break;
      case Op::kDrop:
        break;
      case Op::kClassTag:
        BOLT_CHECK(ins.imm >= 0 &&
                       ins.imm < static_cast<std::int64_t>(class_tags.size()),
                   name + ": class tag out of range");
        break;
      case Op::kLoopHead:
        BOLT_CHECK(ins.imm >= 0 && ins.imm < static_cast<std::int64_t>(loops.size()),
                   name + ": loop id out of range");
        break;
    }
  }
  // Execution must end in forward or drop: the fast engines do not check
  // that the pc stays inside the program.
  const Op last = code.back().op;
  BOLT_CHECK(last == Op::kBr || last == Op::kJmp || last == Op::kForward ||
                 last == Op::kDrop,
             name + ": the last instruction falls off the end");
}

std::string Program::disassemble() const {
  std::string out = "program " + name + " (regs=" + std::to_string(num_regs) +
                    ", locals=" + std::to_string(num_locals) + ")\n";
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Instr& ins = code[i];
    out += "  " + std::to_string(i) + ": " + op_name(ins.op);
    if (ins.dst != kNoReg) out += " r" + std::to_string(ins.dst);
    if (ins.dst2 != kNoReg) out += ", r" + std::to_string(ins.dst2);
    if (ins.a != kNoReg) out += " <- r" + std::to_string(ins.a);
    if (ins.b != kNoReg) out += ", r" + std::to_string(ins.b);
    if (ins.op == Op::kConst || ins.op == Op::kCall ||
        ins.op == Op::kLoadLocal || ins.op == Op::kStoreLocal ||
        ins.op == Op::kClassTag || ins.op == Op::kLoopHead) {
      out += " imm=" + std::to_string(ins.imm);
    }
    if (ins.op == Op::kBr) {
      out += " ? " + std::to_string(ins.t) + " : " + std::to_string(ins.f);
    }
    if (ins.op == Op::kJmp) out += " -> " + std::to_string(ins.t);
    if (ins.width != 0) out += " w" + std::to_string(ins.width);
    if (!ins.comment.empty()) out += "   ; " + ins.comment;
    out += '\n';
  }
  return out;
}

}  // namespace bolt::ir
