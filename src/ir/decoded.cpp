#include "ir/decoded.h"

#include <algorithm>

#include "ir/cycle_meter.h"
#include "support/assert.h"

// Direct threading needs GNU computed goto; everything else falls back to
// a dense switch over the same handler bodies (see BOLT_OP below).
#if defined(__GNUC__) && !defined(BOLT_NO_COMPUTED_GOTO)
#define BOLT_DIRECT_THREADED 1
#endif

namespace bolt::ir {

namespace {

constexpr const char* kDOpNames[kNumDOps] = {
    "const", "mov",
    "add", "sub", "mul", "and", "or", "xor", "shl", "shr", "not",
    "eq", "ne", "ltu", "leu", "gtu", "geu",
    "loadpkt", "storepkt", "pktlen", "pktport", "pkttime",
    "loadlocal", "storelocal", "loadmem", "storemem",
    "call", "br", "jmp", "forward", "drop", "classtag", "loophead",
    "addi", "subi", "muli", "andi", "ori", "xori", "shli", "shri",
    "eqi", "nei", "ltui", "leui", "gtui", "geui",
    "eq.br", "ne.br", "ltu.br", "leu.br", "gtu.br", "geu.br",
    "eqi.br", "nei.br", "ltui.br", "leui.br", "gtui.br", "geui.br",
    "loadpkt.i", "storepkt.i", "forward.i", "loadpkt.mask.i",
};

/// Distance of a comparison op from kEq, or -1 if not a comparison.
int cmp_index(Op op) {
  const int i = static_cast<int>(op) - static_cast<int>(Op::kEq);
  return (i >= 0 && i <= 5) ? i : -1;
}

DOp offset_dop(DOp base, int index) {
  return static_cast<DOp>(static_cast<int>(base) + index);
}

/// const+ALU fusion target for binary ops whose b operand is the const,
/// or DOp-count (invalid) if the op has no immediate form.
DOp alu_imm_dop(Op op) {
  switch (op) {
    case Op::kAdd: return DOp::kAddI;
    case Op::kSub: return DOp::kSubI;
    case Op::kMul: return DOp::kMulI;
    case Op::kAnd: return DOp::kAndI;
    case Op::kOr:  return DOp::kOrI;
    case Op::kXor: return DOp::kXorI;
    case Op::kShl: return DOp::kShlI;
    case Op::kShr: return DOp::kShrI;
    case Op::kEq:  return DOp::kEqI;
    case Op::kNe:  return DOp::kNeI;
    case Op::kLtU: return DOp::kLtUI;
    case Op::kLeU: return DOp::kLeUI;
    case Op::kGtU: return DOp::kGtUI;
    case Op::kGeU: return DOp::kGeUI;
    default: return static_cast<DOp>(kNumDOps);
  }
}

bool has_branch_targets(DOp op) {
  if (op == DOp::kBr || op == DOp::kJmp) return true;
  const int i = static_cast<int>(op);
  return i >= static_cast<int>(DOp::kEqBr) &&
         i <= static_cast<int>(DOp::kGeUIBr);
}

}  // namespace

const char* dop_name(DOp op) {
  return kDOpNames[static_cast<std::size_t>(op)];
}

DecodedProgram DecodedProgram::decode(const Program& program) {
  program.validate();
  const std::vector<Instr>& code = program.code;
  const std::size_t n = code.size();

  // In-degree analysis: an instruction that is a branch target must start
  // its own record (a jump into the middle of a superinstruction would
  // skip the fused members before it).
  std::vector<char> targeted(n, 0);
  for (const Instr& ins : code) {
    if (ins.t >= 0) targeted[static_cast<std::size_t>(ins.t)] = 1;
    if (ins.f >= 0) targeted[static_cast<std::size_t>(ins.f)] = 1;
  }
  const auto fusable = [&](std::size_t k) { return k < n && !targeted[k]; };

  DecodedProgram out;
  out.code.reserve(n);
  std::vector<std::uint32_t> orig2dec(n, 0);

  std::size_t pc = 0;
  while (pc < n) {
    orig2dec[pc] = static_cast<std::uint32_t>(out.code.size());
    const Instr& i0 = code[pc];
    DInstr d{};
    d.width = i0.width;
    std::size_t len = 1;

    // Longest pattern first. Every fused record replays member register
    // writes in original order, so only kLoadPktMaskI (which caches the
    // loaded value across the mask const) needs an aliasing constraint.
    if (i0.op == Op::kConst && fusable(pc + 1) && fusable(pc + 2) &&
        fusable(pc + 3) && code[pc + 1].op == Op::kLoadPkt &&
        code[pc + 1].a == i0.dst && code[pc + 2].op == Op::kConst &&
        code[pc + 3].op == Op::kAnd && code[pc + 3].a == code[pc + 1].dst &&
        code[pc + 3].b == code[pc + 2].dst &&
        code[pc + 1].dst != code[pc + 2].dst) {
      // const off; loadpkt; const mask; and — the header-field idiom.
      d.op = DOp::kLoadPktMaskI;
      d.a = i0.dst;                // off register
      d.imm = i0.imm;              // offset
      d.dst = code[pc + 1].dst;    // loaded value
      d.width = code[pc + 1].width;
      d.b = code[pc + 2].dst;      // mask register
      d.imm2 = code[pc + 2].imm;   // mask
      d.dst2 = code[pc + 3].dst;   // masked field
      d.n_instr = 4;
      len = 4;
    } else if (i0.op == Op::kConst && fusable(pc + 1) && fusable(pc + 2) &&
               cmp_index(code[pc + 1].op) >= 0 && code[pc + 1].b == i0.dst &&
               code[pc + 2].op == Op::kBr &&
               code[pc + 2].a == code[pc + 1].dst) {
      // const; cmp; br — the guard idiom.
      d.op = offset_dop(DOp::kEqIBr, cmp_index(code[pc + 1].op));
      d.dst2 = i0.dst;
      d.imm = i0.imm;
      d.dst = code[pc + 1].dst;
      d.a = code[pc + 1].a;
      d.t = static_cast<std::uint32_t>(code[pc + 2].t);
      d.f = static_cast<std::uint32_t>(code[pc + 2].f);
      d.n_instr = 3;
      len = 3;
    } else if (i0.op == Op::kConst && fusable(pc + 1) &&
               alu_imm_dop(code[pc + 1].op) != static_cast<DOp>(kNumDOps) &&
               code[pc + 1].b == i0.dst) {
      d.op = alu_imm_dop(code[pc + 1].op);
      d.dst2 = i0.dst;
      d.imm = i0.imm;
      d.dst = code[pc + 1].dst;
      d.a = code[pc + 1].a;
      d.n_instr = 2;
      len = 2;
    } else if (i0.op == Op::kConst && fusable(pc + 1) &&
               code[pc + 1].op == Op::kLoadPkt && code[pc + 1].a == i0.dst) {
      d.op = DOp::kLoadPktI;
      d.dst2 = i0.dst;
      d.imm = i0.imm;
      d.dst = code[pc + 1].dst;
      d.width = code[pc + 1].width;
      d.n_instr = 2;
      len = 2;
    } else if (i0.op == Op::kConst && fusable(pc + 1) &&
               code[pc + 1].op == Op::kStorePkt && code[pc + 1].a == i0.dst) {
      d.op = DOp::kStorePktI;
      d.dst2 = i0.dst;
      d.imm = i0.imm;
      d.b = code[pc + 1].b;
      d.width = code[pc + 1].width;
      d.n_instr = 2;
      len = 2;
    } else if (i0.op == Op::kConst && fusable(pc + 1) &&
               code[pc + 1].op == Op::kForward && code[pc + 1].a == i0.dst) {
      d.op = DOp::kForwardI;
      d.dst2 = i0.dst;
      d.imm = i0.imm;
      d.n_instr = 2;
      len = 2;
    } else if (cmp_index(i0.op) >= 0 && fusable(pc + 1) &&
               code[pc + 1].op == Op::kBr && code[pc + 1].a == i0.dst) {
      d.op = offset_dop(DOp::kEqBr, cmp_index(i0.op));
      d.dst = i0.dst;
      d.a = i0.a;
      d.b = i0.b;
      d.t = static_cast<std::uint32_t>(code[pc + 1].t);
      d.f = static_cast<std::uint32_t>(code[pc + 1].f);
      d.n_instr = 2;
      len = 2;
    } else {
      // Unfused: the first 33 DOps mirror Op, so decode is a cast.
      d.op = static_cast<DOp>(static_cast<std::uint8_t>(i0.op));
      d.dst = i0.dst;
      d.dst2 = i0.dst2;
      d.a = i0.a;
      d.b = i0.b;
      d.imm = i0.imm;
      if (i0.t >= 0) d.t = static_cast<std::uint32_t>(i0.t);
      if (i0.f >= 0) d.f = static_cast<std::uint32_t>(i0.f);
      d.n_instr = is_annotation(i0.op) ? 0 : 1;
    }

    out.code.push_back(d);
    out.fused_away += len - 1;
    pc += len;
  }

  // Branch targets currently hold original indices; rewrite them into
  // decoded-index space. Fusion never absorbed a targeted instruction, so
  // every target is a record head and has a mapping.
  for (DInstr& d : out.code) {
    if (!has_branch_targets(d.op)) continue;
    d.t = orig2dec[d.t];
    if (d.op != DOp::kJmp) d.f = orig2dec[d.f];
  }
  return out;
}

DecodedInterpreter::DecodedInterpreter(const Program& program, StatefulEnv* env,
                                       InterpreterOptions options,
                                       LabelBinding binding)
    : name_(program.name),
      env_(env),
      options_(std::move(options)),
      dprog_(DecodedProgram::decode(program)) {
  if (options_.sink != nullptr) {
    fast_meter_ = options_.sink->fast_meter();
    BOLT_CHECK(fast_meter_ != nullptr,
               name_ + ": decoded engine requires a sink with fast_meter(); "
                       "use the reference engine for order-sensitive sinks");
  }
  if (binding.labels != nullptr) {
    labels_ = binding.labels;
    tag_base_ = binding.tag_base;
    loop_base_ = binding.loop_base;
  } else {
    owned_labels_ = std::make_shared<RunLabels>(
        std::vector<const Program*>{&program});
    labels_ = owned_labels_.get();
  }
  regs_.resize(static_cast<std::size_t>(program.num_regs), 0);
  locals_.resize(static_cast<std::size_t>(program.num_locals), 0);
  scratch_.resize(program.scratch_slots, 0);
  site_memo_.resize(dprog_.code.size());
  for (std::size_t i = 0;
       i < std::min(options_.scratch_init.size(), scratch_.size()); ++i) {
    scratch_[i] = options_.scratch_init[i];
  }
}

RunResult DecodedInterpreter::run(net::Packet& packet) {
  RunResult result;
  run_into(packet, result);
  return result;
}

void DecodedInterpreter::run_into(net::Packet& packet, RunResult& result) {
  if (fast_meter_ != nullptr) {
    exec<true>(packet, result);
  } else {
    exec<false>(packet, result);
  }
}

template <bool kMeter>
void DecodedInterpreter::exec(net::Packet& packet, RunResult& result) {
  result.clear();
  result.labels = labels_;
  result.loop_trips.resize(labels_->loop_count(), 0);

  // Stateless counters live in registers, and their cycles are charged
  // once at `done` (instruction cycles are order-independent sums). Metered
  // work (framing + dslib) still flows through a CostMeter so data
  // structures see the interface they were written against; it drives the
  // same fast meter inline.
  std::uint64_t sic = 0;   // stateless instructions
  std::uint64_t smul = 0;  // ... of which kMul
  std::uint64_t sacc = 0;  // stateless accesses
  CostMeter call_meter(options_.sink);
  [[maybe_unused]] ConservativeCycleMeter* const fm = fast_meter_;

  // Framework rx cost: identical event stream to the reference engine.
  call_meter.metered_instructions(options_.rx_instructions);
  for (std::uint64_t i = 0; i < options_.rx_accesses; ++i) {
    call_meter.mem_read(kMbufBase + (i * 16) % 192, 8);
  }

  const auto pkt = packet.bytes();
  std::uint64_t* const regs = regs_.data();
  std::uint64_t* const locals = locals_.data();
  std::uint64_t* const scratch = scratch_.data();
  const std::size_t scratch_size = scratch_.size();
  const DInstr* const code = dprog_.code.data();

  const auto pkt_load = [&](std::uint64_t offset,
                            std::uint8_t width) -> std::uint64_t {
    BOLT_CHECK(offset + width <= pkt.size(),
               name_ + ": packet load out of bounds");
    std::uint64_t v = 0;
    for (std::uint8_t i = 0; i < width; ++i) v = (v << 8) | pkt[offset + i];
    ++sacc;
    if constexpr (kMeter) fm->access(kPacketBase + offset, width);
    return v;
  };
  const auto pkt_store = [&](std::uint64_t offset, std::uint64_t value,
                             std::uint8_t width) {
    auto mut = packet.mutable_bytes();
    BOLT_CHECK(offset + width <= mut.size(),
               name_ + ": packet store out of bounds");
    for (int i = width - 1; i >= 0; --i) {
      mut[offset + std::size_t(i)] = static_cast<std::uint8_t>(value & 0xff);
      value >>= 8;
    }
    ++sacc;
    if constexpr (kMeter) fm->access(kPacketBase + offset, width);
  };

  std::uint64_t steps = 0;
  std::uint32_t pc = 0;
  const DInstr* I;

// One set of handler bodies serves both dispatch strategies: BOLT_OP
// expands to a computed-goto label or a switch case; BOLT_NEXT_AT always
// jumps back to `dispatch`, which re-dispatches either way.
#ifdef BOLT_DIRECT_THREADED
#define BOLT_OP(name) H_##name:
  static const void* const kLabels[kNumDOps] = {
      &&H_kConst, &&H_kMov,
      &&H_kAdd, &&H_kSub, &&H_kMul, &&H_kAnd, &&H_kOr, &&H_kXor,
      &&H_kShl, &&H_kShr, &&H_kNot,
      &&H_kEq, &&H_kNe, &&H_kLtU, &&H_kLeU, &&H_kGtU, &&H_kGeU,
      &&H_kLoadPkt, &&H_kStorePkt, &&H_kPktLen, &&H_kPktPort, &&H_kPktTime,
      &&H_kLoadLocal, &&H_kStoreLocal, &&H_kLoadMem, &&H_kStoreMem,
      &&H_kCall, &&H_kBr, &&H_kJmp, &&H_kForward, &&H_kDrop,
      &&H_kClassTag, &&H_kLoopHead,
      &&H_kAddI, &&H_kSubI, &&H_kMulI, &&H_kAndI, &&H_kOrI, &&H_kXorI,
      &&H_kShlI, &&H_kShrI,
      &&H_kEqI, &&H_kNeI, &&H_kLtUI, &&H_kLeUI, &&H_kGtUI, &&H_kGeUI,
      &&H_kEqBr, &&H_kNeBr, &&H_kLtUBr, &&H_kLeUBr, &&H_kGtUBr, &&H_kGeUBr,
      &&H_kEqIBr, &&H_kNeIBr, &&H_kLtUIBr, &&H_kLeUIBr, &&H_kGtUIBr,
      &&H_kGeUIBr,
      &&H_kLoadPktI, &&H_kStorePktI, &&H_kForwardI, &&H_kLoadPktMaskI,
  };
#else
#define BOLT_OP(name) case DOp::name:
#endif
#define BOLT_NEXT_AT(target) \
  do {                       \
    pc = (target);           \
    goto dispatch;           \
  } while (0)
#define BOLT_NEXT() BOLT_NEXT_AT(pc + 1)

dispatch:
  BOLT_CHECK(++steps <= options_.max_steps,
             name_ + ": step budget exceeded (infinite loop?)");
  I = &code[pc];
  sic += I->n_instr;
#ifdef BOLT_DIRECT_THREADED
  goto *kLabels[static_cast<std::size_t>(I->op)];
#else
  switch (I->op) {
#endif

  BOLT_OP(kConst) {
    regs[I->dst] = static_cast<std::uint64_t>(I->imm);
    BOLT_NEXT();
  }
  BOLT_OP(kMov) {
    regs[I->dst] = regs[I->a];
    BOLT_NEXT();
  }

#define BOLT_ALU(name, expr)                \
  BOLT_OP(name) {                           \
    const std::uint64_t av = regs[I->a];    \
    const std::uint64_t bv = regs[I->b];    \
    regs[I->dst] = (expr);                  \
    BOLT_NEXT();                            \
  }
  // The two multiply handlers also count the packet's imuls for the meter.
  BOLT_ALU(kAdd, av + bv)
  BOLT_ALU(kSub, av - bv)
  BOLT_ALU(kMul, (++smul, av * bv))
  BOLT_ALU(kAnd, av & bv)
  BOLT_ALU(kOr, av | bv)
  BOLT_ALU(kXor, av ^ bv)
  BOLT_ALU(kShl, av << (bv & 63))
  BOLT_ALU(kShr, av >> (bv & 63))
  BOLT_ALU(kEq, av == bv)
  BOLT_ALU(kNe, av != bv)
  BOLT_ALU(kLtU, av < bv)
  BOLT_ALU(kLeU, av <= bv)
  BOLT_ALU(kGtU, av > bv)
  BOLT_ALU(kGeU, av >= bv)
#undef BOLT_ALU

  BOLT_OP(kNot) {
    regs[I->dst] = ~regs[I->a];
    BOLT_NEXT();
  }
  BOLT_OP(kLoadPkt) {
    regs[I->dst] = pkt_load(regs[I->a], I->width);
    BOLT_NEXT();
  }
  BOLT_OP(kStorePkt) {
    pkt_store(regs[I->a], regs[I->b], I->width);
    BOLT_NEXT();
  }
  BOLT_OP(kPktLen) {
    regs[I->dst] = pkt.size();
    BOLT_NEXT();
  }
  BOLT_OP(kPktPort) {
    regs[I->dst] = packet.in_port();
    BOLT_NEXT();
  }
  BOLT_OP(kPktTime) {
    regs[I->dst] = packet.timestamp_ns();
    BOLT_NEXT();
  }
  BOLT_OP(kLoadLocal) {
    regs[I->dst] = locals[static_cast<std::size_t>(I->imm)];
    ++sacc;
    if constexpr (kMeter) {
      fm->access(kLocalsBase + 8 * static_cast<std::uint64_t>(I->imm), 8);
    }
    BOLT_NEXT();
  }
  BOLT_OP(kStoreLocal) {
    locals[static_cast<std::size_t>(I->imm)] = regs[I->a];
    ++sacc;
    if constexpr (kMeter) {
      fm->access(kLocalsBase + 8 * static_cast<std::uint64_t>(I->imm), 8);
    }
    BOLT_NEXT();
  }
  BOLT_OP(kLoadMem) {
    const std::uint64_t slot = regs[I->a];
    BOLT_CHECK(slot < scratch_size, name_ + ": scratch load out of range");
    regs[I->dst] = scratch[slot];
    ++sacc;
    if constexpr (kMeter) fm->access(kScratchBase + 8 * slot, 8);
    BOLT_NEXT();
  }
  BOLT_OP(kStoreMem) {
    const std::uint64_t slot = regs[I->a];
    BOLT_CHECK(slot < scratch_size, name_ + ": scratch store out of range");
    scratch[slot] = regs[I->b];
    ++sacc;
    if constexpr (kMeter) fm->access(kScratchBase + 8 * slot, 8);
    BOLT_NEXT();
  }
  BOLT_OP(kCall) {
    BOLT_CHECK(env_ != nullptr, name_ + ": kCall with no env");
    const std::uint64_t a0 = I->a != kNoReg ? regs[I->a] : 0;
    const std::uint64_t a1 = I->b != kNoReg ? regs[I->b] : 0;
    CallOutcome outcome = env_->call(I->imm, a0, a1, packet, call_meter);
    if (I->dst != kNoReg) regs[I->dst] = outcome.v0;
    if (I->dst2 != kNoReg) regs[I->dst2] = outcome.v1;
    for (const auto& [id, v] : outcome.pcvs.values()) {
      if (v > result.pcvs.get(id)) result.pcvs.set(id, v);
    }
    CallRec rec;
    rec.method = I->imm;
    SiteMemo& memo = site_memo_[pc];
    if (memo.ptr != nullptr && memo.ptr == outcome.case_label) {
      rec.case_id = memo.case_id;
      rec.token = memo.token;
    } else {
      rec.case_id = labels_->intern_case(I->imm, outcome.case_label);
      rec.token = labels_->case_token(I->imm, rec.case_id);
      memo = SiteMemo{outcome.case_label, rec.case_id, rec.token};
    }
    result.calls.push_back(rec);
    BOLT_NEXT();
  }
  BOLT_OP(kBr) { BOLT_NEXT_AT(regs[I->a] != 0 ? I->t : I->f); }
  BOLT_OP(kJmp) { BOLT_NEXT_AT(I->t); }
  BOLT_OP(kForward) {
    result.verdict = net::NfVerdict::kForward;
    result.out_port = regs[I->a];
    goto done;
  }
  BOLT_OP(kDrop) {
    result.verdict = net::NfVerdict::kDrop;
    goto done;
  }
  BOLT_OP(kClassTag) {
    result.class_tags.push_back(tag_base_ + static_cast<std::uint32_t>(I->imm));
    BOLT_NEXT();
  }
  BOLT_OP(kLoopHead) {
    ++result.loop_trips[loop_base_ + static_cast<std::size_t>(I->imm)];
    BOLT_NEXT();
  }

// Fused const+ALU: the const register (dst2) is written first, exactly as
// the reference executed it, so member aliasing cannot change results.
#define BOLT_ALU_I(name, expr)                                \
  BOLT_OP(name) {                                             \
    regs[I->dst2] = static_cast<std::uint64_t>(I->imm);       \
    const std::uint64_t av = regs[I->a];                      \
    const std::uint64_t bv = static_cast<std::uint64_t>(I->imm); \
    regs[I->dst] = (expr);                                    \
    BOLT_NEXT();                                              \
  }
  BOLT_ALU_I(kAddI, av + bv)
  BOLT_ALU_I(kSubI, av - bv)
  BOLT_ALU_I(kMulI, (++smul, av * bv))
  BOLT_ALU_I(kAndI, av & bv)
  BOLT_ALU_I(kOrI, av | bv)
  BOLT_ALU_I(kXorI, av ^ bv)
  BOLT_ALU_I(kShlI, av << (bv & 63))
  BOLT_ALU_I(kShrI, av >> (bv & 63))
  BOLT_ALU_I(kEqI, av == bv)
  BOLT_ALU_I(kNeI, av != bv)
  BOLT_ALU_I(kLtUI, av < bv)
  BOLT_ALU_I(kLeUI, av <= bv)
  BOLT_ALU_I(kGtUI, av > bv)
  BOLT_ALU_I(kGeUI, av >= bv)
#undef BOLT_ALU_I

#define BOLT_CMP_BR(name, expr)                 \
  BOLT_OP(name) {                               \
    const std::uint64_t av = regs[I->a];        \
    const std::uint64_t bv = regs[I->b];        \
    const std::uint64_t v = (expr);             \
    regs[I->dst] = v;                           \
    BOLT_NEXT_AT(v ? I->t : I->f);              \
  }
  BOLT_CMP_BR(kEqBr, av == bv)
  BOLT_CMP_BR(kNeBr, av != bv)
  BOLT_CMP_BR(kLtUBr, av < bv)
  BOLT_CMP_BR(kLeUBr, av <= bv)
  BOLT_CMP_BR(kGtUBr, av > bv)
  BOLT_CMP_BR(kGeUBr, av >= bv)
#undef BOLT_CMP_BR

#define BOLT_CMP_I_BR(name, expr)                             \
  BOLT_OP(name) {                                             \
    regs[I->dst2] = static_cast<std::uint64_t>(I->imm);       \
    const std::uint64_t av = regs[I->a];                      \
    const std::uint64_t bv = static_cast<std::uint64_t>(I->imm); \
    const std::uint64_t v = (expr);                           \
    regs[I->dst] = v;                                         \
    BOLT_NEXT_AT(v ? I->t : I->f);                            \
  }
  BOLT_CMP_I_BR(kEqIBr, av == bv)
  BOLT_CMP_I_BR(kNeIBr, av != bv)
  BOLT_CMP_I_BR(kLtUIBr, av < bv)
  BOLT_CMP_I_BR(kLeUIBr, av <= bv)
  BOLT_CMP_I_BR(kGtUIBr, av > bv)
  BOLT_CMP_I_BR(kGeUIBr, av >= bv)
#undef BOLT_CMP_I_BR

  BOLT_OP(kLoadPktI) {
    regs[I->dst2] = static_cast<std::uint64_t>(I->imm);
    regs[I->dst] = pkt_load(static_cast<std::uint64_t>(I->imm), I->width);
    BOLT_NEXT();
  }
  BOLT_OP(kStorePktI) {
    regs[I->dst2] = static_cast<std::uint64_t>(I->imm);
    pkt_store(static_cast<std::uint64_t>(I->imm), regs[I->b], I->width);
    BOLT_NEXT();
  }
  BOLT_OP(kForwardI) {
    regs[I->dst2] = static_cast<std::uint64_t>(I->imm);
    result.verdict = net::NfVerdict::kForward;
    result.out_port = static_cast<std::uint64_t>(I->imm);
    goto done;
  }
  BOLT_OP(kLoadPktMaskI) {
    regs[I->a] = static_cast<std::uint64_t>(I->imm);  // offset const
    const std::uint64_t v =
        pkt_load(static_cast<std::uint64_t>(I->imm), I->width);
    regs[I->dst] = v;
    regs[I->b] = static_cast<std::uint64_t>(I->imm2);  // mask const
    regs[I->dst2] = v & static_cast<std::uint64_t>(I->imm2);
    BOLT_NEXT();
  }

#ifndef BOLT_DIRECT_THREADED
  }
  BOLT_UNREACHABLE(name_ + ": bad decoded opcode");
#endif
#undef BOLT_OP
#undef BOLT_NEXT
#undef BOLT_NEXT_AT

done:
  if constexpr (kMeter) fm->add_instructions(sic, smul);
  // Framework tx/drop cost — same event stream as the reference engine.
  if (result.verdict == net::NfVerdict::kForward) {
    call_meter.metered_instructions(options_.tx_instructions);
    for (std::uint64_t i = 0; i < options_.tx_accesses; ++i) {
      call_meter.mem_write(kMbufBase + 192 + (i * 16) % 128, 8);
    }
  } else {
    call_meter.metered_instructions(options_.drop_instructions);
    for (std::uint64_t i = 0; i < options_.drop_accesses; ++i) {
      call_meter.mem_write(kMbufBase + 320 + (i * 16) % 64, 8);
    }
  }

  result.instructions = sic + call_meter.instructions();
  result.mem_accesses = sacc + call_meter.accesses();
  result.stateless_instructions = sic;
  result.stateless_accesses = sacc;
}

template void DecodedInterpreter::exec<true>(net::Packet&, RunResult&);
template void DecodedInterpreter::exec<false>(net::Packet&, RunResult&);

}  // namespace bolt::ir
