#include "ir/interp.h"

#include <algorithm>

#include "support/assert.h"

namespace bolt::ir {

std::string RunResult::class_label() const {
  std::string out;
  for (const std::uint32_t tag : class_tags) {
    if (!out.empty()) out += '/';
    out += labels != nullptr ? labels->tag_name(tag) : std::to_string(tag);
  }
  return out.empty() ? "(untagged)" : out;
}

std::vector<std::string> RunResult::class_tag_names() const {
  std::vector<std::string> out;
  out.reserve(class_tags.size());
  for (const std::uint32_t tag : class_tags) {
    out.push_back(labels != nullptr ? labels->tag_name(tag)
                                    : std::to_string(tag));
  }
  return out;
}

const std::string& RunResult::case_label_of(const CallRec& call) const {
  BOLT_CHECK(labels != nullptr, "RunResult has no label table");
  return labels->case_name(call.method, call.case_id);
}

std::map<std::int64_t, std::uint64_t> RunResult::loop_trips_map() const {
  std::map<std::int64_t, std::uint64_t> out;
  for (std::size_t flat = 0; flat < loop_trips.size(); ++flat) {
    if (loop_trips[flat] == 0) continue;  // a map only held visited loops
    const std::int64_t key =
        labels != nullptr ? labels->loop_key(flat)
                          : static_cast<std::int64_t>(flat);
    out[key] += loop_trips[flat];
  }
  return out;
}

void RunResult::clear() {
  verdict = net::NfVerdict::kDrop;
  out_port = 0;
  instructions = 0;
  mem_accesses = 0;
  stateless_instructions = 0;
  stateless_accesses = 0;
  pcvs.clear();
  calls.clear();
  class_tags.clear();
  // Zeroed in place: run_into resizes to the engine's loop count, which for
  // a reused result is a no-op instead of a per-packet fill-insert.
  std::fill(loop_trips.begin(), loop_trips.end(), 0);
  labels = nullptr;
}

Interpreter::Interpreter(const Program& program, StatefulEnv* env,
                         InterpreterOptions options, LabelBinding binding)
    : program_(program), env_(env), options_(std::move(options)) {
  program_.validate();
  if (binding.labels != nullptr) {
    labels_ = binding.labels;
    tag_base_ = binding.tag_base;
    loop_base_ = binding.loop_base;
  } else {
    owned_labels_ = std::make_shared<RunLabels>(
        std::vector<const Program*>{&program_});
    labels_ = owned_labels_.get();
  }
  regs_.resize(static_cast<std::size_t>(program_.num_regs), 0);
  locals_.resize(static_cast<std::size_t>(program_.num_locals), 0);
  scratch_.resize(program_.scratch_slots, 0);
  from_load_.resize(regs_.size(), false);
  site_memo_.resize(program_.code.size());
  for (std::size_t i = 0;
       i < std::min(options_.scratch_init.size(), scratch_.size()); ++i) {
    scratch_[i] = options_.scratch_init[i];
  }
}

RunResult Interpreter::run(net::Packet& packet) {
  RunResult result;
  run_into(packet, result);
  return result;
}

void Interpreter::run_into(net::Packet& packet, RunResult& result) {
  result.clear();
  result.labels = labels_;
  result.loop_trips.resize(labels_->loop_count(), 0);
  CostMeter meter(options_.sink);

  // Framework rx cost (our DPDK/driver substitute): fixed instruction and
  // access budget spent before the NF sees the packet.
  meter.metered_instructions(options_.rx_instructions);
  for (std::uint64_t i = 0; i < options_.rx_accesses; ++i) {
    meter.mem_read(rx_mbuf_addr(i), 8);
  }

  const auto pkt = packet.bytes();
  std::uint64_t steps = 0;
  std::size_t pc = 0;
  bool done = false;

  // Load-taint per register: true if the value (transitively) derives from
  // a memory load. Loads at tainted addresses are pointer chases — the
  // realistic hardware model cannot overlap their misses (no MLP).
  std::fill(from_load_.begin(), from_load_.end(), false);
  auto& from_load = from_load_;
  auto taint2 = [&](Reg dst, Reg a, Reg b) {
    from_load[static_cast<std::size_t>(dst)] =
        (a != kNoReg && from_load[static_cast<std::size_t>(a)]) ||
        (b != kNoReg && from_load[static_cast<std::size_t>(b)]);
  };

  auto pkt_load = [&](std::uint64_t offset, std::uint8_t width,
                      bool dependent) {
    BOLT_CHECK(width <= pkt.size() && offset <= pkt.size() - width,
               program_.name + ": packet load out of bounds");
    std::uint64_t v = 0;
    for (std::uint8_t i = 0; i < width; ++i) v = (v << 8) | pkt[offset + i];
    meter.stateless_mem_read(kPacketBase + offset, width, dependent);
    return v;
  };
  auto pkt_store = [&](std::uint64_t offset, std::uint64_t value,
                       std::uint8_t width) {
    auto mut = packet.mutable_bytes();
    BOLT_CHECK(width <= mut.size() && offset <= mut.size() - width,
               program_.name + ": packet store out of bounds");
    for (int i = width - 1; i >= 0; --i) {
      mut[offset + std::size_t(i)] = static_cast<std::uint8_t>(value & 0xff);
      value >>= 8;
    }
    meter.stateless_mem_write(kPacketBase + offset, width);
  };

  while (!done) {
    BOLT_CHECK(pc < program_.code.size(), program_.name + ": pc out of range");
    BOLT_CHECK(++steps <= options_.max_steps,
               program_.name + ": step budget exceeded (infinite loop?)");
    const Instr& ins = program_.code[pc];
    std::size_t next = pc + 1;

    if (!is_annotation(ins.op)) meter.stateless_instruction(ins.op);

    switch (ins.op) {
      case Op::kConst:
        regs_[ins.dst] = static_cast<std::uint64_t>(ins.imm);
        from_load[static_cast<std::size_t>(ins.dst)] = false;
        break;
      case Op::kMov: regs_[ins.dst] = regs_[ins.a]; taint2(ins.dst, ins.a, kNoReg); break;
      case Op::kAdd: regs_[ins.dst] = regs_[ins.a] + regs_[ins.b]; taint2(ins.dst, ins.a, ins.b); break;
      case Op::kSub: regs_[ins.dst] = regs_[ins.a] - regs_[ins.b]; taint2(ins.dst, ins.a, ins.b); break;
      case Op::kMul: regs_[ins.dst] = regs_[ins.a] * regs_[ins.b]; taint2(ins.dst, ins.a, ins.b); break;
      case Op::kAnd: regs_[ins.dst] = regs_[ins.a] & regs_[ins.b]; taint2(ins.dst, ins.a, ins.b); break;
      case Op::kOr: regs_[ins.dst] = regs_[ins.a] | regs_[ins.b]; taint2(ins.dst, ins.a, ins.b); break;
      case Op::kXor: regs_[ins.dst] = regs_[ins.a] ^ regs_[ins.b]; taint2(ins.dst, ins.a, ins.b); break;
      case Op::kShl: regs_[ins.dst] = regs_[ins.a] << (regs_[ins.b] & 63); taint2(ins.dst, ins.a, ins.b); break;
      case Op::kShr: regs_[ins.dst] = regs_[ins.a] >> (regs_[ins.b] & 63); taint2(ins.dst, ins.a, ins.b); break;
      case Op::kNot: regs_[ins.dst] = ~regs_[ins.a]; taint2(ins.dst, ins.a, kNoReg); break;
      case Op::kEq: regs_[ins.dst] = regs_[ins.a] == regs_[ins.b]; taint2(ins.dst, ins.a, ins.b); break;
      case Op::kNe: regs_[ins.dst] = regs_[ins.a] != regs_[ins.b]; taint2(ins.dst, ins.a, ins.b); break;
      case Op::kLtU: regs_[ins.dst] = regs_[ins.a] < regs_[ins.b]; taint2(ins.dst, ins.a, ins.b); break;
      case Op::kLeU: regs_[ins.dst] = regs_[ins.a] <= regs_[ins.b]; taint2(ins.dst, ins.a, ins.b); break;
      case Op::kGtU: regs_[ins.dst] = regs_[ins.a] > regs_[ins.b]; taint2(ins.dst, ins.a, ins.b); break;
      case Op::kGeU: regs_[ins.dst] = regs_[ins.a] >= regs_[ins.b]; taint2(ins.dst, ins.a, ins.b); break;
      case Op::kLoadPkt:
        regs_[ins.dst] = pkt_load(regs_[ins.a], ins.width,
                                  from_load[static_cast<std::size_t>(ins.a)]);
        from_load[static_cast<std::size_t>(ins.dst)] = true;
        break;
      case Op::kStorePkt:
        pkt_store(regs_[ins.a], regs_[ins.b], ins.width);
        break;
      case Op::kPktLen: regs_[ins.dst] = pkt.size(); break;
      case Op::kPktPort: regs_[ins.dst] = packet.in_port(); break;
      case Op::kPktTime: regs_[ins.dst] = packet.timestamp_ns(); break;
      case Op::kLoadLocal:
        regs_[ins.dst] = locals_[static_cast<std::size_t>(ins.imm)];
        meter.stateless_mem_read(kLocalsBase + 8 * std::uint64_t(ins.imm), 8);
        from_load[static_cast<std::size_t>(ins.dst)] = true;
        break;
      case Op::kStoreLocal:
        locals_[static_cast<std::size_t>(ins.imm)] = regs_[ins.a];
        meter.stateless_mem_write(kLocalsBase + 8 * std::uint64_t(ins.imm), 8);
        break;
      case Op::kLoadMem: {
        const std::uint64_t slot = regs_[ins.a];
        BOLT_CHECK(slot < scratch_.size(),
                   program_.name + ": scratch load out of range");
        regs_[ins.dst] = scratch_[slot];
        meter.stateless_mem_read(kScratchBase + 8 * slot, 8,
                                 from_load[static_cast<std::size_t>(ins.a)]);
        from_load[static_cast<std::size_t>(ins.dst)] = true;
        break;
      }
      case Op::kStoreMem: {
        const std::uint64_t slot = regs_[ins.a];
        BOLT_CHECK(slot < scratch_.size(),
                   program_.name + ": scratch store out of range");
        scratch_[slot] = regs_[ins.b];
        meter.stateless_mem_write(kScratchBase + 8 * slot, 8);
        break;
      }
      case Op::kCall: {
        BOLT_CHECK(env_ != nullptr, program_.name + ": kCall with no env");
        const std::uint64_t a0 = ins.a != kNoReg ? regs_[ins.a] : 0;
        const std::uint64_t a1 = ins.b != kNoReg ? regs_[ins.b] : 0;
        CallOutcome outcome = env_->call(ins.imm, a0, a1, packet, meter);
        if (ins.dst != kNoReg) {
          regs_[ins.dst] = outcome.v0;
          from_load[static_cast<std::size_t>(ins.dst)] = true;
        }
        if (ins.dst2 != kNoReg) {
          regs_[ins.dst2] = outcome.v1;
          from_load[static_cast<std::size_t>(ins.dst2)] = true;
        }
        // Per-packet PCV binding: keep the max value seen per PCV.
        for (const auto& [id, v] : outcome.pcvs.values()) {
          if (v > result.pcvs.get(id)) result.pcvs.set(id, v);
        }
        CallRec rec;
        rec.method = ins.imm;
        SiteMemo& memo = site_memo_[pc];
        if (memo.ptr != nullptr && memo.ptr == outcome.case_label) {
          rec.case_id = memo.case_id;
          rec.token = memo.token;
        } else {
          rec.case_id = labels_->intern_case(ins.imm, outcome.case_label);
          rec.token = labels_->case_token(ins.imm, rec.case_id);
          memo = SiteMemo{outcome.case_label, rec.case_id, rec.token};
        }
        result.calls.push_back(rec);
        break;
      }
      case Op::kBr:
        next = regs_[ins.a] != 0 ? static_cast<std::size_t>(ins.t)
                                 : static_cast<std::size_t>(ins.f);
        break;
      case Op::kJmp:
        next = static_cast<std::size_t>(ins.t);
        break;
      case Op::kForward:
        result.verdict = net::NfVerdict::kForward;
        result.out_port = regs_[ins.a];
        done = true;
        break;
      case Op::kDrop:
        result.verdict = net::NfVerdict::kDrop;
        done = true;
        break;
      case Op::kClassTag:
        result.class_tags.push_back(tag_base_ +
                                    static_cast<std::uint32_t>(ins.imm));
        break;
      case Op::kLoopHead:
        ++result.loop_trips[loop_base_ + static_cast<std::size_t>(ins.imm)];
        break;
    }
    pc = next;
  }

  // Framework tx/drop cost.
  if (result.verdict == net::NfVerdict::kForward) {
    meter.metered_instructions(options_.tx_instructions);
    for (std::uint64_t i = 0; i < options_.tx_accesses; ++i) {
      meter.mem_write(tx_mbuf_addr(i), 8);
    }
  } else {
    meter.metered_instructions(options_.drop_instructions);
    for (std::uint64_t i = 0; i < options_.drop_accesses; ++i) {
      meter.mem_write(drop_mbuf_addr(i), 8);
    }
  }

  result.instructions = meter.instructions();
  result.mem_accesses = meter.accesses();
  result.stateless_instructions = meter.stateless_instructions();
  result.stateless_accesses = meter.stateless_accesses();
}

}  // namespace bolt::ir
