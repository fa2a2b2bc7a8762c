#include "ir/native.h"

#include <algorithm>
#include <cstring>

#include "support/hash.h"

namespace bolt::ir {

std::uint64_t program_fingerprint(const Program& program) {
  // h -> (h ^ w) * odd is a bijection of h for a fixed word, so programs
  // that differ in one word (one immediate, say) always differ here. One
  // multiply per word: every NfRunner fingerprints its programs. It is not
  // collision-free (flipping bit 63 of two words cancels out), which is why
  // find_native also compares the program itself.
  std::uint64_t h = 0x626f6c74;  // "bolt"
  const auto add = [&h](std::uint64_t w) {
    h = (h ^ w) * 0x9E3779B97F4A7C15ULL;
  };
  const auto pair = [](std::int32_t lo, std::int32_t hi) {
    return std::uint64_t(std::uint32_t(lo)) |
           std::uint64_t(std::uint32_t(hi)) << 32;
  };
  const auto add_str = [&](const std::string& s) {
    add(s.size());
    for (std::size_t i = 0; i < s.size(); i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, s.data() + i, std::min<std::size_t>(8, s.size() - i));
      add(w);
    }
  };
  add_str(program.name);
  add(pair(program.num_regs, program.num_locals));
  add(program.scratch_slots);
  add(program.code.size());
  for (const Instr& i : program.code) {
    add(std::uint64_t(i.op) | std::uint64_t(i.width) << 8);
    add(pair(i.dst, i.dst2));
    add(pair(i.a, i.b));
    add(pair(i.t, i.f));
    add(static_cast<std::uint64_t>(i.imm));
  }
  add(program.class_tags.size());
  for (const std::string& s : program.class_tags) add_str(s);
  add(program.loops.size());
  for (const std::string& s : program.loops) add_str(s);
  return support::mix64(h);
}

namespace {

bool same_names(const std::vector<std::string>& names,
                support::Span<const char* const> table) {
  return std::equal(names.begin(), names.end(), table.begin(), table.end(),
                    [](const std::string& s, const char* t) { return s == t; });
}

/// True if `entry` was generated from a program equal to `p` in every
/// field the fingerprint covers.
bool same_program(const NativeEntry& entry, const Program& p) {
  const auto same_instr = [](const Instr& i, const NativeInstr& n) {
    return std::uint8_t(i.op) == n.op && i.width == n.width &&
           i.dst == n.dst && i.dst2 == n.dst2 && i.a == n.a && i.b == n.b &&
           i.t == n.t && i.f == n.f &&
           static_cast<std::uint64_t>(i.imm) == n.imm;
  };
  return p.name == entry.name && p.num_regs == entry.num_regs &&
         p.num_locals == entry.num_locals &&
         p.scratch_slots == entry.scratch_slots &&
         std::equal(p.code.begin(), p.code.end(), entry.code.begin(),
                    entry.code.end(), same_instr) &&
         same_names(p.class_tags, entry.class_tags) &&
         same_names(p.loops, entry.loops);
}

/// The mbuf-region lines that `accesses` 8-byte words at addr(0), addr(1),
/// ... touch (each step's addresses repeat within 12 accesses).
template <typename Addr>
std::uint64_t mbuf_lines(std::uint64_t accesses, Addr addr) {
  std::uint64_t lines = 0;
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(accesses, 12); ++i) {
    lines |= std::uint64_t{1} << support::line_of(addr(i) - kMbufBase);
  }
  return lines;
}

}  // namespace

const NativeEntry* find_native(const Program& program) {
  const std::uint64_t fp = program_fingerprint(program);
  for (const NativeEntry& e : native_table()) {
    if (e.fingerprint == fp && same_program(e, program)) return &e;
  }
  return nullptr;
}

NativeEngine::NativeEngine(const NativeEntry& entry, const Program& program,
                           StatefulEnv* env, InterpreterOptions options,
                           LabelBinding binding)
    : name_(program.name), env_(env), options_(std::move(options)) {
  if (options_.sink != nullptr) {
    fast_meter_ = options_.sink->fast_meter();
    BOLT_CHECK(fast_meter_ != nullptr,
               name_ + ": native code requires a sink with fast_meter(); "
                       "use the reference engine for order-sensitive sinks");
  }
  fn_ = fast_meter_ != nullptr ? entry.metered : entry.plain;
  if (fast_meter_ != nullptr) first_touch_fn_ = entry.first_touch;
  rx_ = {options_.rx_instructions, options_.rx_accesses,
         mbuf_lines(options_.rx_accesses, rx_mbuf_addr)};
  tx_ = {options_.tx_instructions, options_.tx_accesses,
         mbuf_lines(options_.tx_accesses, tx_mbuf_addr)};
  drop_ = {options_.drop_instructions, options_.drop_accesses,
           mbuf_lines(options_.drop_accesses, drop_mbuf_addr)};
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
  site_memo_.resize(program.code.size());
  for (std::size_t i = 0;
       i < std::min(options_.scratch_init.size(), scratch_.size()); ++i) {
    scratch_[i] = options_.scratch_init[i];
  }
}

void NativeEngine::fail(const char* what) const {
  support::fatal(name_ + ": " + what, __FILE__, __LINE__);
}

void NativeEngine::use_first_touch() {
  BOLT_CHECK(can_meter_first_touch(),
             name_ + ": no first-touch code or no metered sink");
  first_touch_ = true;
}

void NativeEngine::run_into(net::Packet& packet, RunResult& result) {
  if (first_touch_ &&
      packet.size() <= ConservativeCycleMeter::kFirstTouchMaxBytes) {
    run_first_touch(packet, result);
    return;
  }
  CostMeter meter(options_.sink);
  result.clear();
  result.labels = labels_;
  result.loop_trips.resize(labels_->loop_count(), 0);
  // Framework rx cost: identical event stream to the reference engine.
  meter.metered_instructions(options_.rx_instructions);
  for (std::uint64_t i = 0; i < options_.rx_accesses; ++i) {
    meter.mem_read(rx_mbuf_addr(i), 8);
  }
  // Stateless instruction cycles are order-independent sums, charged once;
  // only memory accesses reach the meter in execution order.
  const NativeCounts n = fn_(*this, meter, packet, result);
  if (fast_meter_ != nullptr) {
    fast_meter_->add_instructions(n.instructions, n.muls);
  }
  // Framework tx/drop cost — same event stream as the reference engine.
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
  result.instructions = n.instructions + meter.instructions();
  result.mem_accesses = n.accesses + meter.accesses();
  result.stateless_instructions = n.instructions;
  result.stateless_accesses = n.accesses;
}

void NativeEngine::run_first_touch(net::Packet& packet, RunResult& result) {
  result.clear();
  result.labels = labels_;
  result.loop_trips.resize(labels_->loop_count(), 0);
  CostMeter no_calls;  // the program makes no dslib call
  NativeCounts n = first_touch_fn_(*this, no_calls, packet, result);
  const FrameworkStep& out =
      result.verdict == net::NfVerdict::kForward ? tx_ : drop_;
  n.lines.mbuf = rx_.lines | out.lines;
  const std::uint64_t framework = rx_.instructions + out.instructions;
  const std::uint64_t accesses = n.accesses + rx_.accesses + out.accesses;
  fast_meter_->add_instructions(n.instructions + framework, n.muls);
  fast_meter_->charge_first_touch(n.lines, accesses + n.straddles);
  result.instructions = n.instructions + framework;
  result.mem_accesses = accesses;
  result.stateless_instructions = n.instructions;
  result.stateless_accesses = n.accesses;
}

CallOutcome NativeEngine::call(std::size_t site, std::int64_t method,
                               std::uint64_t a0, std::uint64_t a1,
                               net::Packet& packet, CostMeter& meter,
                               RunResult& result) {
  BOLT_CHECK(env_ != nullptr, name_ + ": kCall with no env");
  CallOutcome outcome = env_->call(method, a0, a1, packet, meter);
  for (const auto& [id, v] : outcome.pcvs.values()) {
    if (v > result.pcvs.get(id)) result.pcvs.set(id, v);
  }
  CallRec rec;
  rec.method = method;
  SiteMemo& memo = site_memo_[site];
  if (memo.ptr != nullptr && memo.ptr == outcome.case_label) {
    rec.case_id = memo.case_id;
    rec.token = memo.token;
  } else {
    rec.case_id = labels_->intern_case(method, outcome.case_label);
    rec.token = labels_->case_token(method, rec.case_id);
    memo = SiteMemo{outcome.case_label, rec.case_id, rec.token};
  }
  result.calls.push_back(rec);
  return outcome;
}

}  // namespace bolt::ir
