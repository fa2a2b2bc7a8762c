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

}  // namespace

/// The step whose `accesses` 8-byte words sit at addr(0), addr(1), ...
/// (each step's addresses repeat within 12 accesses, so the line mask
/// needs no more).
template <typename Addr>
NativeEngine::FrameworkStep NativeEngine::framework_step(
    std::uint64_t instructions, std::uint64_t accesses, Addr addr) {
  FrameworkStep step;
  step.instructions = instructions;
  step.accesses = accesses;
  for (std::uint64_t i = 0; i < accesses; ++i) {
    const std::uint64_t a = addr(i);
    const std::uint64_t line = support::line_of(a);
    if (i < 12) {
      step.lines |= std::uint64_t{1} << support::line_of(a - kMbufBase);
    }
    BOLT_CHECK(support::line_of(a + 7) == line,
               "a framework access straddles two lines");
    if (!step.runs.empty() &&
        support::line_of(step.runs.back().addr) == line) {
      ++step.runs.back().count;
    } else {
      step.runs.push_back({a, 1});
    }
  }
  return step;
}

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
  rx_ = framework_step(options_.rx_instructions, options_.rx_accesses,
                       rx_mbuf_addr);
  tx_ = framework_step(options_.tx_instructions, options_.tx_accesses,
                       tx_mbuf_addr);
  drop_ = framework_step(options_.drop_instructions, options_.drop_accesses,
                         drop_mbuf_addr);
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

void NativeEngine::charge(const FrameworkStep& step) const {
  if (fast_meter_ == nullptr) return;
  fast_meter_->add_instructions(step.instructions);
  for (const AccessRun& run : step.runs) {
    fast_meter_->access_repeated(run.addr, 8, run.count);
  }
}

void NativeEngine::run_into(net::Packet& packet, RunResult& result) {
  if (first_touch_ &&
      packet.size() <= ConservativeCycleMeter::kFirstTouchMaxBytes) {
    run_first_touch(packet, result);
    return;
  }
  CostMeter meter(options_.sink);  // the dslib calls' meter
  result.clear();
  result.labels = labels_;
  result.loop_trips.resize(labels_->loop_count(), 0);
  // Accesses reach the meter in execution order: framework rx, the
  // program's own and its calls', then tx or drop. Stateless instruction
  // cycles are order-independent sums, charged once.
  charge(rx_);
  const NativeCounts n = fn_(*this, meter, packet, result);
  if (fast_meter_ != nullptr) {
    fast_meter_->add_instructions(n.instructions, n.muls);
  }
  const FrameworkStep& out =
      result.verdict == net::NfVerdict::kForward ? tx_ : drop_;
  charge(out);
  result.instructions = n.instructions + meter.instructions() +
                        rx_.instructions + out.instructions;
  result.mem_accesses =
      n.accesses + meter.accesses() + rx_.accesses + out.accesses;
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

CallReturn NativeEngine::call(std::size_t site, std::int64_t method,
                              std::uint64_t a0, std::uint64_t a1,
                              net::Packet& packet, CostMeter& meter,
                              RunResult& result) {
  if (env_ == nullptr) fail("kCall with no env");
  const CallOutcome outcome = env_->call(method, a0, a1, packet, meter);
  record_call(method, outcome, site_memo_[site], *labels_, result);
  return {outcome.v0, outcome.v1};
}

}  // namespace bolt::ir
