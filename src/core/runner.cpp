#include "core/runner.h"

#include "ir/native.h"
#include "support/assert.h"

namespace bolt::core {

NfRunner::NfRunner(std::vector<const ir::Program*> programs,
                   ir::StatefulEnv* env, ir::InterpreterOptions options)
    : programs_(std::move(programs)) {
  BOLT_CHECK(!programs_.empty(), "NfRunner needs at least one program");
  labels_ = std::make_unique<ir::RunLabels>(programs_);
  // A sink without a fast_meter() needs the exact per-event trace, so it
  // falls back to the reference interpreter. On the fast path a registered
  // program runs its native code, any other program the reference engine.
  fast_ = options.engine == ir::EngineKind::kNative &&
          (options.sink == nullptr || options.sink->fast_meter() != nullptr);
  engines_.reserve(programs_.size());
  for (std::size_t i = 0; i < programs_.size(); ++i) {
    ir::LabelBinding binding{labels_.get(), labels_->tag_base(i),
                             labels_->loop_base(i)};
    const ir::NativeEntry* native =
        fast_ ? ir::find_native(*programs_[i]) : nullptr;
    if (native != nullptr) {
      engines_.push_back(std::make_unique<ir::NativeEngine>(
          *native, *programs_[i], env, options, binding));
    } else {
      engines_.push_back(std::make_unique<ir::Interpreter>(
          *programs_[i], env, options, binding));
    }
  }
}

ir::RunResult NfRunner::process(net::Packet& packet) {
  ir::RunResult merged;
  process_into(packet, merged);
  return merged;
}

void NfRunner::process_into(net::Packet& packet, ir::RunResult& out) {
  // Single program (the common case): run straight into the caller's
  // buffer — no merge, no intermediate result.
  if (programs_.size() == 1) {
    engines_[0]->run_into(packet, out);
    return;
  }
  out.clear();
  out.labels = labels_.get();
  out.loop_trips.assign(labels_->loop_count(), 0);
  ir::RunResult& r = chain_scratch_;
  for (std::size_t i = 0; i < programs_.size(); ++i) {
    engines_[i]->run_into(packet, r);
    out.instructions += r.instructions;
    out.mem_accesses += r.mem_accesses;
    out.stateless_instructions += r.stateless_instructions;
    out.stateless_accesses += r.stateless_accesses;
    for (const auto& [id, v] : r.pcvs.values()) {
      if (v > out.pcvs.get(id)) out.pcvs.set(id, v);
    }
    out.calls.insert(out.calls.end(), r.calls.begin(), r.calls.end());
    // Tags and loop slots are already chain-global (each engine is bound
    // to the shared label table at its own base offsets).
    out.class_tags.insert(out.class_tags.end(), r.class_tags.begin(),
                          r.class_tags.end());
    for (std::size_t l = 0; l < r.loop_trips.size(); ++l) {
      out.loop_trips[l] += r.loop_trips[l];
    }
    out.verdict = r.verdict;
    out.out_port = r.out_port;
    if (r.verdict == net::NfVerdict::kDrop) break;
  }
}

void NfRunner::process_trace(std::vector<net::Packet>& packets,
                             hw::CycleModel* sink) {
  for (net::Packet& p : packets) {
    if (sink != nullptr) sink->begin_packet();
    process(p);
  }
}

}  // namespace bolt::core
