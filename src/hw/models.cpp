#include "hw/models.h"

namespace bolt::hw {

namespace {

/// The meter's per-op costs are the one source for instruction pricing:
/// CycleCosts calibrates ALU and memory, and imul keeps the meter's
/// worst case.
ir::ConservativeCycleMeter::Costs meter_costs(const CycleCosts& costs) {
  ir::ConservativeCycleMeter::Costs out;
  out.alu = costs.cons_alu;
  out.l1 = costs.cons_l1;
  out.dram = costs.cons_dram;
  return out;
}

}  // namespace

ConservativeModel::ConservativeModel(const CycleCosts& costs)
    : meter_(meter_costs(costs)) {}

RealisticSim::RealisticSim(const CycleCosts& costs)
    : costs_(costs),
      l1_(32 * 1024, 8),
      l2_(256 * 1024, 8),
      l3_(8 * 1024 * 1024, 16) {}

void RealisticSim::begin_packet() { packet_start_ = cycles_; }

void RealisticSim::on_instruction(ir::Op /*op*/) {
  instr_carry_ += costs_.real_ipc_num;
  cycles_ += instr_carry_ / costs_.real_ipc_den;
  instr_carry_ %= costs_.real_ipc_den;
}

void RealisticSim::on_metered_instructions(std::uint64_t n) {
  instr_carry_ += n * costs_.real_ipc_num;
  cycles_ += instr_carry_ / costs_.real_ipc_den;
  instr_carry_ %= costs_.real_ipc_den;
}

void RealisticSim::on_access(std::uint64_t addr, std::uint32_t size,
                             bool /*is_write*/, bool dependent) {
  const std::uint64_t first = line_of(addr);
  const std::uint64_t last = line_of(addr + (size == 0 ? 0 : size - 1));
  for (std::uint64_t line = first; line <= last; ++line) {
    if (l1_.access(line)) {
      ++stats_.l1_hits;
      cycles_ += costs_.real_l1;
      continue;
    }
    // L1 miss. Track ascending/descending line streams: the hardware
    // prefetcher covers established streams; independent streamed misses
    // additionally overlap via memory-level parallelism.
    const std::int64_t delta =
        static_cast<std::int64_t>(line) - static_cast<std::int64_t>(last_miss_line_);
    const bool adjacent = delta == 1 || delta == -1;
    if (adjacent && delta == stream_delta_) {
      ++stream_run_;
    } else if (adjacent) {
      stream_delta_ = delta;
      stream_run_ = 1;
    } else {
      stream_delta_ = 0;
      stream_run_ = 0;
    }
    last_miss_line_ = line;
    const bool streamed = stream_run_ >= 2;

    // Where does the line come from, and does stream prefetch / MLP cap
    // the effective latency?
    std::uint64_t cost;
    std::uint64_t* counter;
    if (l2_.access(line)) {
      cost = costs_.real_l2;
      counter = &stats_.l2_hits;
    } else if (l3_.access(line)) {
      cost = costs_.real_l3;
      counter = &stats_.l3_hits;
    } else {
      cost = costs_.real_dram;
      counter = &stats_.dram;
    }
    if (streamed) {
      const std::uint64_t cap = dependent ? costs_.real_stream_dependent
                                          : costs_.real_stream_independent;
      if (cost > cap) {
        cost = cap;
        counter = dependent ? &stats_.prefetch_hits : &stats_.mlp_hits;
      }
    }
    ++*counter;
    cycles_ += cost;
    l1_.insert(line);
  }
}

}  // namespace bolt::hw
