// Cost metering interfaces shared by the interpreter and the stateful
// data-structure library.
//
// Real BOLT instruments replayed executions with Intel Pin, logging every
// x86 instruction and memory address. Here, the interpreter logs stateless
// IR instructions itself, and dslib implementations *meter* their own work
// through `CostMeter` (they are the "pre-analysed" code whose cost the
// manual contracts describe). Hardware models subscribe to the combined
// stream through `TraceSink`.
//
// A sink that exposes a fast_meter() (the conservative model) is driven
// inline: CostMeter looks the meter up once, at construction, and charges
// metered instructions, stateless instructions and reads/writes straight
// into it, with no virtual call per event. Sinks without one (the
// realistic simulator) receive the unchanged virtual event stream.
#pragma once

#include <cstdint>

#include "ir/cycle_meter.h"
#include "ir/program.h"

namespace bolt::ir {

/// Synthetic address-space bases. Packet buffers and NF locals live at fixed
/// virtual addresses (a run-to-completion NF reuses the same mbuf), and each
/// dslib object gets a deterministic arena so cache simulations are
/// reproducible run-to-run.
inline constexpr std::uint64_t kPacketBase = 0x1000'0000ULL;
inline constexpr std::uint64_t kMbufBase = 0x0f00'0000ULL;  // rx/tx metadata
inline constexpr std::uint64_t kLocalsBase = 0x2000'0000ULL;
inline constexpr std::uint64_t kScratchBase = 0x3000'0000ULL;
inline constexpr std::uint64_t kArenaBase = 0x4000'0000ULL;
inline constexpr std::uint64_t kArenaStride = 0x0100'0000ULL;  // 16 MiB each

/// Receives the low-level event stream of one execution; implemented by the
/// hardware models (conservative and realistic).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// A stateless IR instruction executed.
  virtual void on_instruction(Op op) = 0;
  /// `n` generic (metered, data-structure-internal) instructions executed.
  virtual void on_metered_instructions(std::uint64_t n) = 0;
  /// A memory access. `dependent` marks loads whose address derives from a
  /// previous load (pointer chases) — such misses cannot be overlapped by
  /// memory-level parallelism, which the realistic model cares about.
  virtual void on_access(std::uint64_t addr, std::uint32_t size, bool is_write,
                         bool dependent) = 0;
  /// Devirtualization escape hatch: a sink whose cycle accounting is
  /// exactly the conservative meter's (order-independent per-op sums +
  /// in-order must-hit access stream) returns its meter here, and the
  /// fast engines and every CostMeter drive it inline instead of making
  /// one virtual call per event. Sinks with richer semantics
  /// (e.g. hw::RealisticSim's event-order-sensitive prefetch model) return
  /// nullptr and keep the exact event stream via the reference interpreter.
  virtual ConservativeCycleMeter* fast_meter() { return nullptr; }
};

/// Accumulates instruction and memory-access counts; forwards to an optional
/// TraceSink (inline into its fast_meter() when it has one). Passed into
/// every dslib method so the structures can report the work they actually
/// performed.
class CostMeter {
 public:
  explicit CostMeter(TraceSink* sink = nullptr)
      : sink_(sink), fast_(sink != nullptr ? sink->fast_meter() : nullptr) {}

  void metered_instructions(std::uint64_t n) {
    instructions_ += n;
    if (fast_ != nullptr) {
      fast_->add_instructions(n);
    } else if (sink_ != nullptr) {
      sink_->on_metered_instructions(n);
    }
  }

  void stateless_instruction(Op op) {
    ++instructions_;
    ++stateless_instructions_;
    if (fast_ != nullptr) {
      fast_->add_instructions(1, op == Op::kMul ? 1 : 0);
    } else if (sink_ != nullptr) {
      sink_->on_instruction(op);
    }
  }

  void mem_read(std::uint64_t addr, std::uint32_t size, bool dependent = false) {
    ++accesses_;
    if (fast_ != nullptr) {
      fast_->access(addr, size);
    } else if (sink_ != nullptr) {
      sink_->on_access(addr, size, false, dependent);
    }
  }

  void mem_write(std::uint64_t addr, std::uint32_t size) {
    ++accesses_;
    if (fast_ != nullptr) {
      fast_->access(addr, size);
    } else if (sink_ != nullptr) {
      sink_->on_access(addr, size, true, false);
    }
  }

  void stateless_mem_read(std::uint64_t addr, std::uint32_t size,
                          bool dependent = false) {
    ++stateless_accesses_;
    mem_read(addr, size, dependent);
  }

  void stateless_mem_write(std::uint64_t addr, std::uint32_t size) {
    ++stateless_accesses_;
    mem_write(addr, size);
  }

  std::uint64_t instructions() const { return instructions_; }
  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t stateless_instructions() const { return stateless_instructions_; }
  std::uint64_t stateless_accesses() const { return stateless_accesses_; }

  void reset() {
    instructions_ = accesses_ = 0;
    stateless_instructions_ = stateless_accesses_ = 0;
  }

  TraceSink* sink() const { return sink_; }

 private:
  TraceSink* sink_ = nullptr;
  ConservativeCycleMeter* fast_ = nullptr;  ///< sink_->fast_meter()
  std::uint64_t instructions_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t stateless_instructions_ = 0;
  std::uint64_t stateless_accesses_ = 0;
};

/// Deterministic arena-address allocator for dslib objects.
///
/// The counter is thread-local (parallel pipelines construct dslib objects
/// concurrently) and NF-instance factories reset it to a fixed per-NF-kind
/// *bank*, so a given NF always occupies the same address space no matter
/// which worker built it, while instances of *different* kinds stay
/// disjoint when composed into one simulated address space (e.g. a future
/// stateful chain). Two live instances of the same kind do overlap — give
/// the second one its own bank if that composition ever arises.
class ArenaAllocator {
 public:
  /// Returns the base address for the next arena (16 MiB apart).
  static std::uint64_t next_base();
  /// Resets numbering to the start of `bank` (banks are 8 arenas wide).
  static void reset(std::uint64_t bank = 0);
};

}  // namespace bolt::ir
