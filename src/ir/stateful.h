// Interface between stateless IR programs and the stateful library.
//
// Mirrors the Vigor/BOLT split (paper §3.1): the stateless NF logic calls
// into pre-analysed stateful methods through an opaque boundary. During
// concrete execution the boundary is implemented by real dslib structures;
// during symbolic execution by their symbolic models.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ir/cost.h"
#include "net/packet.h"
#include "perf/pcv.h"
#include "support/assert.h"

namespace bolt::ir {

/// The PCVs one stateful call induced: a handful of (id, value) pairs in
/// the order the call set them. A fixed-capacity array that is neither
/// heap-backed nor zero-filled, so building an outcome costs a few stores
/// per PCV; only the first size() entries are ever read.
class CallPcvs {
 public:
  /// The most PCVs any dslib method sets (three today).
  static constexpr std::size_t kCapacity = 4;

  struct Entry {
    perf::PcvId id;
    std::uint64_t value;
  };

  CallPcvs() {}  // leaves entries_ uninitialised

  /// Binds `id` to `value`; setting an id again overwrites it.
  void set(perf::PcvId id, std::uint64_t value) {
    for (std::uint32_t i = 0; i < size_; ++i) {
      if (entries_[i].id == id) {
        entries_[i].value = value;
        return;
      }
    }
    BOLT_CHECK(size_ < kCapacity, "a stateful call set too many PCVs");
    entries_[size_++] = Entry{id, value};
  }

  const Entry* begin() const { return entries_; }
  const Entry* end() const { return entries_ + size_; }
  std::size_t size() const { return size_; }

  /// Raises each bound PCV of `into` to this call's value: a packet's PCVs
  /// are the per-PCV max over its calls. Both engines merge through here.
  void max_into(perf::PcvBinding& into) const {
    for (std::uint32_t i = 0; i < size_; ++i) {
      into.raise(entries_[i].id, entries_[i].value);
    }
  }

  /// The same pairs as a binding, for evaluating contract expressions.
  perf::PcvBinding binding() const {
    perf::PcvBinding out;
    for (const Entry& e : *this) out.set(e.id, e.value);
    return out;
  }

 private:
  Entry entries_[kCapacity];
  std::uint32_t size_ = 0;
};

/// Result of a concrete stateful call. Besides the return values the
/// structure reports *which contract case* the call took (e.g. "hit" vs
/// "miss") and the PCV values it induced (collisions, traversals, expired
/// entries, ...). The Distiller and the accuracy experiments feed on these.
///
/// `case_label` is a borrowed pointer, not an owned string: every dslib
/// implementation labels its cases with string literals, and the replay
/// environment points into path data that outlives the call. The pointee
/// must stay valid until the interpreter interns it (immediately after the
/// call returns) — which also makes the common repeat-case fast path a
/// single pointer compare per call instead of a string allocation.
struct CallOutcome {
  std::uint64_t v0 = 0;
  std::uint64_t v1 = 0;
  const char* case_label = "";
  CallPcvs pcvs;
};

/// Concrete implementation of the stateful boundary: maps method ids to
/// real data-structure operations. The packet is passed through because
/// stateful methods (like VigNAT's flow manager) parse flow identity
/// themselves; `meter` must receive every instruction and memory access the
/// method performs.
class StatefulEnv {
 public:
  virtual ~StatefulEnv() = default;
  virtual CallOutcome call(std::int64_t method, std::uint64_t arg0,
                           std::uint64_t arg1, const net::Packet& packet,
                           CostMeter& meter) = 0;
};

}  // namespace bolt::ir
