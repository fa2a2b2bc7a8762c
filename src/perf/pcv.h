// Performance-critical variables (PCVs).
//
// A PCV (paper §2) summarises the impact of everything *other than the
// current input packet* — state, configuration, history — on the NF's
// performance. Examples from the paper: hash collisions `c`, bucket
// traversals `t`, expired entries `e`, table occupancy `o`, matched prefix
// length `l`, number of IP options `n`.
//
// PCVs are interned in a registry so expressions can refer to them by a
// small integer id; the registry carries the human-readable name and a
// one-line description used when rendering contracts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bolt::perf {

using PcvId = std::uint32_t;

/// Interning registry for performance-critical variables.
///
/// One registry is shared per analysis so data-structure contracts and
/// NF contracts agree on ids. Interning the same name twice returns the
/// same id (the description of the first interning wins).
class PcvRegistry {
 public:
  /// Returns the id for `name`, creating it if needed.
  PcvId intern(const std::string& name, const std::string& description = "");

  /// Returns the id for an existing PCV; aborts if it does not exist.
  PcvId require(const std::string& name) const;

  /// True if a PCV with this name has been interned.
  bool contains(const std::string& name) const;

  const std::string& name(PcvId id) const;
  const std::string& description(PcvId id) const;
  std::size_t size() const { return names_.size(); }

  /// All interned ids, in interning order.
  std::vector<PcvId> all() const;

 private:
  std::vector<std::string> names_;
  std::vector<std::string> descriptions_;
  std::map<std::string, PcvId> by_name_;
};

/// A concrete assignment of values to PCVs, used to evaluate expressions.
/// PCVs are counts and are therefore non-negative.
///
/// Stored as a flat array sorted by id — bindings are tiny (an NF induces a
/// handful of PCVs per packet), so linear scans beat tree lookups and the
/// whole structure fits in one or two cache lines. The first few entries
/// live inline; per-packet bindings on the monitor's hot path therefore
/// never touch the heap (the old std::map paid a node allocation per PCV
/// per call). Iteration order (ascending id) matches the previous map, so
/// every consumer that renders or accumulates in iteration order is
/// byte-identical.
class PcvBinding {
 public:
  using value_type = std::pair<PcvId, std::uint64_t>;

  PcvBinding() = default;

  void set(PcvId id, std::uint64_t value);
  /// Value of `id`, or 0 if unbound (an unbound PCV means "did not occur").
  std::uint64_t get(PcvId id) const;
  bool has(PcvId id) const;

  /// Iterable view over (id, value) pairs in ascending id order. Returns
  /// the binding itself so existing `for (auto& [id, v] : b.values())`
  /// call sites keep working unchanged.
  const PcvBinding& values() const { return *this; }

  const value_type* begin() const { return spilled() ? spill_.data() : inline_; }
  const value_type* end() const { return begin() + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Forgets all entries but keeps any spill capacity, so a reused
  /// per-packet binding stays allocation-free.
  void clear() { size_ = 0; }

  /// Raises `id` to `value` if that is more than get(id): the same as
  /// `if (value > get(id)) set(id, value)`, so an unbound id stays unbound
  /// for a zero value. Inline for an id already bound in the inline slots,
  /// which is every call after a packet's first touch of that PCV.
  void raise(PcvId id, std::uint64_t value) {
    if (!spilled()) {
      for (std::uint32_t i = 0; i < size_ && inline_[i].first <= id; ++i) {
        if (inline_[i].first == id) {
          if (value > inline_[i].second) inline_[i].second = value;
          return;
        }
      }
      if (value > 0) set(id, value);
      return;
    }
    if (value > get(id)) set(id, value);
  }

  /// Merge: entries in `other` overwrite entries here.
  void merge(const PcvBinding& other);

 private:
  static constexpr std::size_t kInline = 6;
  bool spilled() const { return size_ > kInline; }
  value_type* slots() { return spilled() ? spill_.data() : inline_; }

  value_type inline_[kInline] = {};
  std::uint32_t size_ = 0;
  /// Overflow storage: once a binding exceeds kInline entries, all of them
  /// live here (rare — only contract-side worst-case bindings get big).
  std::vector<value_type> spill_;
};

}  // namespace bolt::perf
