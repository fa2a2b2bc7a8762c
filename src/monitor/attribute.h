// Class attribution — resolving an observed run's class key to a contract
// entry, allocation-free. Owned by monitor::PartitionRunner (partition.h),
// the one per-partition core the batch engine, the streaming monitor and
// the adversary's shadow all attribute through.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/targets.h"
#include "ir/interp.h"
#include "ir/labels.h"

namespace bolt::monitor {

/// Resolves run class keys against a contract's entry index. The run's tag
/// and call-case ids fold into a single interned path id
/// (ir::RunLabels::path_of); a path seen before resolves with one vector
/// index. Only the *first* packet of each distinct class materialises the
/// key string (byte-identical to core::class_key) and hashes it against
/// the contract's entry index.
class ClassResolver {
 public:
  /// `entry_index` maps contract input-class keys to entry indices; must
  /// outlive the resolver.
  explicit ClassResolver(
      const std::unordered_map<std::string, std::size_t>* entry_index)
      : entry_index_(entry_index) {}

  /// Re-targets the resolver at a fresh NF instance: caches its method-id
  /// -> name table and clears the path memo (path ids are scoped to one
  /// runner's labels).
  void bind(const core::NfTarget& target);

  /// Returns the contract entry index, or `unattributed` when no entry
  /// matches. Bumps *memo_hits on the interned-path fast path (telemetry;
  /// pass nullptr to skip).
  std::uint32_t resolve(const ir::RunResult& run, ir::RunLabels& labels,
                        std::uint32_t unattributed,
                        std::uint64_t* memo_hits);

 private:
  const std::unordered_map<std::string, std::size_t>* entry_index_;
  std::unordered_map<std::int64_t, std::string> method_names_;
  std::string key_buf_;  ///< reused key buffer (miss path)
  /// Attribution memo: interned path id -> contract entry (or the
  /// unattributed sentinel). Dense — path ids are small and reused.
  static constexpr std::uint32_t kUnresolvedPath = ~0u - 1;
  std::vector<std::uint32_t> path_entry_;
};

}  // namespace bolt::monitor
