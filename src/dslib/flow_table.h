// FlowTable — the library's central stateful structure (Vigor-style map).
//
// A fixed-capacity hash table with chained buckets, entry timestamps, and
// an LRU index used for expiry. It is the substrate for the NAT flow table,
// the load balancer's connection table, and (via MacTable) the bridge's
// MAC-learning table.
//
// Performance anatomy (all metered through CostMeter, matching the manual
// contracts in flow_table_spec.cpp):
//   * get/put walk the bucket chain: t = nodes visited ("bucket
//     traversals"); each node whose 16-bit hash tag matches but whose full
//     key mismatches costs a full comparison: c = such "hash collisions".
//   * expire() sweeps the LRU oldest-first; erasing an entry walks its
//     bucket chain from the head (entries insert at the head, so the oldest
//     entry sits deepest — a mass-expiry event is quadratic, the paper's
//     pathological NAT1/Br1/LB1 scenario). expire reports e plus the
//     *amortised per-entry* walk/collision counts, which bind the e*t and
//     e*c cross terms of the contracts.
//   * entry timestamps are quantised to `stamp_granularity_ns` — the knob
//     behind the paper's VigNAT expiry-batching bug (§5.3, Figure 4).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ir/cost.h"

namespace bolt::dslib {

class FlowTable {
 public:
  struct Config {
    std::size_t capacity = 4096;          ///< max entries; power of two
    std::uint64_t ttl_ns = 1'000'000'000; ///< entry time-to-live
    std::uint64_t stamp_granularity_ns = 1;  ///< timestamp quantisation
    std::uint64_t hash_key = 0;           ///< secret key mixed into the hash
  };

  explicit FlowTable(const Config& config);

  /// Per-operation PCV observations.
  struct OpStats {
    std::uint64_t traversals = 0;  ///< t: chain nodes visited
    std::uint64_t collisions = 0;  ///< c: tag-matching full-key mismatches
  };

  struct GetResult {
    bool found = false;
    std::uint64_t value = 0;
    OpStats stats;
  };
  GetResult get(std::uint64_t key, ir::CostMeter& meter);

  /// Like get(), but refreshes the entry's timestamp and LRU position on a
  /// hit — the flow-cache semantics the NAT and LB need (traffic keeps a
  /// mapping alive).
  GetResult touch(std::uint64_t key, std::uint64_t now_ns, ir::CostMeter& meter);

  enum class PutCase { kNew, kUpdate, kFull };
  struct PutResult {
    PutCase outcome = PutCase::kNew;
    OpStats stats;
  };
  PutResult put(std::uint64_t key, std::uint64_t value, std::uint64_t now_ns,
                ir::CostMeter& meter);

  struct ExpireResult {
    std::uint64_t expired = 0;            ///< e
    std::uint64_t amortised_walk = 0;     ///< ceil(total erase steps / e)
    std::uint64_t amortised_collisions = 0;
    std::uint64_t total_walk = 0;         ///< raw totals for composites that
    std::uint64_t total_collisions = 0;   ///< recompute combined amortisation
  };
  /// Sweeps the entries stale as of `now_ns` off the LRU, oldest first.
  /// `on_evict(key, value, meter)` runs after each eviction so composites
  /// can release dependent resources (e.g. NAT ports).
  template <typename OnEvict>
  ExpireResult expire(std::uint64_t now_ns, ir::CostMeter& meter,
                      OnEvict&& on_evict) {
    ExpireResult result;
    std::uint64_t key = 0, value = 0;
    while (evict_stale_head(now_ns, meter, result, key, value)) {
      on_evict(key, value, meter);
    }
    amortise(result);
    return result;
  }
  ExpireResult expire(std::uint64_t now_ns, ir::CostMeter& meter) {
    return expire(now_ns, meter,
                  [](std::uint64_t, std::uint64_t, ir::CostMeter&) {});
  }

  /// Removes `key` if present (chain walk + unlink). Used by composites
  /// that maintain paired tables (e.g. the NAT's reverse mapping).
  struct EraseResult {
    bool erased = false;
    OpStats stats;
  };
  EraseResult erase(std::uint64_t key, ir::CostMeter& meter);

  std::size_t occupancy() const { return occupancy_; }
  std::size_t capacity() const { return config_.capacity; }
  std::size_t bucket_count() const { return buckets_.size(); }
  std::uint64_t hash_key() const { return config_.hash_key; }

  std::size_t bucket_of(std::uint64_t key) const;
  std::uint16_t tag_of(std::uint64_t key) const;

  /// Replaces the hash key and rebuilds all chains (used by the MAC table's
  /// rehash defence). Metering is the caller's job (MacTable contracts it).
  void rekey(std::uint64_t new_hash_key);

  /// Iterates all live entries (key, value, stamp).
  void for_each(const std::function<void(std::uint64_t, std::uint64_t,
                                         std::uint64_t)>& fn) const;

  void clear();

  /// State synthesis for the pathological scenarios (paper §5.1): fills the
  /// table with `count` fabricated entries that all live in `probe_key`'s
  /// bucket and share its hash tag, stamped at `stamp_ns` (old enough to
  /// mass-expire). The fabricated keys are distinct from `probe_key`;
  /// entry i gets value `value_base + i` (composites use this to pair the
  /// state with allocated resources such as NAT ports).
  void synthesize_colliding_state(std::size_t count, std::uint64_t probe_key,
                                  std::uint64_t stamp_ns,
                                  std::uint64_t value_base = 0);

 private:
  static constexpr std::int32_t kNil = -1;

  std::uint64_t quantise(std::uint64_t now_ns) const;
  /// One step of expire(): evicts the LRU head into (`key`, `value`) if it
  /// is stale, adding its erase walk to `result`; false when none is.
  bool evict_stale_head(std::uint64_t now_ns, ir::CostMeter& meter,
                        ExpireResult& result, std::uint64_t& key,
                        std::uint64_t& value);
  static void amortise(ExpireResult& result);
  /// Unlinks entry `idx` from its bucket chain by key search, metering the
  /// walk; returns (steps, collisions).
  OpStats erase_entry(std::int32_t idx, ir::CostMeter& meter);
  void lru_unlink(std::int32_t idx);
  void lru_append(std::int32_t idx);
  std::int32_t allocate_slot();

  // Synthetic addresses for the cache models.
  std::uint64_t bucket_addr(std::size_t bucket) const;
  std::uint64_t entry_addr(std::int32_t idx, std::uint32_t field_offset) const;

  Config config_;
  std::uint64_t arena_base_;
  std::vector<std::int32_t> buckets_;  ///< chain heads
  // Entry storage (structure of arrays).
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> stamps_;
  std::vector<std::uint16_t> tags_;
  std::vector<std::uint32_t> entry_bucket_;  ///< bucket each entry lives in
  std::vector<std::int32_t> next_;      ///< chain links / free list
  std::vector<std::int32_t> lru_prev_;
  std::vector<std::int32_t> lru_next_;
  std::int32_t free_head_ = kNil;
  std::int32_t lru_head_ = kNil;  ///< oldest
  std::int32_t lru_tail_ = kNil;  ///< newest
  std::size_t occupancy_ = 0;
};

}  // namespace bolt::dslib
