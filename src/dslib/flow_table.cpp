#include "dslib/flow_table.h"

#include "dslib/costs.h"
#include "net/flow.h"
#include "support/assert.h"

namespace bolt::dslib {

namespace {
// Entry record layout within the synthetic arena (one 64B line per entry).
constexpr std::uint32_t kFieldTag = 0;
constexpr std::uint32_t kFieldKey = 8;
constexpr std::uint32_t kFieldValue = 16;
constexpr std::uint32_t kFieldStamp = 24;
constexpr std::uint32_t kFieldNext = 32;
}  // namespace

FlowTable::FlowTable(const Config& config)
    : config_(config), arena_base_(ir::ArenaAllocator::next_base()) {
  BOLT_CHECK(config_.capacity >= 2 &&
                 (config_.capacity & (config_.capacity - 1)) == 0,
             "FlowTable capacity must be a power of two");
  BOLT_CHECK(config_.stamp_granularity_ns >= 1, "granularity must be >= 1");
  buckets_.assign(config_.capacity, kNil);
  keys_.resize(config_.capacity);
  values_.resize(config_.capacity);
  stamps_.resize(config_.capacity);
  tags_.resize(config_.capacity);
  entry_bucket_.resize(config_.capacity);
  next_.resize(config_.capacity);
  lru_prev_.resize(config_.capacity);
  lru_next_.resize(config_.capacity);
  clear();
}

void FlowTable::clear() {
  buckets_.assign(config_.capacity, kNil);
  free_head_ = kNil;
  for (std::size_t i = config_.capacity; i-- > 0;) {
    next_[i] = free_head_;
    free_head_ = static_cast<std::int32_t>(i);
  }
  lru_head_ = lru_tail_ = kNil;
  occupancy_ = 0;
}

std::uint64_t FlowTable::quantise(std::uint64_t now_ns) const {
  return now_ns - (now_ns % config_.stamp_granularity_ns);
}

FlowTable::Slot FlowTable::slot_of(std::uint64_t key) const {
  const std::uint64_t h = net::mix64(key ^ config_.hash_key);
  return {static_cast<std::size_t>(h & (buckets_.size() - 1)),
          static_cast<std::uint16_t>(h >> 48)};
}

std::uint64_t FlowTable::bucket_addr(std::size_t bucket) const {
  return arena_base_ + 8 * bucket;
}

std::uint64_t FlowTable::entry_addr(std::int32_t idx,
                                    std::uint32_t field_offset) const {
  return arena_base_ + 8 * buckets_.size() +
         64ULL * static_cast<std::uint64_t>(idx) + field_offset;
}

std::int32_t FlowTable::find(std::uint64_t key, ir::CostMeter& meter,
                             GetResult& result) {
  meter.metered_instructions(cost::kHash);
  meter.metered_instructions(cost::kBucketHead);
  const auto [bucket, tag] = slot_of(key);
  meter.mem_read(bucket_addr(bucket), 8);

  for (std::int32_t idx = buckets_[bucket]; idx != kNil; idx = next_[idx]) {
    ++result.stats.traversals;
    // Traversal cost varies with a key bit (pointer-arithmetic unfolding);
    // the contract coalesces to kTraverseHi.
    meter.metered_instructions((keys_[idx] & 1) != 0 ? cost::kTraverseHi
                                                     : cost::kTraverseLo);
    meter.mem_read(entry_addr(idx, kFieldTag), 8, true);
    if (tags_[idx] == tag) {
      meter.mem_read(entry_addr(idx, kFieldKey), 8, true);
      if (keys_[idx] == key) {
        meter.metered_instructions(cost::kHitFinish);
        meter.mem_read(entry_addr(idx, kFieldValue), 8, true);
        result.found = true;
        result.value = values_[idx];
        return idx;
      }
      ++result.stats.collisions;
      meter.metered_instructions((keys_[idx] & 2) != 0 ? cost::kCollisionHi
                                                       : cost::kCollisionLo);
    }
  }
  meter.metered_instructions(cost::kMissFinish);
  return kNil;
}

FlowTable::GetResult FlowTable::get(std::uint64_t key, ir::CostMeter& meter) {
  GetResult result;
  find(key, meter, result);
  return result;
}

FlowTable::GetResult FlowTable::touch(std::uint64_t key, std::uint64_t now_ns,
                                      ir::CostMeter& meter) {
  GetResult result;
  const std::int32_t idx = find(key, meter, result);
  if (idx != kNil) {
    // Refresh stamp + LRU position of the entry the walk found.
    stamps_[idx] = quantise(now_ns);
    lru_unlink(idx);
    lru_append(idx);
    meter.metered_instructions(cost::kRefresh);
    meter.mem_write(entry_addr(idx, kFieldStamp), 8);
  }
  return result;
}

FlowTable::PutResult FlowTable::put(std::uint64_t key, std::uint64_t value,
                                    std::uint64_t now_ns, ir::CostMeter& meter) {
  PutResult result;
  meter.metered_instructions(cost::kHash);
  meter.metered_instructions(cost::kBucketHead);
  const auto [bucket, tag] = slot_of(key);
  meter.mem_read(bucket_addr(bucket), 8);

  for (std::int32_t idx = buckets_[bucket]; idx != kNil; idx = next_[idx]) {
    ++result.stats.traversals;
    meter.metered_instructions((keys_[idx] & 1) != 0 ? cost::kTraverseHi
                                                     : cost::kTraverseLo);
    meter.mem_read(entry_addr(idx, kFieldTag), 8, true);
    if (tags_[idx] == tag) {
      meter.mem_read(entry_addr(idx, kFieldKey), 8, true);
      if (keys_[idx] == key) {
        // Refresh: new value + timestamp, move to LRU tail.
        meter.metered_instructions(cost::kRefresh);
        meter.mem_write(entry_addr(idx, kFieldValue), 8);
        meter.mem_write(entry_addr(idx, kFieldStamp), 8);
        values_[idx] = value;
        stamps_[idx] = quantise(now_ns);
        lru_unlink(idx);
        lru_append(idx);
        result.outcome = PutCase::kUpdate;
        return result;
      }
      ++result.stats.collisions;
      meter.metered_instructions((keys_[idx] & 2) != 0 ? cost::kCollisionHi
                                                       : cost::kCollisionLo);
    }
  }

  if (occupancy_ == config_.capacity) {
    meter.metered_instructions(cost::kFullFinish);
    result.outcome = PutCase::kFull;
    return result;
  }

  const std::int32_t idx = allocate_slot();
  keys_[idx] = key;
  values_[idx] = value;
  stamps_[idx] = quantise(now_ns);
  tags_[idx] = tag;
  entry_bucket_[idx] = static_cast<std::uint32_t>(bucket);
  next_[idx] = buckets_[bucket];
  buckets_[bucket] = idx;
  lru_append(idx);
  ++occupancy_;
  meter.metered_instructions(cost::kInsert);
  meter.mem_write(entry_addr(idx, kFieldKey), 8);
  meter.mem_write(entry_addr(idx, kFieldValue), 8);
  meter.mem_write(bucket_addr(bucket), 8);
  result.outcome = PutCase::kNew;
  return result;
}

FlowTable::OpStats FlowTable::erase_entry(std::int32_t idx,
                                          ir::CostMeter& meter) {
  OpStats stats;
  // Use the entry's *stored* bucket and tag: synthesised pathological state
  // places entries in a forced bucket, not the one their key hashes to.
  const std::size_t bucket = entry_bucket_[idx];
  const std::uint16_t tag = tags_[idx];
  meter.mem_read(bucket_addr(bucket), 8);

  std::int32_t* link = &buckets_[bucket];
  std::int32_t cur = *link;
  while (cur != kNil) {
    ++stats.traversals;
    meter.metered_instructions((keys_[cur] & 1) != 0 ? cost::kEraseStepHi
                                                     : cost::kEraseStepLo);
    meter.mem_read(entry_addr(cur, kFieldTag), 8, true);
    if (tags_[cur] == tag) {
      meter.mem_read(entry_addr(cur, kFieldKey), 8, true);
      if (cur == idx) break;
      ++stats.collisions;
      meter.metered_instructions((keys_[cur] & 2) != 0 ? cost::kCollisionHi
                                                       : cost::kCollisionLo);
    }
    link = &next_[cur];
    cur = *link;
  }
  BOLT_CHECK(cur == idx, "FlowTable: entry missing from its chain");
  *link = next_[idx];
  meter.mem_write(entry_addr(idx, kFieldNext), 8);
  return stats;
}

FlowTable::EraseResult FlowTable::erase(std::uint64_t key,
                                        ir::CostMeter& meter) {
  EraseResult result;
  meter.metered_instructions(cost::kHash);
  meter.metered_instructions(cost::kBucketHead);
  const auto [bucket, tag] = slot_of(key);
  meter.mem_read(bucket_addr(bucket), 8);

  std::int32_t* link = &buckets_[bucket];
  std::int32_t cur = *link;
  while (cur != kNil) {
    ++result.stats.traversals;
    meter.metered_instructions((keys_[cur] & 1) != 0 ? cost::kEraseStepHi
                                                     : cost::kEraseStepLo);
    meter.mem_read(entry_addr(cur, kFieldTag), 8, true);
    if (tags_[cur] == tag) {
      meter.mem_read(entry_addr(cur, kFieldKey), 8, true);
      if (keys_[cur] == key) {
        *link = next_[cur];
        meter.mem_write(entry_addr(cur, kFieldNext), 8);
        lru_unlink(cur);
        next_[cur] = free_head_;
        free_head_ = cur;
        --occupancy_;
        meter.metered_instructions(cost::kExpirePer);
        meter.mem_write(entry_addr(cur, kFieldStamp), 8);
        result.erased = true;
        return result;
      }
      ++result.stats.collisions;
      meter.metered_instructions((keys_[cur] & 2) != 0 ? cost::kCollisionHi
                                                       : cost::kCollisionLo);
    }
    link = &next_[cur];
    cur = *link;
  }
  meter.metered_instructions(cost::kMissFinish);
  return result;
}

bool FlowTable::evict_stale_head(std::uint64_t now_ns, ir::CostMeter& meter,
                                 ExpireResult& result, std::uint64_t& key,
                                 std::uint64_t& value) {
  meter.metered_instructions(cost::kExpireCheck);
  if (lru_head_ == kNil) return false;
  meter.mem_read(entry_addr(lru_head_, kFieldStamp), 8, true);
  if (stamps_[lru_head_] + config_.ttl_ns > now_ns) return false;

  const std::int32_t idx = lru_head_;
  key = keys_[idx];
  value = values_[idx];
  const OpStats walk = erase_entry(idx, meter);
  result.total_walk += walk.traversals;
  result.total_collisions += walk.collisions;
  lru_unlink(idx);
  next_[idx] = free_head_;
  free_head_ = idx;
  --occupancy_;
  ++result.expired;
  meter.metered_instructions(cost::kExpirePer);
  meter.mem_write(entry_addr(idx, kFieldStamp), 8);
  return true;
}

void FlowTable::amortise(ExpireResult& result) {
  if (result.expired > 0) {
    result.amortised_walk =
        (result.total_walk + result.expired - 1) / result.expired;
    result.amortised_collisions =
        (result.total_collisions + result.expired - 1) / result.expired;
  }
}

void FlowTable::lru_unlink(std::int32_t idx) {
  const std::int32_t prev = lru_prev_[idx];
  const std::int32_t next = lru_next_[idx];
  if (prev != kNil) lru_next_[prev] = next; else lru_head_ = next;
  if (next != kNil) lru_prev_[next] = prev; else lru_tail_ = prev;
  lru_prev_[idx] = lru_next_[idx] = kNil;
}

void FlowTable::lru_append(std::int32_t idx) {
  lru_prev_[idx] = lru_tail_;
  lru_next_[idx] = kNil;
  if (lru_tail_ != kNil) lru_next_[lru_tail_] = idx; else lru_head_ = idx;
  lru_tail_ = idx;
}

std::int32_t FlowTable::allocate_slot() {
  BOLT_CHECK(free_head_ != kNil, "FlowTable: no free slots");
  const std::int32_t idx = free_head_;
  free_head_ = next_[idx];
  return idx;
}

void FlowTable::rekey(std::uint64_t new_hash_key) {
  config_.hash_key = new_hash_key;
  // Rebuild every chain under the new key (cost metered by the caller —
  // the MAC table's rehash contract covers this).
  buckets_.assign(buckets_.size(), kNil);
  for (std::int32_t idx = lru_head_; idx != kNil; idx = lru_next_[idx]) {
    const auto [bucket, tag] = slot_of(keys_[idx]);
    tags_[idx] = tag;
    entry_bucket_[idx] = static_cast<std::uint32_t>(bucket);
    next_[idx] = buckets_[bucket];
    buckets_[bucket] = idx;
  }
}

void FlowTable::for_each(const std::function<void(std::uint64_t, std::uint64_t,
                                                  std::uint64_t)>& fn) const {
  for (std::int32_t idx = lru_head_; idx != kNil; idx = lru_next_[idx]) {
    fn(keys_[idx], values_[idx], stamps_[idx]);
  }
}

void FlowTable::synthesize_colliding_state(std::size_t count,
                                           std::uint64_t probe_key,
                                           std::uint64_t stamp_ns,
                                           std::uint64_t value_base) {
  BOLT_CHECK(count <= config_.capacity, "synthesis exceeds capacity");
  clear();
  const auto [bucket, tag] = slot_of(probe_key);
  for (std::size_t i = 0; i < count; ++i) {
    const std::int32_t idx = allocate_slot();
    // Fabricated keys: distinct from probe_key and from each other. Their
    // *stored* placement (bucket/tag) is forced — this mirrors the paper
    // synthesising NF state it could not reach via a packet trace.
    keys_[idx] = probe_key ^ (0x1'0000'0000ULL + i);
    values_[idx] = value_base + i;
    stamps_[idx] = quantise(stamp_ns);
    tags_[idx] = tag;
    entry_bucket_[idx] = static_cast<std::uint32_t>(bucket);
    next_[idx] = buckets_[bucket];
    buckets_[bucket] = idx;
    lru_append(idx);
    ++occupancy_;
  }
}

}  // namespace bolt::dslib
