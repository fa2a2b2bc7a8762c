#include "perf/quantile_sketch.h"

#include <algorithm>
#include <cmath>

#include "support/assert.h"

namespace bolt::perf {

namespace {

constexpr unsigned kSub = QuantileSketch::kSubBits;
constexpr std::uint64_t kLinearMax = 1ull << (kSub + 1);  // exact below this
constexpr std::uint32_t kSubCount = 1u << kSub;

/// For v > 0. One bit-scan instruction (no libgcc call, unlike popcount).
unsigned floor_log2(std::uint64_t v) {
  return 63u - static_cast<unsigned>(__builtin_clzll(v));
}

}  // namespace

std::uint32_t QuantileSketch::bucket_of(std::uint64_t value) {
  if (value < kLinearMax) return static_cast<std::uint32_t>(value);
  const unsigned e = floor_log2(value);  // >= kSub + 1
  const std::uint32_t m =
      static_cast<std::uint32_t>((value >> (e - kSub)) & (kSubCount - 1));
  return static_cast<std::uint32_t>(kLinearMax) +
         (e - (kSub + 1)) * kSubCount + m;
}

std::uint64_t QuantileSketch::bucket_lo(std::uint32_t bucket) {
  if (bucket < kLinearMax) return bucket;
  const std::uint32_t off = bucket - static_cast<std::uint32_t>(kLinearMax);
  const unsigned e = kSub + 1 + off / kSubCount;
  const std::uint64_t m = off % kSubCount;
  return (1ull << e) + m * (1ull << (e - kSub));
}

std::uint64_t QuantileSketch::bucket_hi(std::uint32_t bucket) {
  if (bucket < kLinearMax) return bucket;
  const std::uint32_t off = bucket - static_cast<std::uint32_t>(kLinearMax);
  const unsigned e = kSub + 1 + off / kSubCount;
  return bucket_lo(bucket) + (1ull << (e - kSub)) - 1;
}

void QuantileSketch::add(std::uint64_t value, std::uint64_t count) {
  if (count == 0) return;
  const std::uint32_t b = bucket_of(value);
  const auto pos = std::lower_bound(
      buckets_.begin(), buckets_.end(), b,
      [](const auto& entry, std::uint32_t key) { return entry.first < key; });
  if (pos != buckets_.end() && pos->first == b) {
    pos->second += count;
  } else {
    buckets_.insert(pos, {b, count});
  }
  count_ += count;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> merged;
  merged.reserve(buckets_.size() + other.buckets_.size());
  auto a = buckets_.begin();
  auto b = other.buckets_.begin();
  while (a != buckets_.end() || b != other.buckets_.end()) {
    if (b == other.buckets_.end() ||
        (a != buckets_.end() && a->first < b->first)) {
      merged.push_back(*a++);
    } else if (a == buckets_.end() || b->first < a->first) {
      merged.push_back(*b++);
    } else {
      merged.push_back({a->first, a->second + b->second});
      ++a;
      ++b;
    }
  }
  buckets_ = std::move(merged);
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::uint64_t QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank: the smallest element whose rank reaches ceil(q * N).
  std::uint64_t target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (target == 0) target = 1;
  if (target > count_) target = count_;
  std::uint64_t cumulative = 0;
  for (const auto& [bucket, n] : buckets_) {
    cumulative += n;
    if (cumulative >= target) return std::min(bucket_hi(bucket), max_);
  }
  BOLT_UNREACHABLE("quantile sketch bucket counts disagree with total");
}

std::uint64_t QuantileSketch::rank_upper_bound(std::uint64_t value) const {
  const std::uint32_t b = bucket_of(value);
  std::uint64_t rank = 0;
  for (const auto& [bucket, n] : buckets_) {
    if (bucket > b) break;
    rank += n;
  }
  return rank;
}

std::string QuantileSketch::serialize() const {
  std::string out = "n=" + std::to_string(count_) +
                    " min=" + std::to_string(min()) +
                    " max=" + std::to_string(max()) + " [";
  bool first = true;
  for (const auto& [bucket, n] : buckets_) {
    if (!first) out += ',';
    first = false;
    out += std::to_string(bucket) + ":" + std::to_string(n);
  }
  out += ']';
  return out;
}

QuantileSketch QuantileSketch::restore(
    std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets,
    std::uint64_t count, std::uint64_t min, std::uint64_t max) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    BOLT_CHECK(buckets[i].second > 0, "sketch restore: zero bucket count");
    BOLT_CHECK(i == 0 || buckets[i - 1].first < buckets[i].first,
               "sketch restore: unsorted or duplicate buckets");
    total += buckets[i].second;
  }
  BOLT_CHECK(total == count, "sketch restore: bucket counts disagree with n");
  QuantileSketch out;
  if (count == 0) {
    BOLT_CHECK(min == 0 && max == 0, "sketch restore: empty with bounds");
    return out;
  }
  BOLT_CHECK(min <= max, "sketch restore: min > max");
  BOLT_CHECK(bucket_of(min) == buckets.front().first &&
                 bucket_of(max) == buckets.back().first,
             "sketch restore: min/max outside recorded buckets");
  out.buckets_ = std::move(buckets);
  out.count_ = count;
  out.min_ = min;
  out.max_ = max;
  return out;
}

bool QuantileSketch::operator==(const QuantileSketch& other) const {
  return count_ == other.count_ && min() == other.min() &&
         max() == other.max() && buckets_ == other.buckets_;
}

QuantileSummary summarize(const QuantileSketch& sketch) {
  QuantileSummary out;
  out.count = sketch.count();
  out.p50 = sketch.quantile(0.50);
  out.p90 = sketch.quantile(0.90);
  out.p99 = sketch.quantile(0.99);
  out.p999 = sketch.quantile(0.999);
  out.max = sketch.max();
  return out;
}

void summary_to_json(std::string& out, const QuantileSummary& s) {
  out += "{\"count\":" + std::to_string(s.count);
  out += ",\"p50\":" + std::to_string(s.p50);
  out += ",\"p90\":" + std::to_string(s.p90);
  out += ",\"p99\":" + std::to_string(s.p99);
  out += ",\"p999\":" + std::to_string(s.p999);
  out += ",\"max\":" + std::to_string(s.max);
  out += '}';
}

}  // namespace bolt::perf
