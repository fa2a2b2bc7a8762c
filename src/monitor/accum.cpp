#include "monitor/accum.h"

#include <algorithm>

namespace bolt::monitor {

using perf::Metric;
using perf::kAllMetrics;
using perf::metric_index;
using perf::summarize;

namespace {

/// Largest measured value whose `measured * 1000` does not wrap.
constexpr std::uint64_t kMaxExactPm = ~0ull / 1000;

/// One (measured, predicted) pair's utilization and histogram bucket.
struct Util {
  std::uint64_t pm = 0;     ///< util_pm
  std::size_t bucket = 0;   ///< util_bucket
};

/// util_pm and util_bucket with one divide. For a finite bound and a
/// measured value below the wrap, floor(10m/p) = floor(floor(1000m/p)/100),
/// so the bucket comes from the per-mille value; elsewhere both are
/// computed as written.
Util util_of(std::uint64_t measured, std::int64_t predicted) {
  if (predicted > 0 && measured <= kMaxExactPm) {
    const std::uint64_t pm =
        measured * 1000 / static_cast<std::uint64_t>(predicted);
    const bool violated = static_cast<std::int64_t>(measured) > predicted;
    return {pm, violated ? kViolationBucket
                         : std::min<std::size_t>(pm / 100,
                                                 kViolationBucket - 1)};
  }
  return {util_pm(measured, predicted), util_bucket(measured, predicted)};
}

/// How far past its bound a violating value is, in per-mille of the bound;
/// `pm` is the pair's util_pm. Below the wrap, (m-p)*1000/p = pm - 1000.
std::uint64_t margin_pm(std::uint64_t measured, std::int64_t predicted,
                        std::uint64_t pm) {
  if (predicted <= 0) return kDegenerateUtilPm;
  if (measured <= kMaxExactPm) return pm - 1000;
  return (measured - static_cast<std::uint64_t>(predicted)) * 1000 /
         static_cast<std::uint64_t>(predicted);
}

}  // namespace

int util_cmp(std::uint64_t ma, std::int64_t pa, std::uint64_t mb,
             std::int64_t pb) {
  const bool inf_a = pa <= 0 && ma > 0;
  const bool inf_b = pb <= 0 && mb > 0;
  if (inf_a || inf_b) {
    if (inf_a && inf_b) return ma < mb ? -1 : ma > mb ? 1 : 0;
    return inf_a ? 1 : -1;
  }
  // Both finite; p <= 0 implies m == 0 here, i.e. utilization 0.
  const std::uint64_t na = pa > 0 ? ma : 0;
  const std::uint64_t da = pa > 0 ? static_cast<std::uint64_t>(pa) : 1;
  const std::uint64_t nb = pb > 0 ? mb : 0;
  const std::uint64_t db = pb > 0 ? static_cast<std::uint64_t>(pb) : 1;
  const unsigned __int128 lhs = static_cast<unsigned __int128>(na) * db;
  const unsigned __int128 rhs = static_cast<unsigned __int128>(nb) * da;
  return lhs < rhs ? -1 : lhs > rhs ? 1 : 0;
}

std::size_t util_bucket(std::uint64_t measured, std::int64_t predicted) {
  if (static_cast<std::int64_t>(measured) > predicted) return kViolationBucket;
  if (predicted <= 0 || measured == 0) return 0;
  const std::uint64_t b =
      measured * 10 / static_cast<std::uint64_t>(predicted);
  return std::min<std::uint64_t>(b, kViolationBucket - 1);
}

std::uint64_t util_pm(std::uint64_t measured, std::int64_t predicted) {
  if (predicted <= 0) return measured > 0 ? kDegenerateUtilPm : 0;
  return measured * 1000 / static_cast<std::uint64_t>(predicted);
}

bool offender_before(const Offender& a, const Offender& b) {
  const int cmp = util_cmp(a.measured, a.predicted, b.measured, b.predicted);
  if (cmp != 0) return cmp > 0;
  return a.packet_index < b.packet_index;
}

std::uint64_t MetricAccum::record_run(std::uint64_t first_packet,
                                      std::uint64_t count,
                                      std::uint64_t measured,
                                      std::int64_t predicted) {
  const Util u = util_of(measured, predicted);
  if (static_cast<std::int64_t>(measured) > predicted) violations += count;
  histogram[u.bucket] += count;
  headroom_pm.add(u.pm, count);
  int cmp = 1;
  if (has_worst) {
    cmp = util_cmp(measured, predicted, worst_measured, worst_predicted);
  }
  if (cmp > 0 || (cmp == 0 && first_packet < worst_packet)) {
    has_worst = true;
    worst_packet = first_packet;
    worst_predicted = predicted;
    worst_measured = measured;
  }
  return u.pm;
}

void MetricAccum::merge(const MetricAccum& other) {
  violations += other.violations;
  for (std::size_t b = 0; b < kUtilizationBuckets; ++b) {
    histogram[b] += other.histogram[b];
  }
  headroom_pm.merge(other.headroom_pm);
  if (!other.has_worst) return;
  const int cmp = util_cmp(other.worst_measured, other.worst_predicted,
                           worst_measured, worst_predicted);
  if (!has_worst || cmp > 0 ||
      (cmp == 0 && other.worst_packet < worst_packet)) {
    has_worst = true;
    worst_packet = other.worst_packet;
    worst_predicted = other.worst_predicted;
    worst_measured = other.worst_measured;
  }
}

void ClassAccum::add_run(support::Span<const std::uint64_t> run,
                         const std::array<std::uint64_t, 3>& measured,
                         const std::array<std::int64_t, 3>& predicted,
                         bool check_cycles, std::size_t cap) {
  if (run.empty()) return;
  packets += run.size();
  Offender worst;
  bool has_offender = false;
  for (const Metric m : kAllMetrics) {
    if (m == Metric::kCycles && !check_cycles) continue;
    const int mi = metric_index(m);
    const std::uint64_t value = measured[mi];
    const std::int64_t bound = predicted[mi];
    const std::uint64_t pm =
        metrics[mi].record_run(run[0], run.size(), value, bound);
    if (static_cast<std::int64_t>(value) > bound) {
      violation_margin_pm.add(margin_pm(value, bound, pm), run.size());
    }
    if (!has_offender ||
        util_cmp(value, bound, worst.measured, worst.predicted) > 0) {
      has_offender = true;
      worst.metric = m;
      worst.predicted = bound;
      worst.measured = value;
    }
  }
  if (!has_offender) return;
  for (const std::uint64_t packet : run) {
    worst.packet_index = packet;
    if (!add_offender(worst, cap)) break;
  }
}

void ClassAccum::add_rows(support::Span<const std::uint64_t> packets,
                          const std::array<const std::uint64_t*, 3>& measured,
                          const std::array<const std::int64_t*, 3>& predicted,
                          bool check_cycles, std::size_t cap) {
  // The checked metrics are the first `checked` columns.
  static_assert(metric_index(Metric::kCycles) == 2);
  const std::size_t checked = check_cycles ? 3 : 2;
  const std::size_t rows = packets.size();
  std::array<std::uint64_t, 3> m{};
  std::array<std::int64_t, 3> p{};
  const auto repeats = [&](std::size_t r) {
    for (std::size_t mi = 0; mi < checked; ++mi) {
      if (measured[mi][r] != m[mi] || predicted[mi][r] != p[mi]) return false;
    }
    return true;
  };
  for (std::size_t r = 0; r < rows;) {
    for (std::size_t mi = 0; mi < checked; ++mi) {
      m[mi] = measured[mi][r];
      p[mi] = predicted[mi][r];
    }
    std::size_t end = r + 1;
    while (end < rows && repeats(end)) ++end;
    add_run({packets.data() + r, end - r}, m, p, check_cycles, cap);
    r = end;
  }
}

bool ClassAccum::add_offender(const Offender& o, std::size_t cap) {
  if (cap == 0) return false;
  // A full list turns away anything after its last entry without a
  // search; that bar only rises as the list fills with better entries.
  if (offenders.size() >= cap && offender_before(offenders.back(), o)) {
    return false;
  }
  const auto pos =
      std::lower_bound(offenders.begin(), offenders.end(), o, offender_before);
  offenders.insert(pos, o);
  if (offenders.size() > cap) offenders.pop_back();
  return true;
}

void ClassAccum::merge(const ClassAccum& other, std::size_t cap) {
  packets += other.packets;
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    metrics[m].merge(other.metrics[m]);
  }
  violation_margin_pm.merge(other.violation_margin_pm);
  for (const Offender& o : other.offenders) add_offender(o, cap);
}

DeltaEntryAccum delta_slice(const ClassAccum& acc) {
  DeltaEntryAccum d;
  d.packets = acc.packets;
  for (std::size_t m = 0; m < 3; ++m) {
    d.violations[m] = acc.metrics[m].violations;
    d.headroom_pm[m] = acc.metrics[m].headroom_pm;
  }
  return d;
}

void RunTotals::merge(const RunTotals& other) {
  if (other.unattributed > 0 || other.any_unattributed) {
    unattributed += other.unattributed;
    if (!any_unattributed || other.first_unattributed < first_unattributed) {
      any_unattributed = true;
      first_unattributed = other.first_unattributed;
    }
  }
  epoch_sweeps += other.epoch_sweeps;
  expired_idle += other.expired_idle;
  high_water = std::max(high_water, other.high_water);
  residents += other.residents;
  state_tracked = state_tracked || other.state_tracked;
}

MonitorReport build_report(const std::string& nf, std::uint64_t packets,
                           std::size_t partitions, bool cycles_checked,
                           std::uint64_t epoch_ns_option,
                           const std::vector<std::string>& entry_names,
                           std::vector<ClassAccum>&& merged,
                           const RunTotals& totals) {
  MonitorReport report;
  report.epoch_sweeps = totals.epoch_sweeps;
  report.state_expired_idle = totals.expired_idle;
  report.state_high_water = totals.high_water;
  report.state_residents = totals.residents;
  report.state_tracked = totals.state_tracked;

  report.nf = nf;
  report.packets = packets;
  report.unattributed = totals.unattributed;
  report.first_unattributed_packet = totals.first_unattributed;
  report.attributed = packets - totals.unattributed;
  report.partitions = partitions;
  report.cycles_checked = cycles_checked;
  // A target with no state observers never runs epoch maintenance, no
  // matter what the option says — report the effective value.
  report.epoch_ns = report.state_tracked ? epoch_ns_option : 0;
  report.classes.reserve(merged.size());
  for (std::size_t e = 0; e < merged.size(); ++e) {
    ClassReport cr;
    cr.input_class = entry_names[e];
    cr.packets = merged[e].packets;
    for (std::size_t m = 0; m < 3; ++m) {
      const MetricAccum& acc = merged[e].metrics[m];
      MetricReport& mr = cr.metrics[m];
      mr.violations = acc.violations;
      mr.worst_packet = acc.worst_packet;
      mr.worst_predicted = acc.worst_predicted;
      mr.worst_measured = acc.worst_measured;
      mr.histogram = acc.histogram;
      mr.headroom_pm = summarize(acc.headroom_pm);
      report.violations += acc.violations;
    }
    cr.violation_margin_pm = summarize(merged[e].violation_margin_pm);
    cr.offenders = std::move(merged[e].offenders);
    report.classes.push_back(std::move(cr));
  }
  // Classes sorted by input class for stable human output (contract
  // entries already arrive sorted from the generator; enforce anyway for
  // hand-built contracts).
  std::stable_sort(report.classes.begin(), report.classes.end(),
                   [](const ClassReport& a, const ClassReport& b) {
                     return a.input_class < b.input_class;
                   });
  return report;
}

obs::DeltaWindow build_delta_window(std::uint64_t window,
                                    std::uint64_t window_ns,
                                    const std::vector<std::string>& entry_names,
                                    const std::vector<DeltaEntryAccum>& accums,
                                    obs::DriftDetector& detector,
                                    std::vector<obs::DriftAlert>* alerts_out) {
  obs::DeltaWindow dw;
  dw.window = window;
  dw.window_ns = window_ns;
  for (std::size_t e = 0; e < accums.size(); ++e) {
    const DeltaEntryAccum& ea = accums[e];
    if (ea.packets == 0) continue;
    obs::DeltaClass dc;
    dc.input_class = entry_names[e];
    dc.packets = ea.packets;
    dw.packets += ea.packets;
    for (const Metric m : kAllMetrics) {
      const int mi = metric_index(m);
      dc.metrics[mi].violations = ea.violations[mi];
      dc.metrics[mi].headroom_pm = ea.headroom_pm[mi];
      dw.violations += ea.violations[mi];
    }
    dw.classes.push_back(std::move(dc));
  }
  std::stable_sort(dw.classes.begin(), dw.classes.end(),
                   [](const obs::DeltaClass& a, const obs::DeltaClass& b) {
                     return a.input_class < b.input_class;
                   });
  // Drift detection over exactly the stream the operator sees: one p99
  // point per (class, metric) per window, in window order.
  for (const obs::DeltaClass& dc : dw.classes) {
    for (const Metric m : kAllMetrics) {
      const perf::QuantileSketch& sk = dc.metrics[metric_index(m)].headroom_pm;
      if (sk.count() == 0) continue;
      obs::DriftAlert alert;
      if (detector.observe(dc.input_class, m, window, sk.quantile(0.99),
                           &alert)) {
        dw.alerts.push_back(alert);
        if (alerts_out != nullptr) alerts_out->push_back(std::move(alert));
      }
    }
  }
  return dw;
}

}  // namespace bolt::monitor
