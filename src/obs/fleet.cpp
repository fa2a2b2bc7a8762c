#include "obs/fleet.h"

#include <dirent.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "support/assert.h"
#include "support/io.h"
#include "support/json.h"
#include "support/strings.h"

namespace bolt::obs {

namespace {

using monitor::ClassAccum;
using monitor::MetricAccum;
using monitor::Offender;
using monitor::RunTotals;
using support::JsonReader;
using support::json_quote_into;

void sketch_to_json(std::string& out, const perf::QuantileSketch& s) {
  out += "{\"count\":" + std::to_string(s.count());
  out += ",\"min\":" + std::to_string(s.min());
  out += ",\"max\":" + std::to_string(s.max());
  out += ",\"buckets\":[";
  bool first = true;
  for (const auto& [bucket, count] : s.buckets()) {
    if (!first) out += ',';
    first = false;
    out += '[' + std::to_string(bucket) + ',' + std::to_string(count) + ']';
  }
  out += "]}";
}

perf::QuantileSketch parse_sketch(JsonReader& r) {
  r.expect('{');
  r.key("count");
  const std::uint64_t count = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("min");
  const std::uint64_t min = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("max");
  const std::uint64_t max = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("buckets");
  r.expect('[');
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
  if (!r.try_consume(']')) {
    do {
      r.expect('[');
      const std::int64_t bucket = r.integer();
      r.expect(',');
      const std::int64_t bcount = r.integer();
      r.expect(']');
      if (bucket < 0) r.fail("negative sketch bucket");
      buckets.emplace_back(static_cast<std::uint32_t>(bucket),
                           static_cast<std::uint64_t>(bcount));
    } while (r.try_consume(','));
    r.expect(']');
  }
  r.expect('}');
  // restore() re-validates the full invariant set (sorted buckets, count
  // sum, min/max placement) and aborts on corruption.
  return perf::QuantileSketch::restore(std::move(buckets), count, min, max);
}

void metric_accum_to_json(std::string& out, const MetricAccum& m) {
  out += "{\"violations\":" + std::to_string(m.violations);
  out += ",\"has_worst\":" + std::string(m.has_worst ? "true" : "false");
  out += ",\"worst_packet\":" + std::to_string(m.worst_packet);
  out += ",\"worst_predicted\":" + std::to_string(m.worst_predicted);
  out += ",\"worst_measured\":" + std::to_string(m.worst_measured);
  out += ",\"histogram\":[";
  for (std::size_t b = 0; b < m.histogram.size(); ++b) {
    if (b > 0) out += ',';
    out += std::to_string(m.histogram[b]);
  }
  out += "],\"headroom\":";
  sketch_to_json(out, m.headroom_pm);
  out += '}';
}

MetricAccum parse_metric_accum(JsonReader& r) {
  MetricAccum m;
  r.expect('{');
  r.key("violations");
  m.violations = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("has_worst");
  m.has_worst = r.boolean();
  r.expect(',');
  r.key("worst_packet");
  m.worst_packet = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("worst_predicted");
  m.worst_predicted = r.integer();
  r.expect(',');
  r.key("worst_measured");
  m.worst_measured = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("histogram");
  r.expect('[');
  for (std::size_t b = 0; b < m.histogram.size(); ++b) {
    if (b > 0) r.expect(',');
    m.histogram[b] = static_cast<std::uint64_t>(r.integer());
  }
  r.expect(']');
  r.expect(',');
  r.key("headroom");
  m.headroom_pm = parse_sketch(r);
  r.expect('}');
  return m;
}

void class_accum_to_json(std::string& out, const std::string& name,
                         const ClassAccum& acc) {
  out += "{\"input_class\":";
  json_quote_into(out, name);
  out += ",\"packets\":" + std::to_string(acc.packets);
  out += ",\"metrics\":[";
  for (std::size_t m = 0; m < acc.metrics.size(); ++m) {
    if (m > 0) out += ',';
    metric_accum_to_json(out, acc.metrics[m]);
  }
  out += "],\"violation_margin\":";
  sketch_to_json(out, acc.violation_margin_pm);
  out += ",\"offenders\":[";
  bool first = true;
  for (const Offender& o : acc.offenders) {
    if (!first) out += ',';
    first = false;
    out += '[' + std::to_string(o.packet_index) + ',' +
           std::to_string(perf::metric_index(o.metric)) + ',' +
           std::to_string(o.predicted) + ',' + std::to_string(o.measured) +
           ']';
  }
  out += "]}";
}

ClassAccum parse_class_accum(JsonReader& r, std::string* name) {
  ClassAccum acc;
  r.expect('{');
  r.key("input_class");
  *name = r.string();
  r.expect(',');
  r.key("packets");
  acc.packets = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("metrics");
  r.expect('[');
  for (std::size_t m = 0; m < acc.metrics.size(); ++m) {
    if (m > 0) r.expect(',');
    acc.metrics[m] = parse_metric_accum(r);
  }
  r.expect(']');
  r.expect(',');
  r.key("violation_margin");
  acc.violation_margin_pm = parse_sketch(r);
  r.expect(',');
  r.key("offenders");
  r.expect('[');
  if (!r.try_consume(']')) {
    do {
      Offender o;
      r.expect('[');
      o.packet_index = static_cast<std::uint64_t>(r.integer());
      r.expect(',');
      const std::int64_t mi = r.integer();
      if (mi < 0 || mi >= 3) r.fail("offender metric index out of range");
      o.metric = perf::kAllMetrics[static_cast<std::size_t>(mi)];
      r.expect(',');
      o.predicted = r.integer();
      r.expect(',');
      o.measured = static_cast<std::uint64_t>(r.integer());
      r.expect(']');
      acc.offenders.push_back(o);
    } while (r.try_consume(','));
    r.expect(']');
  }
  r.expect('}');
  return acc;
}

void telemetry_fields_to_json(std::string& out, const MonitorTelemetry& t) {
  out += "{\"packets_executed\":" + std::to_string(t.packets_executed);
  out += ",\"attr_memo_hits\":" + std::to_string(t.attr_memo_hits);
  out += ",\"batches_emitted\":" + std::to_string(t.batches_emitted);
  out += ",\"batch_rows\":" + std::to_string(t.batch_rows);
  out += ",\"batch_fill\":";
  sketch_to_json(out, t.batch_fill);
  out += ",\"vm_batch_evals\":" + std::to_string(t.vm_batch_evals);
  out += ",\"rows_validated\":" + std::to_string(t.rows_validated);
  out += ",\"epoch_sweeps\":" + std::to_string(t.epoch_sweeps);
  out += ",\"state_high_water\":" + std::to_string(t.state_high_water);
  out += ",\"delta_windows\":" + std::to_string(t.delta_windows);
  out += ",\"drift_alerts\":" + std::to_string(t.drift_alerts);
  out += '}';
}

MonitorTelemetry parse_telemetry_fields(JsonReader& r) {
  MonitorTelemetry t;
  const auto u64 = [&](const char* k) {
    r.key(k);
    const std::uint64_t v = static_cast<std::uint64_t>(r.integer());
    return v;
  };
  r.expect('{');
  t.packets_executed = u64("packets_executed");
  r.expect(',');
  t.attr_memo_hits = u64("attr_memo_hits");
  r.expect(',');
  t.batches_emitted = u64("batches_emitted");
  r.expect(',');
  t.batch_rows = u64("batch_rows");
  r.expect(',');
  r.key("batch_fill");
  t.batch_fill = parse_sketch(r);
  r.expect(',');
  t.vm_batch_evals = u64("vm_batch_evals");
  r.expect(',');
  t.rows_validated = u64("rows_validated");
  r.expect(',');
  t.epoch_sweeps = u64("epoch_sweeps");
  r.expect(',');
  t.state_high_water = u64("state_high_water");
  r.expect(',');
  t.delta_windows = u64("delta_windows");
  r.expect(',');
  t.drift_alerts = u64("drift_alerts");
  r.expect('}');
  return t;
}

void header_to_json(std::string& out, const char* kind, const std::string& nf,
                    std::uint32_t instance, std::uint32_t instances) {
  out += "{\"fleet_schema\":" + std::to_string(kFleetSchemaVersion);
  out += ",\"kind\":\"";
  out += kind;
  out += "\",\"nf\":";
  json_quote_into(out, nf);
  out += ",\"instance\":" + std::to_string(instance);
  out += ",\"instances\":" + std::to_string(instances);
}

void parse_header(JsonReader& r, const char* kind, std::string* nf,
                  std::uint32_t* instance, std::uint32_t* instances) {
  r.expect('{');
  r.key("fleet_schema");
  const std::int64_t schema = r.integer();
  if (schema != kFleetSchemaVersion) {
    r.fail("unsupported fleet partial schema v" + std::to_string(schema));
  }
  r.expect(',');
  r.key("kind");
  const std::string k = r.string();
  if (k != kind) {
    r.fail("expected kind '" + std::string(kind) + "', got '" + k + "'");
  }
  r.expect(',');
  r.key("nf");
  *nf = r.string();
  r.expect(',');
  r.key("instance");
  *instance = static_cast<std::uint32_t>(r.integer());
  r.expect(',');
  r.key("instances");
  *instances = static_cast<std::uint32_t>(r.integer());
}

}  // namespace

std::string window_partial_to_json(const WindowPartial& p) {
  std::string out;
  header_to_json(out, "window", p.nf, p.instance, p.instances);
  out += ",\"window\":" + std::to_string(p.window);
  out += ",\"window_ns\":" + std::to_string(p.window_ns);
  out += ",\"stats\":{\"packets\":" + std::to_string(p.packets);
  out += ",\"unattributed\":" + std::to_string(p.unattributed);
  out += ",\"first_unattributed\":" + std::to_string(p.first_unattributed);
  out += ",\"any_unattributed\":" +
         std::string(p.any_unattributed ? "true" : "false");
  out += ",\"epoch_sweeps\":" + std::to_string(p.epoch_sweeps);
  out += ",\"expired_idle\":" + std::to_string(p.expired_idle);
  out += ",\"high_water\":" + std::to_string(p.high_water);
  out += ",\"late_packets\":" + std::to_string(p.late_packets);
  out += "},\"classes\":[";
  for (std::size_t e = 0; e < p.classes.size(); ++e) {
    if (e > 0) out += ',';
    class_accum_to_json(out, p.classes[e], p.accums[e]);
  }
  out += "]}";
  return out;
}

WindowPartial parse_window_partial(const std::string& text) {
  JsonReader r(text, "fleet window partial");
  WindowPartial p;
  parse_header(r, "window", &p.nf, &p.instance, &p.instances);
  r.expect(',');
  r.key("window");
  p.window = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("window_ns");
  p.window_ns = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("stats");
  r.expect('{');
  r.key("packets");
  p.packets = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("unattributed");
  p.unattributed = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("first_unattributed");
  p.first_unattributed = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("any_unattributed");
  p.any_unattributed = r.boolean();
  r.expect(',');
  r.key("epoch_sweeps");
  p.epoch_sweeps = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("expired_idle");
  p.expired_idle = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("high_water");
  p.high_water = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("late_packets");
  p.late_packets = static_cast<std::uint64_t>(r.integer());
  r.expect('}');
  r.expect(',');
  r.key("classes");
  r.expect('[');
  if (!r.try_consume(']')) {
    do {
      std::string name;
      ClassAccum acc = parse_class_accum(r, &name);
      p.classes.push_back(std::move(name));
      p.accums.push_back(std::move(acc));
    } while (r.try_consume(','));
    r.expect(']');
  }
  r.expect('}');
  r.end();
  return p;
}

std::string final_partial_to_json(const FinalPartial& p) {
  std::string out;
  header_to_json(out, "final", p.nf, p.instance, p.instances);
  out += ",\"stream_packets\":" + std::to_string(p.stream_packets);
  out += ",\"partitions\":" + std::to_string(p.partitions);
  out += ",\"cycles_checked\":" +
         std::string(p.cycles_checked ? "true" : "false");
  out += ",\"epoch_ns\":" + std::to_string(p.epoch_ns);
  out += ",\"max_offenders\":" + std::to_string(p.max_offenders);
  out += ",\"entries\":[";
  for (std::size_t e = 0; e < p.entries.size(); ++e) {
    if (e > 0) out += ',';
    json_quote_into(out, p.entries[e]);
  }
  out += "],\"residents\":" + std::to_string(p.residents);
  out += ",\"state_tracked\":" +
         std::string(p.state_tracked ? "true" : "false");
  out += ",\"telemetry\":";
  if (p.has_telemetry) {
    telemetry_fields_to_json(out, p.telemetry);
  } else {
    out += "null";
  }
  out += '}';
  return out;
}

FinalPartial parse_final_partial(const std::string& text) {
  JsonReader r(text, "fleet final partial");
  FinalPartial p;
  parse_header(r, "final", &p.nf, &p.instance, &p.instances);
  r.expect(',');
  r.key("stream_packets");
  p.stream_packets = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("partitions");
  p.partitions = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("cycles_checked");
  p.cycles_checked = r.boolean();
  r.expect(',');
  r.key("epoch_ns");
  p.epoch_ns = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("max_offenders");
  p.max_offenders = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("entries");
  r.expect('[');
  if (!r.try_consume(']')) {
    do {
      p.entries.push_back(r.string());
    } while (r.try_consume(','));
    r.expect(']');
  }
  r.expect(',');
  r.key("residents");
  p.residents = static_cast<std::uint64_t>(r.integer());
  r.expect(',');
  r.key("state_tracked");
  p.state_tracked = r.boolean();
  r.expect(',');
  r.key("telemetry");
  if (r.try_consume('n')) {
    // "null" — the reader has consumed 'n'; eat the rest by hand.
    r.expect('u');
    r.expect('l');
    r.expect('l');
    p.has_telemetry = false;
  } else {
    p.telemetry = parse_telemetry_fields(r);
    p.has_telemetry = true;
  }
  r.expect('}');
  r.end();
  return p;
}

std::string spool_window_path(const std::string& dir, const std::string& nf,
                              std::uint32_t instance, std::uint64_t window) {
  return dir + "/" + nf + ".i" + std::to_string(instance) + ".w" +
         std::to_string(window) + ".json";
}

std::string spool_final_path(const std::string& dir, const std::string& nf,
                             std::uint32_t instance) {
  return dir + "/" + nf + ".i" + std::to_string(instance) + ".final.json";
}

void read_spool(const std::string& dir, const std::string& nf,
                std::vector<WindowPartial>* windows,
                std::vector<FinalPartial>* finals) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return;  // no spool yet — nothing to merge
  const std::string prefix = nf + ".i";
  std::vector<std::string> names;
  while (const dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() <= prefix.size() + 5) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - 5, 5, ".json") != 0) continue;
    names.push_back(name);
  }
  closedir(d);
  // Sorted scan order: the result is deterministic no matter how the
  // filesystem enumerates.
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const std::string text =
        support::read_file_or_die(dir + "/" + name, "fleet partial");
    if (name.size() > 11 &&
        name.compare(name.size() - 11, 11, ".final.json") == 0) {
      finals->push_back(parse_final_partial(text));
    } else {
      windows->push_back(parse_window_partial(text));
    }
  }
}

std::vector<std::uint32_t> missing_finals(
    const std::vector<WindowPartial>& windows,
    const std::vector<FinalPartial>& finals) {
  std::uint32_t fleet = 0;
  std::set<std::uint32_t> drained;
  for (const WindowPartial& w : windows) fleet = std::max(fleet, w.instances);
  for (const FinalPartial& f : finals) {
    fleet = std::max(fleet, f.instances);
    drained.insert(f.instance);
  }
  std::vector<std::uint32_t> missing;
  for (std::uint32_t i = 0; i < fleet && missing.size() < 64; ++i) {
    if (drained.count(i) == 0) missing.push_back(i);
  }
  return missing;
}

FleetMergeResult merge_partials(const std::vector<WindowPartial>& windows,
                                const std::vector<FinalPartial>& finals,
                                const DriftOptions& drift) {
  BOLT_CHECK(!finals.empty(),
             "fleet merge: no final partials (every instance must drain "
             "before merging)");

  // Deduplicate finals by instance. Duplicates should be byte-identical
  // copies; keep the max (stream_packets, serialised bytes) so the choice
  // is order-independent even if they are not.
  std::map<std::uint32_t, const FinalPartial*> final_by_instance;
  for (const FinalPartial& f : finals) {
    auto [it, inserted] = final_by_instance.emplace(f.instance, &f);
    if (inserted) continue;
    const FinalPartial* kept = it->second;
    if (f.stream_packets > kept->stream_packets ||
        (f.stream_packets == kept->stream_packets &&
         final_partial_to_json(f) > final_partial_to_json(*kept))) {
      it->second = &f;
    }
  }

  const FinalPartial& ref = *final_by_instance.begin()->second;
  for (const auto& [instance, f] : final_by_instance) {
    BOLT_CHECK(f->nf == ref.nf, "fleet merge: partials disagree on nf");
    BOLT_CHECK(f->instances == ref.instances,
               "fleet merge: partials disagree on fleet size");
    BOLT_CHECK(instance < f->instances,
               "fleet merge: instance id out of range");
    BOLT_CHECK(f->partitions == ref.partitions,
               "fleet merge: partials disagree on partitions");
    BOLT_CHECK(f->cycles_checked == ref.cycles_checked,
               "fleet merge: partials disagree on cycles_checked");
    BOLT_CHECK(f->epoch_ns == ref.epoch_ns,
               "fleet merge: partials disagree on epoch_ns");
    BOLT_CHECK(f->max_offenders == ref.max_offenders,
               "fleet merge: partials disagree on max_offenders");
    BOLT_CHECK(f->entries == ref.entries,
               "fleet merge: partials disagree on the contract entry list");
  }

  // Deduplicate window partials by (instance, window), same tie-break.
  std::map<std::pair<std::uint32_t, std::uint64_t>, const WindowPartial*>
      window_by_key;
  for (const WindowPartial& w : windows) {
    BOLT_CHECK(w.nf == ref.nf, "fleet merge: partials disagree on nf");
    BOLT_CHECK(w.instances == ref.instances,
               "fleet merge: partials disagree on fleet size");
    const auto key = std::make_pair(w.instance, w.window);
    auto [it, inserted] = window_by_key.emplace(key, &w);
    if (inserted) continue;
    const WindowPartial* kept = it->second;
    if (w.packets > kept->packets ||
        (w.packets == kept->packets &&
         window_partial_to_json(w) > window_partial_to_json(*kept))) {
      it->second = &w;
    }
  }

  const std::vector<std::string>& entry_names = ref.entries;
  std::unordered_map<std::string, std::size_t> entry_index;
  for (std::size_t e = 0; e < entry_names.size(); ++e) {
    entry_index.emplace(entry_names[e], e);
  }
  const std::size_t cap = static_cast<std::size_t>(ref.max_offenders);

  // Fold instances into per-window merged state (std::map: windows walk in
  // ascending order, which the drift replay requires).
  std::uint64_t window_ns = 0;
  std::map<std::uint64_t, std::vector<ClassAccum>> merged_windows;
  RunTotals totals;
  for (const auto& [key, w] : window_by_key) {
    if (w->window_ns > 0) {
      BOLT_CHECK(window_ns == 0 || window_ns == w->window_ns,
                 "fleet merge: partials disagree on window_ns");
      window_ns = w->window_ns;
    }
    auto [it, inserted] = merged_windows.try_emplace(w->window);
    if (inserted) it->second.assign(entry_names.size(), ClassAccum{});
    for (std::size_t c = 0; c < w->classes.size(); ++c) {
      const auto at = entry_index.find(w->classes[c]);
      BOLT_CHECK(at != entry_index.end(),
                 "fleet merge: window partial names unknown class '" +
                     w->classes[c] + "'");
      it->second[at->second].merge(w->accums[c], cap);
    }
    RunTotals wt;
    wt.unattributed = w->unattributed;
    wt.first_unattributed = w->first_unattributed;
    wt.any_unattributed = w->any_unattributed;
    wt.epoch_sweeps = w->epoch_sweeps;
    wt.expired_idle = w->expired_idle;
    wt.high_water = w->high_water;
    totals.merge(wt);
  }

  FleetMergeResult out;

  // Walk merged windows in ascending order: render the delta line (when
  // the window has attributed traffic and delta mode was on — exactly the
  // windows a single instance's stream would contain) and fold the window
  // into the grand per-class accumulators.
  std::vector<ClassAccum> grand(entry_names.size());
  DriftDetector detector(drift);
  for (auto& [window, accums] : merged_windows) {
    std::uint64_t attributed = 0;
    for (const ClassAccum& acc : accums) attributed += acc.packets;
    if (attributed > 0 && window_ns > 0) {
      std::vector<monitor::DeltaEntryAccum> slices;
      slices.reserve(accums.size());
      for (const ClassAccum& acc : accums) {
        slices.push_back(monitor::delta_slice(acc));
      }
      out.observations.deltas.push_back(
          monitor::build_delta_window(window, window_ns, entry_names, slices,
                                      detector, &out.observations.alerts));
    }
    for (std::size_t e = 0; e < grand.size(); ++e) {
      grand[e].merge(accums[e], cap);
    }
  }

  // Stream length: every instance fed the full stream, so finals agree;
  // max tolerates an instance that was drained early.
  std::uint64_t stream_packets = 0;
  bool any_telemetry = false;
  for (const auto& [instance, f] : final_by_instance) {
    stream_packets = std::max(stream_packets, f->stream_packets);
    totals.residents += f->residents;
    totals.state_tracked = totals.state_tracked || f->state_tracked;
    if (f->has_telemetry) {
      any_telemetry = true;
      out.observations.telemetry.merge(f->telemetry);
    }
  }
  (void)any_telemetry;

  out.report = monitor::build_report(
      ref.nf, stream_packets, static_cast<std::size_t>(ref.partitions),
      ref.cycles_checked, ref.epoch_ns, entry_names, std::move(grand), totals);

  // Mirror the merge-time facts exactly like the engines do.
  out.observations.telemetry.epoch_sweeps = out.report.epoch_sweeps;
  out.observations.telemetry.state_high_water = out.report.state_high_water;
  out.observations.telemetry.delta_windows = out.observations.deltas.size();
  out.observations.telemetry.drift_alerts = out.observations.alerts.size();
  return out;
}

}  // namespace bolt::obs
