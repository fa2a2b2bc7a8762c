// Fleet mode (monitor/follow.h + obs/fleet.h): the streaming monitor and
// the partial-state merger.
//
// The contracts pinned here are the operator-facing guarantees:
//  * a StreamMonitor fed packet-by-packet, or in chunks at 1, 2 and 4
//    threads, produces a final report and a delta stream byte-identical to
//    the batch engine over the same trace, for every registered target and
//    at 1, 2 and 4 batch threads (so a drained daemon reports exactly what
//    a batch re-run would) — both run the one chunk driver, and a seeded
//    epoch-straddle measurement bug leaks identically on both paths;
//  * wherever the chunks break (window edges inside chunks and at chunk
//    edges, a late packet) and at any thread count, the report, delta
//    stream, every spool partial and their merge are the same bytes, and a
//    one-view feed() steps on the calling thread;
//  * an idle flush is provisional — it emits the open window early but
//    never perturbs the authoritative stream or the final report, also
//    with chunks in flight;
//  * 2- and 4-instance fleets at 4 threads merge to the single run;
//  * N fleet instances over random partition-ownership splits, their
//    partials merged in random order with a duplicated file thrown in,
//    reconstruct the single-instance report and delta stream byte for
//    byte (the property 'bolt_cli merge' ships on);
//  * partials round-trip through their schema-versioned JSON exactly, a
//    partial of an older schema is refused, and the spool reader picks up
//    precisely the files the naming scheme owns;
//  * PcapTail sees records appended chunk-by-chunk, torn mid-record
//    writes included — the --follow daemon's input contract — and a
//    stream fed from its window views, over a capture several windows
//    long, equals one fed from the parsed packets, fleet instances
//    included; so does the batch engine fed one window per chunk.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/bolt.h"
#include "core/targets.h"
#include "monitor/follow.h"
#include "monitor/monitor.h"
#include "net/pcap.h"
#include "net/workload.h"
#include "obs/delta.h"
#include "obs/fleet.h"
#include "support/io.h"

namespace bolt::obs {
namespace {

struct RouterFixture {
  perf::PcvRegistry reg;
  core::GenerationResult gen;
};

RouterFixture& router() {
  static RouterFixture* f = [] {
    auto* r = new RouterFixture;
    core::NfTarget target;
    EXPECT_TRUE(core::make_named_target("router", r->reg, target));
    core::ContractGenerator g(r->reg);
    r->gen = g.generate(target.analysis());
    return r;
  }();
  return *f;
}

const std::vector<net::Packet>& drift_packets() {
  static auto* p = new std::vector<net::Packet>([] {
    net::DriftSpec spec;
    spec.packets_per_window = 200;  // 11 windows x 200 = 2200 packets
    return net::drift_traffic(spec);
  }());
  return *p;
}

monitor::MonitorOptions stream_options() {
  monitor::MonitorOptions o;
  o.delta_every = 1;
  return o;
}

/// One streaming run: the emitted authoritative delta stream, the final
/// report, and the serialised fleet partials (exactly what the CLI spools).
struct StreamRun {
  std::string report_json;
  std::string delta_jsonl;
  std::vector<std::string> window_partials;
  std::string final_partial;
  std::size_t provisional_emits = 0;
  std::size_t alerts = 0;
};

using PacketFeed = std::function<void(const net::PacketView&)>;
/// Calls its argument once per packet of a stream, in order.
using PacketSource = std::function<void(const PacketFeed&)>;
/// Feeds a whole stream to the monitor.
using Drive = std::function<void(monitor::StreamMonitor&)>;

StreamRun run_stream_with(const Drive& drive, monitor::FleetOptions fleet,
                          std::size_t threads = 0) {
  RouterFixture& f = router();
  monitor::MonitorOptions opts = stream_options();
  opts.threads = threads;
  std::vector<std::string> names;
  for (const auto& e : f.gen.contract.entries()) {
    names.push_back(e.input_class);
  }
  StreamRun out;
  auto on_window = [&](const monitor::ClosedWindow& cw) {
    if (cw.provisional) ++out.provisional_emits;
    if (cw.has_delta && !cw.provisional) {
      out.delta_jsonl += delta_window_to_json(cw.delta);
      out.delta_jsonl += '\n';
    }
    if (cw.provisional || cw.stats->packets == 0) return;
    WindowPartial wp;
    wp.nf = f.gen.contract.nf_name();
    wp.instance = fleet.instance;
    wp.instances = fleet.instances;
    wp.window = cw.window;
    wp.window_ns = cw.window_ns;
    for (std::size_t e = 0; e < cw.accums->size(); ++e) {
      const monitor::ClassAccum& acc = (*cw.accums)[e];
      if (acc.packets == 0) continue;
      wp.classes.push_back(names[e]);
      wp.accums.push_back(acc);
    }
    wp.packets = cw.stats->packets;
    wp.unattributed = cw.stats->unattributed;
    wp.first_unattributed = cw.stats->first_unattributed;
    wp.any_unattributed = cw.stats->any_unattributed;
    wp.epoch_sweeps = cw.stats->epoch_sweeps;
    wp.expired_idle = cw.stats->expired_idle;
    wp.high_water = cw.stats->high_water;
    wp.late_packets = cw.stats->late_packets;
    out.window_partials.push_back(window_partial_to_json(wp));
  };
  monitor::StreamMonitor sm(f.gen.contract, f.reg,
                            monitor::MonitorEngine::named_factory("router"),
                            opts, fleet, on_window);
  drive(sm);
  monitor::StreamResult res = sm.finish();
  out.report_json = monitor::report_to_json(res.report);
  out.alerts = res.observations.alerts.size();
  FinalPartial fp;
  fp.nf = f.gen.contract.nf_name();
  fp.instance = fleet.instance;
  fp.instances = fleet.instances;
  fp.stream_packets = sm.packets_fed();
  fp.partitions = std::max<std::size_t>(std::size_t{1}, opts.partitions);
  fp.cycles_checked = opts.check_cycles;
  fp.epoch_ns = opts.epoch_ns;
  fp.max_offenders = opts.max_offenders;
  fp.entries = names;
  fp.residents = res.report.state_residents;
  fp.state_tracked = res.report.state_tracked;
  out.final_partial = final_partial_to_json(fp);
  return out;
}

StreamRun run_stream_from(const PacketSource& source,
                          monitor::FleetOptions fleet,
                          std::size_t idle_flush_every = 0) {
  return run_stream_with(
      [&](monitor::StreamMonitor& sm) {
        std::size_t fed = 0;
        source([&](const net::PacketView& p) {
          sm.feed(p);
          if (idle_flush_every > 0 && ++fed % idle_flush_every == 0) {
            sm.idle_flush();
          }
        });
      },
      fleet);
}

StreamRun run_stream(const std::vector<net::Packet>& packets,
                     monitor::FleetOptions fleet,
                     std::size_t idle_flush_every = 0) {
  return run_stream_from(
      [&](const PacketFeed& feed) {
        for (const net::Packet& p : packets) feed(p);
      },
      fleet, idle_flush_every);
}

/// Feeds `packets` in chunks of `chunk` views (one view per feed() when
/// `chunk` is 1). Each chunk's views live in one of kChunksInFlight
/// buffers reused in turn, so a view the monitor kept past its promised
/// life would read a later packet and change the bytes. With
/// `idle_flush_every` > 0, idle-flushes after every that many chunks.
/// Drains before the buffers go away.
void feed_chunks(monitor::StreamMonitor& sm,
                 const std::vector<net::Packet>& packets, std::size_t chunk,
                 std::size_t idle_flush_every = 0) {
  std::array<std::vector<net::PacketView>,
             monitor::MonitorEngine::kChunksInFlight>
      buffers;
  std::size_t chunks = 0;
  for (std::size_t next = 0; next < packets.size(); next += chunk) {
    const std::size_t n = std::min(chunk, packets.size() - next);
    if (n == 1) {
      sm.feed(packets[next]);
    } else {
      std::vector<net::PacketView>& views = buffers[chunks % buffers.size()];
      views.assign(packets.begin() + next, packets.begin() + next + n);
      sm.feed(views);
    }
    ++chunks;
    if (idle_flush_every > 0 && chunks % idle_flush_every == 0) {
      sm.idle_flush();
    }
  }
  sm.drain();
}

StreamRun run_stream_chunked(const std::vector<net::Packet>& packets,
                             monitor::FleetOptions fleet, std::size_t threads,
                             std::size_t chunk,
                             std::size_t idle_flush_every = 0) {
  return run_stream_with(
      [&](monitor::StreamMonitor& sm) {
        feed_chunks(sm, packets, chunk, idle_flush_every);
      },
      fleet, threads);
}

/// `bolt merge` over the spooled partials of `runs` (one per instance):
/// the merged report JSON followed by the merged delta stream.
std::string merge_runs(const std::vector<StreamRun>& runs) {
  std::vector<WindowPartial> windows;
  std::vector<FinalPartial> finals;
  for (const StreamRun& run : runs) {
    for (const std::string& s : run.window_partials) {
      windows.push_back(parse_window_partial(s));
    }
    finals.push_back(parse_final_partial(run.final_partial));
  }
  const FleetMergeResult merged = merge_partials(windows, finals, {});
  std::string out = monitor::report_to_json(merged.report) + "\n";
  for (const DeltaWindow& w : merged.observations.deltas) {
    out += delta_window_to_json(w) + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Streaming vs batch.

TEST(StreamMonitor, DriftRunMatchesBatchAndAlertsWhileStreaming) {
  RouterFixture& f = router();
  monitor::MonitorEngine engine(f.gen.contract, f.reg, stream_options());
  RunObservations observations;
  const monitor::MonitorReport batch =
      engine.run(drift_packets(),
                 monitor::MonitorEngine::named_factory("router"), nullptr,
                 &observations);
  std::string batch_deltas;
  for (const DeltaWindow& w : observations.deltas) {
    batch_deltas += delta_window_to_json(w);
    batch_deltas += '\n';
  }
  const StreamRun stream = run_stream(drift_packets(), {});
  EXPECT_EQ(monitor::report_to_json(batch), stream.report_json);
  EXPECT_EQ(batch_deltas, stream.delta_jsonl);
  EXPECT_EQ(observations.alerts.size(), stream.alerts);
  ASSERT_GE(observations.deltas.size(), 10u);  // the run exercises windows
  EXPECT_GT(stream.alerts, 0u);  // and the drift detector fires streaming
}

// Every registered target, epochs and delta windows on. The workload's
// 10 us packet spacing divides the 1 ms epoch, so packets land exactly on
// epoch boundaries — the straddle case the seeded bug mis-measures.
struct TargetRun {
  std::string report_json;
  std::string delta_jsonl;
  std::size_t alerts = 0;
};

monitor::MonitorOptions all_target_options() {
  monitor::MonitorOptions o;
  o.epoch_ns = 1'000'000;
  o.delta_every = 2;
  return o;
}

std::vector<net::Packet> target_packets(const std::string& name) {
  if (name == "bridge") {
    net::BridgeSpec spec;
    spec.stations = 300;
    spec.broadcast_fraction = 0.1;
    spec.packet_count = 3000;
    return net::bridge_traffic(spec);
  }
  net::ZipfSpec spec;
  spec.flow_pool = 512;
  spec.skew = 1.1;
  spec.packet_count = 3000;
  return net::zipf_traffic(spec);
}

std::string deltas_to_jsonl(const std::vector<DeltaWindow>& deltas) {
  std::string out;
  for (const DeltaWindow& w : deltas) {
    out += delta_window_to_json(w);
    out += '\n';
  }
  return out;
}

TargetRun batch_run(const std::string& name, const core::GenerationResult& gen,
                    const perf::PcvRegistry& reg,
                    const std::vector<net::Packet>& packets,
                    monitor::MonitorOptions opts) {
  monitor::MonitorEngine engine(gen.contract, reg, opts);
  RunObservations observations;
  TargetRun out;
  out.report_json = monitor::report_to_json(engine.run(
      packets, monitor::MonitorEngine::named_factory(name), nullptr,
      &observations));
  out.delta_jsonl = deltas_to_jsonl(observations.deltas);
  out.alerts = observations.alerts.size();
  return out;
}

/// The stream fed in chunks of 500 views at `threads` (0 = one view per
/// feed()).
TargetRun stream_run(const std::string& name,
                     const core::GenerationResult& gen,
                     const perf::PcvRegistry& reg,
                     const std::vector<net::Packet>& packets,
                     monitor::MonitorOptions opts, std::size_t threads = 0) {
  std::vector<DeltaWindow> deltas;
  opts.threads = threads;
  monitor::StreamMonitor sm(gen.contract, reg,
                            monitor::MonitorEngine::named_factory(name), opts,
                            {}, [&](const monitor::ClosedWindow& cw) {
                              if (cw.has_delta) deltas.push_back(cw.delta);
                            });
  feed_chunks(sm, packets, threads == 0 ? 1 : 500);
  const monitor::StreamResult res = sm.finish();
  TargetRun out;
  out.report_json = monitor::report_to_json(res.report);
  out.delta_jsonl = deltas_to_jsonl(deltas);
  out.alerts = res.observations.alerts.size();
  return out;
}

class StreamVsBatch : public ::testing::TestWithParam<std::string> {};

TEST_P(StreamVsBatch, MatchesBatchByteForByte) {
  const std::string name = GetParam();
  perf::PcvRegistry reg;
  core::NfTarget target;
  ASSERT_TRUE(core::make_named_target(name, reg, target));
  core::ContractGenerator g(reg);
  const core::GenerationResult gen = g.generate(target.analysis());
  const std::vector<net::Packet> packets = target_packets(name);
  const monitor::MonitorOptions opts = all_target_options();

  const TargetRun stream = stream_run(name, gen, reg, packets, opts);
  EXPECT_FALSE(stream.delta_jsonl.empty());
  for (const std::size_t threads :
       {std::size_t(1), std::size_t(2), std::size_t(4)}) {
    monitor::MonitorOptions batch_opts = opts;
    batch_opts.threads = threads;
    const TargetRun batch = batch_run(name, gen, reg, packets, batch_opts);
    EXPECT_EQ(batch.report_json, stream.report_json) << "threads=" << threads;
    EXPECT_EQ(batch.delta_jsonl, stream.delta_jsonl) << "threads=" << threads;
    EXPECT_EQ(batch.alerts, stream.alerts) << "threads=" << threads;
    const TargetRun chunked = stream_run(name, gen, reg, packets, opts, threads);
    EXPECT_EQ(chunked.report_json, stream.report_json) << "threads=" << threads;
    EXPECT_EQ(chunked.delta_jsonl, stream.delta_jsonl) << "threads=" << threads;
    EXPECT_EQ(chunked.alerts, stream.alerts) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTargets, StreamVsBatch, ::testing::ValuesIn(core::named_targets()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string id = info.param;
      for (char& c : id) {
        if (c == '+' || c == '-') c = '_';
      }
      return id;
    });

TEST(StreamVsBatch, StraddleBugLeaksIdenticallyOnBothPaths) {
  perf::PcvRegistry reg;
  core::NfTarget target;
  ASSERT_TRUE(core::make_named_target("nat", reg, target));
  core::ContractGenerator g(reg);
  const core::GenerationResult gen = g.generate(target.analysis());
  const std::vector<net::Packet> packets = target_packets("nat");
  monitor::MonitorOptions buggy = all_target_options();
  buggy.inject_straddle_bug = true;

  const TargetRun stream = stream_run("nat", gen, reg, packets, buggy);
  const TargetRun clean =
      stream_run("nat", gen, reg, packets, all_target_options());
  EXPECT_NE(stream.report_json, clean.report_json);  // the bug did leak
  for (const std::size_t threads : {std::size_t(1), std::size_t(4)}) {
    buggy.threads = threads;
    const TargetRun batch = batch_run("nat", gen, reg, packets, buggy);
    EXPECT_EQ(batch.report_json, stream.report_json) << "threads=" << threads;
    EXPECT_EQ(batch.delta_jsonl, stream.delta_jsonl) << "threads=" << threads;
  }
}

TEST(StreamMonitor, IdleFlushIsProvisionalAndDoesNotPerturbTheRun) {
  const StreamRun plain = run_stream(drift_packets(), {});
  const StreamRun flushed = run_stream(drift_packets(), {},
                                       /*idle_flush_every=*/97);
  EXPECT_GT(flushed.provisional_emits, 0u);
  EXPECT_EQ(plain.report_json, flushed.report_json);
  EXPECT_EQ(plain.delta_jsonl, flushed.delta_jsonl);
  EXPECT_EQ(plain.window_partials, flushed.window_partials);
  EXPECT_EQ(plain.final_partial, flushed.final_partial);
}

TEST(StreamMonitor, ChunkBoundariesAndThreadsNeverChangeBytes) {
  // The daemon fed in chunks, at 1 and 4 threads, against the one-thread
  // run fed one packet at a time. Drift windows are 200 packets long, so a
  // chunk of 1000 breaks at window edges and 63/64/65 break inside
  // windows. One packet is moved back two windows: it is clamped into the
  // open window and counted late, the same way on every path.
  std::vector<net::Packet> packets = drift_packets();
  packets[450].set_timestamp_ns(packets[10].timestamp_ns());
  const StreamRun want = run_stream_chunked(packets, {}, 1, 1);
  const std::string want_merged = merge_runs({want});
  ASSERT_GE(want.window_partials.size(), 10u);
  EXPECT_NE(std::find_if(want.window_partials.begin(),
                         want.window_partials.end(),
                         [](const std::string& s) {
                           return s.find("\"late_packets\":1") !=
                                  std::string::npos;
                         }),
            want.window_partials.end());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
          std::size_t{1000}, packets.size()}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " chunk=" + std::to_string(chunk));
      const StreamRun got = run_stream_chunked(packets, {}, threads, chunk);
      EXPECT_EQ(got.report_json, want.report_json);
      EXPECT_EQ(got.delta_jsonl, want.delta_jsonl);
      EXPECT_EQ(got.window_partials, want.window_partials);
      EXPECT_EQ(got.final_partial, want.final_partial);
      EXPECT_EQ(merge_runs({got}), want_merged);
    }
  }
}

TEST(StreamMonitor, IdleFlushWithChunksInFlightStaysProvisional) {
  const StreamRun plain = run_stream(drift_packets(), {});
  const StreamRun flushed =
      run_stream_chunked(drift_packets(), {}, 4, 97, /*idle_flush_every=*/3);
  EXPECT_GT(flushed.provisional_emits, 0u);
  EXPECT_EQ(plain.report_json, flushed.report_json);
  EXPECT_EQ(plain.delta_jsonl, flushed.delta_jsonl);
  EXPECT_EQ(plain.window_partials, flushed.window_partials);
  EXPECT_EQ(plain.final_partial, flushed.final_partial);
}

TEST(StreamMonitor, OneViewFeedStepsOnTheCallingThread) {
  // Every partition's runner is built by the thread that steps it first;
  // fed one view at a time, that is always the caller, at any thread count.
  RouterFixture& f = router();
  monitor::MonitorOptions opts = stream_options();
  opts.threads = 4;
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t built = 0;
  bool elsewhere = false;
  const auto named = monitor::MonitorEngine::named_factory("router");
  const monitor::MonitorEngine::TargetFactory factory =
      [&](perf::PcvRegistry& reg) {
        ++built;
        elsewhere = elsewhere || std::this_thread::get_id() != caller;
        return named(reg);
      };
  monitor::StreamMonitor sm(f.gen.contract, f.reg, factory, opts);
  for (const net::Packet& p : drift_packets()) sm.feed(p);
  EXPECT_EQ(built, opts.partitions);  // every partition saw traffic
  sm.finish();
  EXPECT_FALSE(elsewhere);
}

TEST(StreamMonitor, DeltaStreamIsOneCompleteJsonObjectPerLine) {
  const StreamRun stream = run_stream(drift_packets(), {});
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < stream.delta_jsonl.size()) {
    const std::size_t end = stream.delta_jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);  // every line newline-terminated
    const std::string line = stream.delta_jsonl.substr(start, end - start);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    // Balanced braces outside strings: the line is a whole JSON object,
    // never a torn prefix — what a tail -f of --delta-out relies on.
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (in_string) {
        if (c == '\\') ++i;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}') {
        --depth;
        EXPECT_GE(depth, 0);
      }
    }
    EXPECT_EQ(depth, 0) << line;
    start = end + 1;
    ++lines;
  }
  EXPECT_GE(lines, 10u);
}

// ---------------------------------------------------------------------------
// Fleet splits + merge.

TEST(Fleet, RandomSplitsMergeByteForByte) {
  const StreamRun single = run_stream(drift_packets(), {});
  std::mt19937_64 rng(0xB017'F1EE7u);
  for (const std::uint32_t instances : {2u, 5u, 8u}) {
    // Random partition -> instance ownership, shared by the whole fleet.
    monitor::FleetOptions base;
    base.instances = instances;
    base.owners.resize(stream_options().partitions);
    for (auto& o : base.owners) {
      o = static_cast<std::uint32_t>(rng() % instances);
    }
    std::vector<std::string> window_files;
    std::vector<std::string> final_files;
    for (std::uint32_t i = 0; i < instances; ++i) {
      monitor::FleetOptions fleet = base;
      fleet.instance = i;
      const StreamRun run = run_stream(drift_packets(), fleet);
      window_files.insert(window_files.end(), run.window_partials.begin(),
                          run.window_partials.end());
      final_files.push_back(run.final_partial);
    }
    // A retried upload: one duplicated window partial, verbatim.
    ASSERT_FALSE(window_files.empty());
    window_files.push_back(window_files[rng() % window_files.size()]);
    // Merge order must not matter.
    std::shuffle(window_files.begin(), window_files.end(), rng);
    std::shuffle(final_files.begin(), final_files.end(), rng);

    std::vector<WindowPartial> windows;
    for (const std::string& s : window_files) {
      windows.push_back(parse_window_partial(s));
    }
    std::vector<FinalPartial> finals;
    for (const std::string& s : final_files) {
      finals.push_back(parse_final_partial(s));
    }
    const FleetMergeResult merged = merge_partials(windows, finals, {});
    std::string merged_deltas;
    for (const DeltaWindow& w : merged.observations.deltas) {
      merged_deltas += delta_window_to_json(w);
      merged_deltas += '\n';
    }
    EXPECT_EQ(single.report_json, monitor::report_to_json(merged.report))
        << "instances=" << instances;
    EXPECT_EQ(single.delta_jsonl, merged_deltas) << "instances=" << instances;
    EXPECT_EQ(single.alerts, merged.observations.alerts.size());
  }
}

TEST(Fleet, ThreadedInstancesMergeToTheSingleRun) {
  // 2- and 4-instance fleets, each instance fed in chunks at 4 threads
  // (so each runs as many workers as it owns partitions), merge to the
  // single one-thread run.
  const std::string want = merge_runs({run_stream(drift_packets(), {})});
  for (const std::uint32_t instances : {2u, 4u}) {
    std::vector<StreamRun> runs;
    for (std::uint32_t i = 0; i < instances; ++i) {
      monitor::FleetOptions fleet;
      fleet.instance = i;
      fleet.instances = instances;
      runs.push_back(run_stream_chunked(drift_packets(), fleet, 4, 300));
    }
    EXPECT_EQ(merge_runs(runs), want) << "instances=" << instances;
  }
}

TEST(Fleet, SubsetOfFinalsStillMerges) {
  // An instance drained early (no final partial) must not sink the merge:
  // stream length is the max over the finals that did land.
  monitor::FleetOptions f0;
  f0.instances = 2;
  f0.instance = 0;
  monitor::FleetOptions f1 = f0;
  f1.instance = 1;
  const StreamRun a = run_stream(drift_packets(), f0);
  const StreamRun b = run_stream(drift_packets(), f1);
  std::vector<WindowPartial> windows;
  for (const std::string& s : a.window_partials) {
    windows.push_back(parse_window_partial(s));
  }
  for (const std::string& s : b.window_partials) {
    windows.push_back(parse_window_partial(s));
  }
  std::vector<FinalPartial> finals;
  finals.push_back(parse_final_partial(a.final_partial));
  const FleetMergeResult merged = merge_partials(windows, finals, {});
  // Every window landed, so the per-class totals still cover the whole
  // stream; only instance 1's resident-state count is missing.
  EXPECT_EQ(merged.report.attributed + merged.report.unattributed,
            drift_packets().size());
}

TEST(Fleet, MissingFinalsNamesEveryInstanceThatDidNotDrain) {
  // A 3-instance fleet where instance 1 failed before draining (its
  // windows spooled, no final) and instance 2 never spooled at all: the
  // merge must be refused, naming both. Complete fleets name nobody.
  std::vector<WindowPartial> windows;
  std::vector<FinalPartial> finals;
  for (std::uint32_t i = 0; i < 3; ++i) {
    monitor::FleetOptions fleet;
    fleet.instances = 3;
    fleet.instance = i;
    const StreamRun run = run_stream(drift_packets(), fleet);
    if (i == 2) continue;
    for (const std::string& s : run.window_partials) {
      windows.push_back(parse_window_partial(s));
    }
    if (i == 0) finals.push_back(parse_final_partial(run.final_partial));
  }
  EXPECT_EQ(missing_finals(windows, finals),
            (std::vector<std::uint32_t>{1, 2}));
  // Window partials alone also declare the fleet size.
  EXPECT_EQ(missing_finals(windows, {}),
            (std::vector<std::uint32_t>{0, 1, 2}));

  monitor::FleetOptions solo;
  const StreamRun run = run_stream(drift_packets(), solo);
  EXPECT_TRUE(
      missing_finals({}, {parse_final_partial(run.final_partial)}).empty());
}

// ---------------------------------------------------------------------------
// Partial schema round-trips + spool naming.

TEST(Fleet, PartialsRoundTripThroughJsonExactly) {
  monitor::FleetOptions fleet;
  fleet.instances = 3;
  fleet.instance = 2;
  const StreamRun run = run_stream(drift_packets(), fleet);
  ASSERT_FALSE(run.window_partials.empty());
  for (const std::string& s : run.window_partials) {
    EXPECT_EQ(window_partial_to_json(parse_window_partial(s)), s);
  }
  EXPECT_EQ(final_partial_to_json(parse_final_partial(run.final_partial)),
            run.final_partial);
}

TEST(FleetDeathTest, OlderSchemaPartialIsRejectedAtItsByteOffset) {
  monitor::FleetOptions fleet;
  fleet.instances = 2;
  const StreamRun run = run_stream(drift_packets(), fleet);
  ASSERT_FALSE(run.window_partials.empty());
  // A v1 partial: the same bytes under the previous schema number.
  const std::string current =
      "{\"fleet_schema\":" + std::to_string(kFleetSchemaVersion);
  const std::string v1_prefix = "{\"fleet_schema\":1";
  ASSERT_EQ(kFleetSchemaVersion, 2);
  std::string window = run.window_partials.front();
  ASSERT_EQ(window.compare(0, current.size(), current), 0);
  window.replace(0, current.size(), v1_prefix);
  std::string final_partial = run.final_partial;
  final_partial.replace(0, current.size(), v1_prefix);
  // The reader stops right after the version number it refuses.
  const std::string where =
      "unsupported fleet partial schema v1 at byte " +
      std::to_string(v1_prefix.size());
  EXPECT_DEATH(parse_window_partial(window), where);
  EXPECT_DEATH(parse_final_partial(final_partial), where);
}

TEST(Fleet, SpoolReaderPicksUpExactlyItsOwnFiles) {
  const std::string dir = testing::TempDir() + "bolt_spool_test";
  ASSERT_EQ(::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'")
                         .c_str()),
            0);
  monitor::FleetOptions fleet;
  fleet.instances = 2;
  const StreamRun run = run_stream(drift_packets(), fleet);
  ASSERT_GE(run.window_partials.size(), 2u);
  const WindowPartial w0 = parse_window_partial(run.window_partials[0]);
  const WindowPartial w1 = parse_window_partial(run.window_partials[1]);
  ASSERT_TRUE(support::write_file(
      spool_window_path(dir, "router", 0, w0.window),
      run.window_partials[0]));
  ASSERT_TRUE(support::write_file(
      spool_window_path(dir, "router", 0, w1.window),
      run.window_partials[1]));
  ASSERT_TRUE(support::write_file(spool_final_path(dir, "router", 0),
                                  run.final_partial));
  // Foreign files the reader must ignore: another nf, non-json noise.
  ASSERT_TRUE(support::write_file(dir + "/nat.i0.w3.json", "not parsed"));
  ASSERT_TRUE(support::write_file(dir + "/README", "not a partial"));
  std::vector<WindowPartial> windows;
  std::vector<FinalPartial> finals;
  read_spool(dir, "router", &windows, &finals);
  EXPECT_EQ(windows.size(), 2u);
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_EQ(final_partial_to_json(finals[0]), run.final_partial);
  // Missing directory: empty result, not an error.
  windows.clear();
  finals.clear();
  read_spool(dir + "/nope", "router", &windows, &finals);
  EXPECT_TRUE(windows.empty());
  EXPECT_TRUE(finals.empty());
}

// ---------------------------------------------------------------------------
// PcapTail: the --follow daemon's input contract.

TEST(PcapTail, SeesRecordsAppendedAcrossTornWrites) {
  net::ZipfSpec spec;
  spec.packet_count = 500;
  const std::vector<net::Packet> packets = net::zipf_traffic(spec);
  const std::vector<std::uint8_t> bytes = net::serialize_pcap(packets);
  const std::string path = testing::TempDir() + "bolt_tail_test.pcap";
  std::remove(path.c_str());

  net::PcapTail tail(path);
  EXPECT_TRUE(tail.poll().empty());  // file does not exist yet
  EXPECT_FALSE(tail.header_seen());

  // Append in chunks whose boundaries tear the global header and packet
  // records; every byte must surface exactly once, in order.
  const std::size_t cuts[] = {10, 40, bytes.size() / 3,
                              2 * bytes.size() / 3 + 7, bytes.size()};
  std::vector<net::Packet> got;
  std::size_t written = 0;
  for (const std::size_t cut : cuts) {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data() + written, 1, cut - written, f);
    std::fclose(f);
    written = cut;
    const std::vector<net::Packet> chunk = tail.poll();
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  EXPECT_TRUE(tail.header_seen());
  EXPECT_TRUE(tail.poll().empty());  // drained
  ASSERT_EQ(got.size(), packets.size());
  EXPECT_EQ(net::serialize_pcap(got), bytes);
  std::remove(path.c_str());
}

TEST(PcapTail, StreamFedFromWindowViewsEqualsBatchPackets) {
  // 35,200 drift packets are about 3.5 MB of records: the tail hands them
  // out over seven reads of its 512 KiB window, and each view must stay valid
  // until the monitor has stepped it.
  net::DriftSpec spec;
  spec.packets_per_window = 3'200;
  const std::vector<net::Packet> traffic = net::drift_traffic(spec);
  const std::vector<std::uint8_t> bytes = net::serialize_pcap(traffic);
  ASSERT_GT(bytes.size(), std::size_t{3} << 20);
  const std::string path = testing::TempDir() + "bolt_tail_stream.pcap";
  net::write_pcap(path, traffic);
  const std::vector<net::Packet> batch = net::parse_pcap(bytes);
  auto tailed = [&](const PacketFeed& feed) {
    net::PcapTail tail(path);
    std::size_t polls = 0;
    for (auto views = tail.poll_views(); !views.empty();
         views = tail.poll_views()) {
      ++polls;
      for (const net::PacketView& v : views) feed(v);
    }
    tail.finish();
    EXPECT_GE(polls, 4u);
  };
  for (const std::uint32_t instances : {1u, 2u}) {
    for (std::uint32_t instance = 0; instance < instances; ++instance) {
      SCOPED_TRACE(std::to_string(instance) + "/" + std::to_string(instances));
      monitor::FleetOptions fleet;
      fleet.instance = instance;
      fleet.instances = instances;
      const StreamRun want = run_stream(batch, fleet);
      const StreamRun got = run_stream_from(tailed, fleet);
      EXPECT_EQ(got.report_json, want.report_json);
      EXPECT_EQ(got.delta_jsonl, want.delta_jsonl);
      EXPECT_EQ(got.window_partials, want.window_partials);
      EXPECT_EQ(got.final_partial, want.final_partial);
    }
  }

  // The batch engine, one window per chunk, against one run over the
  // parsed packets.
  RouterFixture& f = router();
  const monitor::MonitorEngine engine(f.gen.contract, f.reg, stream_options());
  const auto factory = monitor::MonitorEngine::named_factory("router");
  auto render = [](const monitor::MonitorReport& report,
                   const RunObservations& observations) {
    std::string out = monitor::report_to_json(report) + "\n";
    for (const DeltaWindow& w : observations.deltas) {
      out += delta_window_to_json(w) + "\n";
    }
    return out;
  };
  RunObservations want_obs;
  const monitor::MonitorReport want =
      engine.run(batch, factory, nullptr, &want_obs);
  ASSERT_EQ(want.packets, traffic.size());
  net::PcapTail tail(path, monitor::MonitorEngine::kChunksInFlight);
  std::size_t chunks = 0;
  RunObservations got_obs;
  const monitor::MonitorReport got = engine.run(
      [&] {
        const auto views = tail.poll_views();
        if (views.empty()) tail.finish();
        chunks += views.empty() ? 0 : 1;
        return views;
      },
      factory, nullptr, &got_obs);
  EXPECT_GE(chunks, 4u);
  EXPECT_EQ(render(got, got_obs), render(want, want_obs));
  EXPECT_EQ(got_obs.alerts.size(), want_obs.alerts.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bolt::obs
