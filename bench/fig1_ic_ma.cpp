// Reproduces Figure 1: accuracy of performance contracts for all fourteen
// (NF, packet-class) scenarios, in instruction count (IC) and memory access
// count (MA). The paper reports a maximum over-estimation of 7.5% (IC) and
// 7.6% (MA) for typical classes, and 2.36% / 3.03% for the pathological
// *1 classes.
//
// The reproduction is also a check: it exits 1 if any scenario's IC or MA
// over-estimation is negative (the contract under-predicts, so it is
// unsound), or if the worst typical or pathological over-estimation
// exceeds the paper's figure.
//
// Usage: fig1_ic_ma [--no-coalesce]
//   --no-coalesce   ablation: keep one contract entry per path (tighter,
//                   less legible), showing the cost of coalescing.
#include <cstdio>
#include <cstring>
#include <string>

#include "core/experiments.h"
#include "support/bench.h"
#include "support/strings.h"

using namespace bolt;

namespace {

/// The paper's maximum over-estimations (Figure 1), in percent.
constexpr double kPaperTypicalIcPct = 7.5;
constexpr double kPaperTypicalMaPct = 7.6;
constexpr double kPaperPathoIcPct = 2.36;
constexpr double kPaperPathoMaPct = 3.03;

}  // namespace

int main(int argc, char** argv) {
  core::BoltOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-coalesce") == 0) options.coalesce = false;
  }

  std::printf("Figure 1 — contract accuracy, IC and MA, all scenarios\n");
  std::printf("(coalescing %s)\n\n", options.coalesce ? "on" : "off — ablation");

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Scenario", "Predicted IC", "Measured IC", "IC over",
                  "Predicted MA", "Measured MA", "MA over", "Paths"});

  double worst_ic = 0.0, worst_ma = 0.0;
  double worst_ic_patho = 0.0, worst_ma_patho = 0.0;
  std::string unsound;  // scenarios whose contract under-predicts
  // All fourteen scenarios sweep concurrently; rows come back in paper order.
  support::BenchTimer sweep_timer;
  const std::vector<core::ScenarioResult> results =
      core::run_all_scenarios(options);
  const double sweep_ms = sweep_timer.elapsed_ms();
  for (const core::ScenarioResult& r : results) {
    const std::string& id = r.id;
    char ic_over[32], ma_over[32];
    std::snprintf(ic_over, sizeof ic_over, "%+.2f%%",
                  (r.ic_overestimate() - 1.0) * 100.0);
    std::snprintf(ma_over, sizeof ma_over, "%+.2f%%",
                  (r.ma_overestimate() - 1.0) * 100.0);
    rows.push_back({r.id, support::with_commas(r.predicted_ic),
                    support::with_commas(static_cast<std::int64_t>(r.measured_ic)),
                    ic_over, support::with_commas(r.predicted_ma),
                    support::with_commas(static_cast<std::int64_t>(r.measured_ma)),
                    ma_over, std::to_string(r.total_paths)});
    const bool pathological = id == "NAT1" || id == "Br1" || id == "LB1";
    auto& wic = pathological ? worst_ic_patho : worst_ic;
    auto& wma = pathological ? worst_ma_patho : worst_ma;
    wic = std::max(wic, r.ic_overestimate() - 1.0);
    wma = std::max(wma, r.ma_overestimate() - 1.0);
    if (r.predicted_ic < static_cast<std::int64_t>(r.measured_ic) ||
        r.predicted_ma < static_cast<std::int64_t>(r.measured_ma)) {
      unsound += " " + id;
    }
  }

  std::printf("%s\n", support::render_table(rows).c_str());
  std::printf("Max over-estimation, typical classes:      IC %+.2f%%  MA %+.2f%%"
              "  (paper: 7.5%% / 7.6%%)\n",
              worst_ic * 100.0, worst_ma * 100.0);
  std::printf("Max over-estimation, pathological classes: IC %+.2f%%  MA %+.2f%%"
              "  (paper: 2.36%% / 3.03%%)\n",
              worst_ic_patho * 100.0, worst_ma_patho * 100.0);

  support::BenchReport report("fig1_ic_ma");
  report.metric("sweep_ms", sweep_ms, "ms");
  report.metric("worst_ic_over_pct", worst_ic * 100.0, "%");
  report.metric("worst_ma_over_pct", worst_ma * 100.0, "%");
  report.metric("worst_ic_over_patho_pct", worst_ic_patho * 100.0, "%");
  report.metric("worst_ma_over_patho_pct", worst_ma_patho * 100.0, "%");

  int status = 0;
  if (!unsound.empty()) {
    std::fprintf(stderr, "FAIL: negative over-estimation (unsound):%s\n",
                 unsound.c_str());
    status = 1;
  }
  const auto check = [&status](const char* what, double pct, double paper) {
    if (pct <= paper) return;
    std::fprintf(stderr, "FAIL: %s over-estimation %.2f%% exceeds the "
                 "paper's %.2f%%\n", what, pct, paper);
    status = 1;
  };
  check("typical IC", worst_ic * 100.0, kPaperTypicalIcPct);
  check("typical MA", worst_ma * 100.0, kPaperTypicalMaPct);
  check("pathological IC", worst_ic_patho * 100.0, kPaperPathoIcPct);
  check("pathological MA", worst_ma_patho * 100.0, kPaperPathoMaPct);
  return status;
}
