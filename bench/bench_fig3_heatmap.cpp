// Figure 3: site-to-site transfer-volume heatmap over a long window.
//
// Paper (92 days, 05-07/2025): 957.98 PB total, 737.85 PB local
// (diagonal), per-pair mean 77.75 TB vs geometric mean 1.11 TB, outlier
// cells above 30 PB at T0/T1 diagonals, and an "unknown" pseudo-site
// absorbing transfers with unidentified endpoints (42.4 PB CERN->unknown).
#include <fstream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pandarus;
  obs::install_env_hooks();
  bench::banner(
      "Fig. 3 - file-transfer pattern among computing sites",
      "957.98 PB total, 77% local; mean 77.75 TB vs geomean 1.11 TB per "
      "pair; >30 PB diagonal outliers; CERN->unknown outlier");

  // The heatmap uses the longer, heavier campaign.
  scenario::ScenarioConfig config = scenario::ScenarioConfig::heatmap_campaign();
  config.seed = bench::kDefaultSeed;
  if (argc > 1) config.seed = std::strtoull(argv[1], nullptr, 10);
  const auto result = scenario::run_campaign(config);

  const analysis::TransferHeatmap heatmap(result.store, result.topology);
  const auto s = heatmap.summary();

  std::cout << "Observation window: " << config.days << " days, "
            << s.active_sites << " active sites (incl. the 'unknown' "
            << "pseudo-site)\n\n";

  util::Table summary({"Quantity", "Measured", "Paper (92d, full ATLAS)"});
  summary.set_align(1, util::Align::kRight);
  summary.set_align(2, util::Align::kRight);
  summary.add_row({"Total transferred volume",
                   util::format_bytes(s.total_bytes), "957.98 PB"});
  summary.add_row({"Local (diagonal) volume",
                   util::format_bytes(s.local_bytes), "737.85 PB"});
  summary.add_row({"Local fraction", util::format_percent(s.local_fraction()),
                   "77.0%"});
  summary.add_row({"Mean per site pair",
                   util::format_bytes(s.mean_pair_bytes), "77.75 TB"});
  summary.add_row({"Geometric mean (nonzero pairs)",
                   util::format_bytes(s.geomean_pair_bytes), "1.11 TB"});
  summary.add_row({"Mean / geomean (imbalance)",
                   util::format_fixed(s.mean_pair_bytes /
                                          std::max(s.geomean_pair_bytes, 1.0),
                                      1),
                   "70.0"});
  summary.add_row({"Volume with unknown endpoint",
                   util::format_bytes(s.unknown_bytes), "> 42.4 PB"});
  summary.print(std::cout);

  std::cout << "\nTop 10 cells (paper's outliers are T0/T1 diagonals plus "
               "CERN->unknown):\n";
  util::Table top({"Rank", "Source", "Destination", "Volume", "Kind"});
  top.set_align(3, util::Align::kRight);
  int rank = 1;
  for (const auto& cell : heatmap.top_cells(10)) {
    top.add_row({std::to_string(rank++), cell.src_name, cell.dst_name,
                 util::format_bytes(cell.bytes),
                 cell.local ? "local (diagonal)" : "remote"});
  }
  top.print(std::cout);

  std::ofstream csv("fig3_heatmap.csv");
  if (csv) {
    heatmap.write_csv(csv);
    std::cout << "\nFull matrix written to fig3_heatmap.csv\n";
  }
  std::cout << "\n" << heatmap.to_ascii(40) << "\n";
  return 0;
}
