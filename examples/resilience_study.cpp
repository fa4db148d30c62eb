// Resilience study: how does degraded transfer infrastructure propagate
// into job outcomes and error distributions?
//
// The paper's abstract: uncoordinated operation yields "underutilized
// resources, redundant or unnecessary transfers, and altered error
// distributions", and §3.2 asks for "strategies for system improvement"
// against network/storage hot-spot vulnerability.  This example degrades
// the transfer substrate in steps (failure and stall injection up,
// registration reliability down) and measures, per step:
//   * job failure rate and the error-code mix (the "altered error
//     distributions" — quantified with the L1 error_shift metric),
//   * staging watchdog releases (transfers overrunning into execution),
//   * anomaly-detector flags and redundancy waste.
//
//   ./resilience_study [seed]
#include <iostream>

#include "pandarus.hpp"

int main(int argc, char** argv) {
  using namespace pandarus;
  obs::install_env_hooks();

  std::uint64_t seed = 20250401;
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);

  struct Step {
    const char* name;
    double degradation;  // scales failure/stall probabilities
  };
  const Step steps[] = {
      {"healthy", 0.25}, {"baseline", 1.0}, {"degraded", 3.0},
      {"crisis", 8.0},
  };

  struct Row {
    std::string name;
    double job_failure_rate = 0.0;
    std::uint64_t watchdog_releases = 0;
    std::uint64_t transfer_failures = 0;
    double anomaly_flag_rate = 0.0;
    std::uint64_t redundant_deliveries = 0;
    analysis::ErrorDistribution errors;
  };
  std::vector<Row> rows;

  for (const Step& step : steps) {
    scenario::ScenarioConfig config = scenario::ScenarioConfig::paper_scale();
    config.days = 2.0;
    config.seed = seed;
    config.transfer.failure_prob =
        std::min(0.9, config.transfer.failure_prob * step.degradation);
    config.transfer.stall_prob =
        std::min(0.9, config.transfer.stall_prob * step.degradation);
    config.transfer.registration_failure_prob = std::min(
        0.9, config.transfer.registration_failure_prob * step.degradation);

    std::cout << "Running '" << step.name << "' (degradation x"
              << step.degradation << ") ...\n";
    const auto result = scenario::run_campaign(config);
    const core::Matcher matcher(result.store);
    const auto rm2 = matcher.run(core::MatchOptions::rm2());
    const auto report = core::AnomalyDetector().scan(result.store, rm2);
    const auto redundancy =
        core::scan_global_redundancy(result.store, util::hours(6));

    Row row;
    row.name = step.name;
    std::size_t failed = 0;
    for (const auto& j : result.store.jobs()) failed += j.failed;
    row.job_failure_rate =
        result.store.jobs().empty()
            ? 0.0
            : static_cast<double>(failed) /
                  static_cast<double>(result.store.jobs().size());
    row.watchdog_releases = result.panda.stage_timeouts;
    row.transfer_failures = result.transfers.failed;
    row.anomaly_flag_rate =
        report.jobs_scanned > 0
            ? static_cast<double>(report.jobs_flagged) /
                  static_cast<double>(report.jobs_scanned)
            : 0.0;
    row.redundant_deliveries = redundancy.redundant_transfers;
    row.errors = analysis::error_distribution(result.store);
    rows.push_back(std::move(row));
  }

  std::cout << "\n";
  util::Table table({"Scenario", "Job failure", "Watchdog rel.",
                     "Xfer failures", "Anomaly flags", "Redundant dlv.",
                     "Error shift vs baseline"});
  for (std::size_t c = 1; c <= 6; ++c) table.set_align(c, util::Align::kRight);
  const analysis::ErrorDistribution& baseline = rows[1].errors;
  for (const Row& row : rows) {
    table.add_row({row.name, util::format_percent(row.job_failure_rate),
                   util::format_count(row.watchdog_releases),
                   util::format_count(row.transfer_failures),
                   util::format_percent(row.anomaly_flag_rate),
                   util::format_count(row.redundant_deliveries),
                   util::format_fixed(
                       analysis::error_shift(row.errors, baseline), 3)});
  }
  table.print(std::cout);

  std::cout << "\nError-code mix per scenario (share of failed jobs):\n";
  for (const Row& row : rows) {
    std::cout << "  " << row.name << ":";
    for (const auto& [code, count] : row.errors.by_code) {
      std::cout << "  " << code << "="
                << util::format_percent(row.errors.share(code), 0);
    }
    std::cout << "\n";
  }

  std::cout <<
      "\nReading: transfer-layer degradation surfaces as *compute-layer*\n"
      "failures — the error mix shifts from generic execution errors\n"
      "toward staging/overlay/heartbeat classes, watchdog releases and\n"
      "redundant deliveries climb, and the anomaly detector's flag rate\n"
      "tracks the degradation level.  This is the paper's §3.1 warning\n"
      "('shifting failure patterns from the network to the compute\n"
      "infrastructure') as a controlled experiment.\n";
  return 0;
}
