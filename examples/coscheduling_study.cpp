// Co-scheduling study: the paper's Section 7 direction made concrete.
//
// "Future efforts should focus on ... developing adaptive strategies
// where PanDA and Rucio share performance awareness to jointly balance
// load and data locality."  This example runs identical campaigns under
// the three brokerage policies and quantifies the trade surface:
// queuing delay and failure rate versus WAN traffic, plus where the
// transfer-time anomalies (the Fig. 9 tail) go under each policy.
//
//   ./coscheduling_study [seed]
#include <iostream>

#include "pandarus.hpp"

int main(int argc, char** argv) {
  using namespace pandarus;
  obs::install_env_hooks();

  std::uint64_t seed = 20250401;
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);

  struct PolicyRun {
    wms::BrokeragePolicy policy;
    scenario::ScenarioResult result;
    core::TriMatchResult tri;
  };
  std::vector<PolicyRun> runs;

  for (auto policy :
       {wms::BrokeragePolicy::kDataLocality, wms::BrokeragePolicy::kLoadAware,
        wms::BrokeragePolicy::kHybrid}) {
    scenario::ScenarioConfig config = scenario::ScenarioConfig::paper_scale();
    config.days = 3.0;
    config.seed = seed;
    config.brokerage.policy = policy;
    std::cout << "Running 3-day campaign under " << wms::policy_name(policy)
              << " brokerage ...\n";
    PolicyRun run{policy, scenario::run_campaign(config), {}};
    const core::Matcher matcher(run.result.store);
    run.tri = core::run_all_methods(matcher);
    runs.push_back(std::move(run));
  }
  std::cout << "\n";

  util::Table table({"Metric", "data-locality", "load-aware", "hybrid"});
  for (std::size_t c = 1; c <= 3; ++c) table.set_align(c, util::Align::kRight);

  auto add_metric = [&](const std::string& name, auto&& fn) {
    std::vector<std::string> cells{name};
    for (const auto& run : runs) cells.push_back(fn(run));
    table.add_row(std::move(cells));
  };

  add_metric("completed user jobs", [](const PolicyRun& r) {
    return util::format_count(std::uint64_t{r.result.store.jobs().size()});
  });
  add_metric("failed job share", [](const PolicyRun& r) {
    std::size_t failed = 0;
    for (const auto& j : r.result.store.jobs()) failed += j.failed;
    return util::format_percent(
        r.result.store.jobs().empty()
            ? 0.0
            : static_cast<double>(failed) /
                  static_cast<double>(r.result.store.jobs().size()));
  });
  add_metric("median queuing time", [](const PolicyRun& r) {
    std::vector<double> q;
    for (const auto& j : r.result.store.jobs()) {
      q.push_back(static_cast<double>(j.queuing_time()));
    }
    return util::format_duration(
        static_cast<util::SimDuration>(util::Quantiles(std::move(q)).median()));
  });
  add_metric("p95 queuing time", [](const PolicyRun& r) {
    std::vector<double> q;
    for (const auto& j : r.result.store.jobs()) {
      q.push_back(static_cast<double>(j.queuing_time()));
    }
    return util::format_duration(
        static_cast<util::SimDuration>(util::Quantiles(std::move(q))(0.95)));
  });
  add_metric("job-driven WAN bytes", [](const PolicyRun& r) {
    std::uint64_t wan = 0;
    for (const auto& t : r.result.store.transfers()) {
      if (t.success && t.has_jeditaskid() && !t.is_local()) {
        wan += t.file_size;
      }
    }
    return util::format_bytes(static_cast<double>(wan));
  });
  add_metric("stage-in + prefetch transfers", [](const PolicyRun& r) {
    return util::format_count(r.result.panda.stage_in_transfers +
                              r.result.panda.prefetch_transfers);
  });
  add_metric("staging watchdog releases", [](const PolicyRun& r) {
    return util::format_count(r.result.panda.stage_timeouts);
  });
  add_metric("matched jobs >75% transfer-time", [](const PolicyRun& r) {
    const auto rows = analysis::build_breakdown(r.result.store, r.tri.exact);
    const double thresholds[] = {0.75};
    const auto sweep = analysis::run_threshold_sweep(rows, thresholds);
    const auto above = sweep.above(0.75);
    std::size_t total = 0;
    for (auto n : above) total += n;
    return util::format_count(std::uint64_t{total});
  });
  add_metric("mean transfer-time % of queue", [](const PolicyRun& r) {
    const auto rows = analysis::build_breakdown(r.result.store, r.tri.exact);
    return util::format_percent(analysis::aggregate(rows).mean_queue_fraction);
  });

  table.print(std::cout);

  std::cout <<
      "\nReading: data-locality is the network's favourite policy and the\n"
      "queue's enemy — it concentrates jobs on data-hosting sites (the\n"
      "paper's §3.1 concern).  Load-aware flattens queues but multiplies\n"
      "WAN staging.  The hybrid exposes the co-optimization dial the\n"
      "paper's Section 7 asks PanDA and Rucio to share.\n";
  return 0;
}
