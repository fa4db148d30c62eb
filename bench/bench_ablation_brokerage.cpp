// Ablation (paper §3.1/§7 co-optimization direction): how does the
// brokerage policy trade queuing time against network traffic?
//
// The paper argues that PanDA's pure data-locality heuristic can
// overload data-hosting sites ("assigning jobs to sites with local data
// can lead to heavy site-level queuing delays, whereas assigning them to
// remote sites ... may result in shorter overall queuing times") and
// calls for policies with shared performance awareness.  This bench runs
// the same campaign under the three policies and reports the trade-off.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pandarus;
  obs::install_env_hooks();
  bench::banner("Ablation - brokerage policy (data-locality vs load-aware "
                "vs hybrid)",
                "locality minimizes WAN traffic but risks hot-site "
                "queuing; the paper's co-design direction (Section 7)");

  struct Row {
    const char* name;
    wms::BrokeragePolicy policy;
  };
  const Row policies[] = {
      {"data-locality", wms::BrokeragePolicy::kDataLocality},
      {"load-aware", wms::BrokeragePolicy::kLoadAware},
      {"hybrid", wms::BrokeragePolicy::kHybrid},
  };

  util::Table table({"Policy", "Jobs", "Failed %", "Median queue",
                     "P95 queue", "Stage-in xfers", "WAN bytes",
                     "Local bytes"});
  for (std::size_t c = 1; c <= 7; ++c) table.set_align(c, util::Align::kRight);

  for (const Row& row : policies) {
    scenario::ScenarioConfig config = scenario::ScenarioConfig::paper_scale();
    config.days = 4.0;  // shorter: three campaigns in one binary
    config.seed = bench::kDefaultSeed;
    if (argc > 1) config.seed = std::strtoull(argv[1], nullptr, 10);
    config.brokerage.policy = row.policy;
    const auto result = scenario::run_campaign(config);

    std::vector<double> queue_ms;
    std::size_t failed = 0;
    for (const auto& j : result.store.jobs()) {
      queue_ms.push_back(static_cast<double>(j.queuing_time()));
      failed += j.failed;
    }
    util::Quantiles q(std::move(queue_ms));

    // WAN vs local bytes from job-driven traffic only (staging +
    // direct-io + uploads), so the policy's own effect is visible.
    std::uint64_t wan = 0;
    std::uint64_t local = 0;
    for (const auto& t : result.store.transfers()) {
      if (!t.success || !t.has_jeditaskid()) continue;
      if (t.is_local()) {
        local += t.file_size;
      } else {
        wan += t.file_size;
      }
    }

    const double failed_pct =
        result.store.jobs().empty()
            ? 0.0
            : static_cast<double>(failed) /
                  static_cast<double>(result.store.jobs().size());
    table.add_row(
        {row.name, util::format_count(std::uint64_t{result.store.jobs().size()}),
         util::format_percent(failed_pct),
         util::format_duration(static_cast<util::SimDuration>(q.median())),
         util::format_duration(static_cast<util::SimDuration>(q(0.95))),
         util::format_count(result.panda.stage_in_transfers +
                            result.panda.prefetch_transfers),
         util::format_bytes(static_cast<double>(wan)),
         util::format_bytes(static_cast<double>(local))});
  }
  table.print(std::cout);

  std::cout << "\nReading: data-locality minimizes WAN bytes; load-aware "
               "flattens queues at the cost of extra staging; hybrid sits "
               "between — the co-optimization space the paper's Section 7 "
               "targets.\n";
  return 0;
}
