// Unit tests for the grid substrate: sites, links, load model, topology
// container and the WLCG-like generator.
#include <gtest/gtest.h>

#include <cmath>

#include "grid/builder.hpp"
#include "grid/load_model.hpp"
#include "grid/topology.hpp"

namespace pandarus::grid {
namespace {

TEST(Tier, Names) {
  EXPECT_STREQ(tier_name(Tier::kT0), "Tier-0");
  EXPECT_STREQ(tier_name(Tier::kT3), "Tier-3");
}

TEST(LoadModel, UtilizationBounded) {
  LoadModel::Params params;
  params.mean_util = 0.5;
  params.diurnal_amplitude = 0.4;
  params.burst_prob = 0.5;
  params.burst_util = 0.6;
  params.seed = 7;
  LoadModel model(params);
  for (util::SimTime t = 0; t < util::days(2); t += util::minutes(7)) {
    const double u = model.utilization(t);
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, LoadModel::kMaxUtil);
    EXPECT_DOUBLE_EQ(model.available_fraction(t), 1.0 - u);
  }
}

TEST(LoadModel, DeterministicForSameSeed) {
  LoadModel::Params params;
  params.seed = 99;
  LoadModel a(params);
  LoadModel b(params);
  for (util::SimTime t = 0; t < util::hours(30); t += util::minutes(11)) {
    EXPECT_DOUBLE_EQ(a.utilization(t), b.utilization(t));
  }
}

TEST(LoadModel, DiurnalCycleVisible) {
  LoadModel::Params params;
  params.mean_util = 0.4;
  params.diurnal_amplitude = 0.3;
  params.burst_prob = 0.0;  // isolate the sine
  params.phase_hours = 0.0;
  LoadModel model(params);
  // Peak of sin at hour 6, trough at hour 18.
  EXPECT_GT(model.utilization(util::hours(6)),
            model.utilization(util::hours(18)) + 0.4);
}

TEST(LoadModel, BurstsRaiseUtilization) {
  LoadModel::Params calm;
  calm.burst_prob = 0.0;
  LoadModel::Params bursty = calm;
  bursty.burst_prob = 1.0;
  bursty.burst_util = 0.3;
  double diff = 0.0;
  for (util::SimTime t = 0; t < util::hours(10); t += util::minutes(10)) {
    diff += LoadModel(bursty).utilization(t) - LoadModel(calm).utilization(t);
  }
  EXPECT_GT(diff, 0.0);
}

TEST(Topology, AddAndLookupSites) {
  Topology topo;
  Site s;
  s.name = "TEST-T1";
  s.tier = Tier::kT1;
  const SiteId id = topo.add_site(s);
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(topo.site(id).name, "TEST-T1");
  EXPECT_EQ(topo.find_site("TEST-T1"), std::optional<SiteId>{0});
  EXPECT_EQ(topo.find_site("NOPE"), std::nullopt);
  EXPECT_EQ(topo.site_name(kUnknownSite), "UNKNOWN");
}

TEST(Topology, ExplicitLinkPreferred) {
  Topology topo;
  Site s;
  s.name = "A";
  topo.add_site(s);
  s.name = "B";
  topo.add_site(s);
  NetworkLink link;
  link.key = {0, 1};
  link.capacity_bps = 123.0;
  topo.add_link(link);
  EXPECT_TRUE(topo.has_link(0, 1));
  EXPECT_FALSE(topo.has_link(1, 0));
  EXPECT_DOUBLE_EQ(topo.link(0, 1).capacity_bps, 123.0);
}

TEST(Topology, SynthesizedLocalLinkUsesLanParams) {
  Topology topo;
  Site s;
  s.name = "A";
  s.lan_bandwidth_bps = 5e9;
  s.max_parallel_streams = 3;  // pilot limit; frontend floor is 4
  topo.add_site(s);
  const NetworkLink& local = topo.link(0, 0);
  EXPECT_DOUBLE_EQ(local.capacity_bps, 5e9);
  EXPECT_EQ(local.max_active, 4u);

  Site wide;
  wide.name = "B";
  wide.max_parallel_streams = 12;
  topo.add_site(wide);
  EXPECT_EQ(topo.link(1, 1).max_active, 12u);
}

TEST(Topology, SitesOfTierFilters) {
  Topology topo;
  for (Tier tier : {Tier::kT0, Tier::kT1, Tier::kT1, Tier::kT2}) {
    Site s;
    s.name = "s" + std::to_string(topo.site_count());
    s.tier = tier;
    topo.add_site(s);
  }
  EXPECT_EQ(topo.sites_of_tier(Tier::kT1).size(), 2u);
  EXPECT_EQ(topo.sites_of_tier(Tier::kT3).size(), 0u);
}

TEST(Builder, ProducesRequestedShape) {
  TopologyParams params;
  params.n_tier1 = 5;
  params.n_tier2 = 12;
  params.n_tier3 = 3;
  const Topology topo = build_wlcg_like(params);
  EXPECT_EQ(topo.site_count(), 1u + 5 + 12 + 3);
  EXPECT_EQ(topo.sites_of_tier(Tier::kT0).size(), 1u);
  EXPECT_EQ(topo.sites_of_tier(Tier::kT1).size(), 5u);
  EXPECT_EQ(topo.sites_of_tier(Tier::kT2).size(), 12u);
  EXPECT_EQ(topo.sites_of_tier(Tier::kT3).size(), 3u);
  // Full directional link mesh including the diagonal.
  EXPECT_EQ(topo.link_count(), topo.site_count() * topo.site_count());
}

TEST(Builder, DeterministicForSeed) {
  TopologyParams params;
  params.seed = 1234;
  const Topology a = build_wlcg_like(params);
  const Topology b = build_wlcg_like(params);
  ASSERT_EQ(a.site_count(), b.site_count());
  for (SiteId i = 0; i < a.site_count(); ++i) {
    EXPECT_EQ(a.site(i).name, b.site(i).name);
    EXPECT_EQ(a.site(i).cpu_slots, b.site(i).cpu_slots);
    EXPECT_DOUBLE_EQ(a.site(i).lan_bandwidth_bps, b.site(i).lan_bandwidth_bps);
  }
  EXPECT_DOUBLE_EQ(a.link(0, 1).capacity_bps, b.link(0, 1).capacity_bps);
}

TEST(Builder, TierCapacityOrdering) {
  TopologyParams params;
  const Topology topo = build_wlcg_like(params);
  const SiteId t0 = topo.sites_of_tier(Tier::kT0).front();
  // T0 has the most slots and fattest LAN.
  for (const Site& s : topo.sites()) {
    if (s.id == t0) continue;
    EXPECT_GE(topo.site(t0).cpu_slots, s.cpu_slots);
  }
}

TEST(Builder, PathologicalSitesExist) {
  TopologyParams params;
  params.sequential_site_fraction = 0.5;
  params.congested_site_fraction = 0.5;
  const Topology topo = build_wlcg_like(params);
  std::size_t sequential = 0;
  for (const Site& s : topo.sites()) {
    if (s.max_parallel_streams == 1) ++sequential;
  }
  EXPECT_GT(sequential, 0u);
  EXPECT_LT(sequential, topo.site_count());
}

TEST(Builder, AsymmetricDirectionalLinks) {
  TopologyParams params;
  const Topology topo = build_wlcg_like(params);
  // Opposite directions of a pair are independent draws; at least one
  // pair should differ (Fig. 7's asymmetric usage needs this).
  bool any_asymmetric = false;
  for (SiteId i = 1; i < 6 && !any_asymmetric; ++i) {
    for (SiteId j = i + 1; j < 8; ++j) {
      if (std::abs(topo.link(i, j).capacity_bps -
                   topo.link(j, i).capacity_bps) > 1.0) {
        any_asymmetric = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_asymmetric);
}

TEST(Link, EffectiveCapacityReflectsLoad) {
  NetworkLink link;
  link.capacity_bps = 1e9;
  LoadModel::Params load;
  load.mean_util = 0.5;
  load.diurnal_amplitude = 0.0;
  load.burst_prob = 0.0;
  link.load = LoadModel(load);
  EXPECT_NEAR(link.effective_capacity(0), 0.5e9, 1e3);
}

}  // namespace
}  // namespace pandarus::grid
