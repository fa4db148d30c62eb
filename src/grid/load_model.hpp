// Background-load model for network links.
//
// The paper's Figs. 7/8 show strongly fluctuating effective bandwidth at
// both remote links and local sites: diurnal swings plus transient
// congestion bursts.  We model background utilization as
//
//   u(t) = clamp(mean + amplitude * sin(2*pi*(hour(t) + phase)/24)
//                + burst(t), 0, kMaxUtil)
//
// where burst(t) is a deterministic hash-driven square pulse per
// 10-minute time bin.  The model is stateless: utilization at any time
// is a pure function of (params, t), which keeps the transfer engine's
// rate re-evaluation cheap and the simulation reproducible.
#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace pandarus::grid {

class LoadModel {
 public:
  struct Params {
    double mean_util = 0.3;       ///< long-run average utilization
    double diurnal_amplitude = 0.2;
    double phase_hours = 0.0;     ///< per-link phase shift
    double burst_prob = 0.15;     ///< probability a bin is congested
    double burst_util = 0.45;     ///< extra utilization during a burst
    std::uint64_t seed = 0;       ///< per-link stream
  };

  /// Utilization ceiling: never fully starve a link.
  static constexpr double kMaxUtil = 0.95;

  LoadModel() = default;
  explicit LoadModel(const Params& params) : params_(params) {}

  /// Background utilization in [0, kMaxUtil] at simulation time t.
  [[nodiscard]] double utilization(util::SimTime t) const noexcept;

  /// Fraction of nominal capacity available to foreground transfers.
  [[nodiscard]] double available_fraction(util::SimTime t) const noexcept {
    return 1.0 - utilization(t);
  }

 private:
  Params params_;
};

}  // namespace pandarus::grid
