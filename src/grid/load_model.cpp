#include "grid/load_model.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/rng.hpp"

namespace pandarus::grid {
namespace {

/// Width of the time bins that are each congested or not.
constexpr util::SimDuration kBurstBin = util::minutes(10);

}  // namespace

double LoadModel::utilization(util::SimTime t) const noexcept {
  const double hour = util::to_hours(t);
  double u = params_.mean_util +
             params_.diurnal_amplitude *
                 std::sin(2.0 * std::numbers::pi *
                          (hour + params_.phase_hours) / 24.0);

  // Deterministic burst: hash the (link seed, time bin) pair; a bin is
  // congested when the hash falls below burst_prob.
  if (params_.burst_prob > 0.0) {
    const auto bin = static_cast<std::uint64_t>(t >= 0 ? t / kBurstBin : 0);
    const std::uint64_t h = util::hash_mix(params_.seed, bin, 0x9d2c5680u);
    if (util::hash_unit(h) < params_.burst_prob) {
      // Burst intensity also derives from the hash so repeated bins vary.
      const double intensity = util::hash_unit(util::hash_mix(h, bin + 1));
      u += params_.burst_util * (0.5 + 0.5 * intensity);
    }
  }
  return std::clamp(u, 0.0, kMaxUtil);
}

}  // namespace pandarus::grid
