// Transfer engine: the FTS-like machinery beneath Rucio (paper §2.2,
// step 3 of the transfer workflow).
//
// Each directional link admits at most `max_active` concurrent transfers
// (the rest queue); active transfers share the link's effective capacity
// equally, capped by a per-stream protocol limit.  Rates are
// re-evaluated whenever link membership changes and periodically while
// transfers are active, so the diurnal/bursty background load of the
// LoadModel shows up as the bandwidth fluctuation of Figs. 7/8.
//
// Failure injection reproduces the paper's pathologies:
//  * stalls   — a transfer crawls at a small fraction of its fair share
//               (the 17.7x / 20x throughput spreads of Figs. 10/11);
//  * failures — the transfer aborts and is retried up to max_attempts;
//  * registration failures — the transfer completes but the new replica
//               is never registered, so later jobs re-stage the same
//               files (the redundant-transfer pattern of Fig. 12).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include <optional>

#include "dms/catalog.hpp"
#include "dms/did.hpp"
#include "dms/selector.hpp"
#include "fault/injector.hpp"
#include "grid/topology.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace pandarus::dms {

struct TransferRequest {
  FileId file = 0;
  std::uint64_t size_bytes = 0;
  grid::SiteId src = grid::kUnknownSite;
  grid::SiteId dst = grid::kUnknownSite;
  RseId dst_rse = kNoRse;  ///< replica registered here on success
  Activity activity = Activity::kDataRebalance;
  std::int64_t jeditaskid = -1;  ///< -1: no task provenance
  std::int64_t pandaid = -1;     ///< internal provenance; never exposed to matching
  /// Invoked at completion (success or terminal failure) before the
  /// engine-wide sink.
  std::function<void(const struct TransferOutcome&)> on_complete;
};

struct TransferOutcome {
  std::uint64_t transfer_id = 0;
  FileId file = 0;
  std::uint64_t size_bytes = 0;
  grid::SiteId src = grid::kUnknownSite;
  grid::SiteId dst = grid::kUnknownSite;
  Activity activity = Activity::kDataRebalance;
  std::int64_t jeditaskid = -1;
  std::int64_t pandaid = -1;
  util::SimTime submitted_at = 0;
  util::SimTime started_at = 0;   ///< when it left the queue
  util::SimTime finished_at = 0;
  bool success = false;
  bool replica_registered = false;
  std::uint32_t attempts = 1;
  /// Terminal-outcome attribution: kNone on clean success, otherwise
  /// why the transfer failed (or completed without a replica).
  TransferError error = TransferError::kNone;

  [[nodiscard]] double throughput_bps() const noexcept {
    const double secs = util::to_seconds(finished_at - started_at);
    return secs > 0.0 ? static_cast<double>(size_bytes) / secs : 0.0;
  }
  [[nodiscard]] bool is_local() const noexcept { return src == dst; }
};

class TransferEngine {
 public:
  struct Params {
    double failure_prob = 0.01;        ///< per-attempt abort probability
    std::uint32_t max_attempts = 2;
    double stall_prob = 0.06;          ///< per-attempt stall probability
    /// Stall severity: the rate multiplier is drawn log-uniformly from
    /// [stall_factor_min, stall_factor_max].  The deep end of the range
    /// produces transfers that outlive the staging watchdog and span
    /// into execution (Fig. 11).
    double stall_factor_min = 0.0005;
    double stall_factor_max = 0.15;
    double per_stream_cap_bps = 700e6; ///< single-stream protocol limit
    double registration_failure_prob = 0.008;
    util::SimDuration rerate_interval = util::minutes(5);

    /// --- self-healing (all default-off: the legacy instant same-queue
    /// requeue and its RNG stream are preserved bit-for-bit) ----------
    /// Base delay before a failed attempt re-enters the queue; doubles
    /// per attempt up to kRetryBackoffMax (30 min), with
    /// +/-kRetryJitter (25%) deterministic jitter (both in
    /// transfer.cpp).  0 keeps the legacy synchronous requeue.
    util::SimDuration retry_backoff_base = 0;
    /// Per-link circuit breaker: after breaker_threshold consecutive
    /// failed attempts the link stops admitting work for
    /// breaker_cooldown, then lets a single half-open probe through.
    bool breaker_enabled = false;
    std::uint32_t breaker_threshold = 4;
    util::SimDuration breaker_cooldown = util::minutes(10);
    /// Re-resolve the source replica via ReplicaSelector when the
    /// current source link is faulted or its breaker is open (requires
    /// enable_alternate_sources()).
    bool alternate_source_retry = false;
  };

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;  ///< terminal failures (retries exhausted)
    std::uint64_t retries = 0;
    std::uint64_t registration_failures = 0;
    std::uint64_t quota_rejections = 0;
    std::uint64_t bytes_moved = 0;
    std::uint64_t breaker_opens = 0;      ///< closed/half-open -> open
    std::uint64_t alt_source_retries = 0; ///< attempts moved to a new source
    std::uint64_t backoff_delays = 0;     ///< retries held back by backoff
  };

  TransferEngine(sim::Scheduler& scheduler, const grid::Topology& topology,
                 ReplicaCatalog& replicas, util::Rng rng, Params params);
  /// Default-parameter convenience (defined out of line: in-class `= {}`
  /// would need Params' NSDMIs before the enclosing class is complete).
  TransferEngine(sim::Scheduler& scheduler, const grid::Topology& topology,
                 ReplicaCatalog& replicas, util::Rng rng);

  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;
  ~TransferEngine();

  /// Queues the transfer; returns its id.  Completion is reported through
  /// the request's on_complete and then the engine-wide sink.
  std::uint64_t submit(TransferRequest request);

  /// Engine-wide completion sink (the telemetry recorder).
  void set_sink(std::function<void(const TransferOutcome&)> sink) {
    sink_ = std::move(sink);
  }

  /// Wires the fault injector in: admission consults its link/site
  /// state, brownouts scale link capacity, storage outages fail replica
  /// registration, and the engine subscribes to transitions so active
  /// attempts on a blacked-out link abort at window begin.
  void set_injector(fault::Injector& injector);

  /// Enables alternate-source resolution (Params::alternate_source_retry)
  /// by giving the engine a ReplicaSelector over `rses`.
  void enable_alternate_sources(const RseRegistry& rses);

  /// Links whose circuit breaker is currently open or probing.
  [[nodiscard]] std::size_t open_breakers() const noexcept {
    return open_breakers_;
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_; }

  /// Point-in-time view of one link's load, for the campaign's
  /// "link_sample" rows.
  struct LinkProbe {
    grid::LinkKey key{};
    std::uint32_t active = 0;          ///< transfers holding a slot
    std::uint32_t queued = 0;          ///< transfers waiting for a slot
    std::uint64_t bytes_in_flight = 0; ///< remaining bytes of active ones
    double rate_bps = 0.0;             ///< summed assigned rates
  };
  /// Links with any current activity, sorted by (src, dst) so sampled
  /// output is deterministic.  Read-only; active-transfer byte progress
  /// is advanced to the probe instant.
  [[nodiscard]] std::vector<LinkProbe> probe_links() const;

 private:
  struct Active;
  struct LinkState;

  LinkState& link_state(grid::SiteId src, grid::SiteId dst);
  void try_start(LinkState& ls);
  void start_one(LinkState& ls);
  void update_rates(LinkState& ls);
  void complete(LinkState& ls, Active* active);
  void finalize(std::unique_ptr<Active> active, bool success);
  void schedule_rerate(LinkState& ls);
  /// Whether the link may start another transfer right now (fault
  /// windows, breaker state); advances an expired open breaker to
  /// half-open as a side effect.
  bool admits(LinkState& ls);
  /// A queue held back by a fault window or breaker: reroute what can
  /// move to an alternate source, arm a wake-up for the rest.
  void handle_blocked(LinkState& ls);
  /// Moves a backoff-parked transfer back into the pending queue.
  void release_delayed(LinkState& ls, Active* raw);
  /// Exponential backoff with deterministic per-(id, attempt) jitter;
  /// 0 when backoff is disabled.
  [[nodiscard]] util::SimDuration backoff_delay(std::uint64_t id,
                                                std::uint32_t attempt) const;
  void breaker_on_result(LinkState& ls, bool attempt_failed);
  /// Re-resolves the source replica away from the current one to a link
  /// that admits() now; on success rewrites the request's src and
  /// returns that link.
  LinkState* reroute_target(Active& active);
  void on_fault(const fault::FaultWindow& window, bool begin);

  sim::Scheduler& scheduler_;
  const grid::Topology& topology_;
  ReplicaCatalog& replicas_;
  util::Rng rng_;
  Params params_;
  Stats stats_;
  std::uint64_t next_id_ = 1;
  std::size_t in_flight_ = 0;
  std::size_t open_breakers_ = 0;
  std::function<void(const TransferOutcome&)> sink_;
  const fault::Injector* injector_ = nullptr;
  const RseRegistry* rses_ = nullptr;
  std::optional<ReplicaSelector> selector_;
  std::unordered_map<grid::LinkKey, std::unique_ptr<LinkState>,
                     grid::LinkKeyHash>
      links_;
};

}  // namespace pandarus::dms
