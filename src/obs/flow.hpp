// Causal flow tracing + online critical-path wait attribution.
//
// A *flow* is the causal tree rooted at one job submission: the broker
// decision, the staging request, every stage-in/stage-out transfer
// attempt (including retries and reroutes injected by pandarus::fault),
// the queue slot and the payload run are all child spans of that root,
// linked by explicit parent edges (`parent` = pandaid on every flow_*
// event, `transfer` ids on link edges).  The paper answers "where did
// this job's wall-clock go?" by re-joining records offline through the
// matchers; FlowTracker answers it online, at the moment the job
// finalizes.
//
// On end_flow the tracker decomposes wall-clock into a partition
//
//   broker-wait | stage-in | queue-wait | run | stage-out
//
// whose parts sum to the job's wall-clock exactly (missing boundaries —
// e.g. a job killed by a site outage mid-run — collapse onto the next
// known one).  Stage-in is further split into *serialized* time (the
// union of transfer-attempt intervals inside the stage-in window: time
// at least one transfer was actually moving bytes) and *overlapped*
// time (sum - union: bytes that moved concurrently and were therefore
// free), so the paper's sequential-staging and redundant-transfer case
// studies become live flags instead of forensic queries.  Critical-path
// transfer time is attributed to links: each serialized segment is
// charged to the covering attempt that finished last (the one the job
// was actually waiting for), producing a per-link "critical seconds"
// ranking.
//
// Cost discipline matches EventLog exactly: a campaign without a
// tracker in its obs::Session pays one pointer load from the
// scheduler's session per instrumentation site and nothing else, and a
// campaign's NDJSON event stream is byte-identical with flows on vs.
// off except for the added flow_* lines (observers consume no
// simulation RNG and carry simulated time only).  Flow spans rendered
// into a Chrome trace use dedicated sim-time lanes (TraceRecorder::
// kFlowPid / kTransferPid, 1 simulated ms == 1 trace us via
// obs::to_micros) plus 's'/'f' flow arrows from job lanes to transfer
// lanes.  See DESIGN.md §13.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace pandarus::obs {

class Counter;
class EventLog;
class Histogram;

/// The wall-clock partition of one finished job, in simulated ms.
/// broker + stage_in + queue + run + stage_out == wall, always.
struct PhaseBreakdown {
  std::int64_t broker_ms = 0;    ///< submission -> staging begins
  std::int64_t stage_in_ms = 0;  ///< staging begins -> queued
  std::int64_t queue_ms = 0;     ///< queued -> payload starts
  std::int64_t run_ms = 0;       ///< payload starts -> payload ends
  std::int64_t stage_out_ms = 0; ///< payload ends -> finalized
  std::int64_t wall_ms = 0;

  // Stage-in structure: serialized = union of attempt intervals inside
  // the stage-in window (time >= 1 transfer was active); busy = sum of
  // those intervals; overlap = 1 - serialized/busy (0 when <= 1
  // transfer ran, 1-ish when everything moved concurrently).
  std::int64_t stage_in_serialized_ms = 0;
  std::int64_t stage_in_busy_ms = 0;
  double stage_in_overlap = 0.0;
  bool sequential_staging = false;  ///< >= 2 transfers, overlap ~ 0

  std::uint32_t stage_in_transfers = 0;
  std::uint32_t stage_in_attempts = 0;
  std::uint32_t reroutes = 0;
  std::uint32_t redundant_transfers = 0;
  std::uint32_t unregistered = 0;  ///< moved ok but never catalogued
};

/// One finished flow as retained by the tracker (and as rebuilt from an
/// event stream by analysis::critical_path).
struct FlowSummary {
  std::int64_t pandaid = 0;
  std::int64_t taskid = -1;
  std::int64_t site = -1;
  std::int32_t attempt = 1;
  std::int64_t created_ms = 0;
  std::int64_t end_ms = 0;
  bool failed = false;
  std::int32_t error = 0;
  bool watchdog_release = false;
  std::uint32_t shared_hits = 0;
  PhaseBreakdown phases;

  /// Critical-seconds attribution of this flow's stage-in window to
  /// links, sorted by ms descending; front() is the bottleneck link.
  struct LinkShare {
    std::int64_t src = -1;
    std::int64_t dst = -1;
    std::int64_t ms = 0;
  };
  std::vector<LinkShare> link_shares;

  [[nodiscard]] std::int64_t critical_src() const noexcept {
    return link_shares.empty() ? -1 : link_shares.front().src;
  }
  [[nodiscard]] std::int64_t critical_dst() const noexcept {
    return link_shares.empty() ? -1 : link_shares.front().dst;
  }
  [[nodiscard]] std::int64_t critical_ms() const noexcept {
    return link_shares.empty() ? 0 : link_shares.front().ms;
  }
};

/// Campaign-wide per-link critical-seconds aggregate.
struct LinkCritical {
  std::int64_t src = -1;
  std::int64_t dst = -1;
  std::int64_t critical_ms = 0;
  std::uint64_t flows = 0;  ///< flows this link appeared critical in
};

struct FlowTotals {
  std::uint64_t flows = 0;
  std::uint64_t failed = 0;
  std::uint64_t sequential_staging = 0;
  std::uint64_t redundant_transfers = 0;
  std::uint64_t watchdog_releases = 0;
  std::uint64_t reroutes = 0;
};

/// Online causal-flow tracker.  Hook methods are called from the
/// simulation thread via `if (auto* f = scheduler_.session().flows)`
/// guards.  A tracker that was never wired is silent: hooks aggregate
/// but mirror nothing, which makes it the offline rebuild engine for
/// analysis::replay_events, fed the same calls in event-stream order.
/// All hooks take the tracker mutex; disabled sites never reach it.
class FlowTracker {
 public:
  FlowTracker() = default;

  FlowTracker(const FlowTracker&) = delete;
  FlowTracker& operator=(const FlowTracker&) = delete;
  ~FlowTracker();

  /// Makes this a live tracker: from now on its hooks emit flow_*
  /// events to `log` (none when null), draw flow lanes into the
  /// installed TraceRecorder and count into the pandarus_flow_* metrics.
  /// scenario::run_campaign wires its session's tracker to the
  /// session's log before the first event.
  void wire(EventLog* log);

  // --- job lifecycle hooks (wms::PandaServer) -----------------------------
  void begin_flow(std::int64_t pandaid, std::int64_t taskid,
                  std::int32_t attempt, std::int64_t ts);
  /// Brokerage detail (wms::Brokerage): candidate sites scored for this
  /// flow; merged into the flow_broker span.
  void broker_scored(std::int64_t pandaid, std::int64_t candidates);
  void broker_decision(std::int64_t pandaid, std::int64_t site,
                       std::int64_t ts);
  void stage_begin(std::int64_t pandaid, std::int64_t ts);
  /// Parent edge flow -> transfer.  `shared` marks a join onto a
  /// transfer another flow already started (shared-staging ledger hit).
  void link_transfer(std::int64_t pandaid, std::uint64_t transfer_id,
                     std::int64_t ts, bool shared);
  void queue_enter(std::int64_t pandaid, std::int64_t ts,
                   bool watchdog_release);
  void run_begin(std::int64_t pandaid, std::int64_t ts);
  void stage_out_begin(std::int64_t pandaid, std::int64_t ts);
  /// Finalization: runs the critical-path decomposition, emits
  /// flow_end, feeds quantile sketches and link aggregates, retires the
  /// flow.
  void end_flow(std::int64_t pandaid, std::int64_t ts, bool failed,
                std::int32_t error);

  // --- transfer lifecycle hooks (dms::TransferEngine) ---------------------
  void transfer_submitted(std::uint64_t id, std::int64_t file,
                          std::int64_t src, std::int64_t dst,
                          std::int64_t ts);
  void attempt_start(std::uint64_t id, std::uint32_t attempt,
                     std::int64_t src, std::int64_t dst, std::int64_t ts);
  void transfer_rerouted(std::uint64_t id);
  /// `terminal` true on transfer_done/transfer_fail, false on a retry;
  /// `registered` is the replica-catalogue outcome (terminal only).
  void attempt_end(std::uint64_t id, std::int64_t ts, bool success,
                   bool terminal, bool registered);

  // --- results ------------------------------------------------------------
  // Safe once the simulation has quiesced (same contract as
  // EventLog::to_ndjson).
  [[nodiscard]] const std::vector<FlowSummary>& completed() const {
    return completed_;
  }
  [[nodiscard]] FlowTotals totals() const;
  /// Campaign-wide link ranking, critical_ms descending (deterministic
  /// tie-break on (src, dst)).
  [[nodiscard]] std::vector<LinkCritical> link_ranking() const;

  /// Flamegraph-style collapsed stacks:
  ///   campaign;<site>;stage_in;link_<src>-><dst> <ms>
  ///   campaign;<site>;queue <ms>              (etc. per phase)
  /// `site_name` maps a site id to a frame label (numeric `site_<id>`
  /// when empty); deterministic ordering.
  [[nodiscard]] std::string to_collapsed(
      const std::function<std::string(std::int64_t)>& site_name = {}) const;
  /// Writes to_collapsed() to `path`; false (warning logged) on I/O
  /// failure.
  bool write_collapsed(const std::string& path) const;

 private:
  struct AttemptSpan {
    std::int64_t start_ms = 0;
    std::int64_t end_ms = -1;  ///< -1 while in flight
    std::int64_t src = -1;
    std::int64_t dst = -1;
    std::uint32_t attempt = 1;
    bool success = false;
  };
  struct TransferTrace {
    std::int64_t file = -1;
    std::int64_t dst = -1;
    std::int64_t submit_ms = 0;
    bool done = false;
    bool success = false;
    bool registered = false;
    bool redundant = false;
    std::uint32_t reroutes = 0;
    std::int32_t refs = 0;  ///< live flows holding a parent edge
    std::vector<AttemptSpan> attempts;
  };
  struct Flow {
    std::int64_t pandaid = 0;
    std::int64_t taskid = -1;
    std::int32_t attempt = 1;
    std::int64_t site = -1;
    std::int64_t candidates = -1;
    std::int64_t created_ms = 0;
    std::int64_t stage_begin_ms = -1;
    std::int64_t queued_ms = -1;
    std::int64_t run_ms = -1;
    std::int64_t stage_out_ms = -1;
    bool watchdog_release = false;
    std::uint32_t shared_hits = 0;
    std::vector<std::uint64_t> stage_in;    ///< transfer ids
    std::vector<std::uint64_t> post_stage;  ///< direct-IO + upload ids
  };
  struct SiteAgg {
    std::int64_t broker = 0;
    std::int64_t stage_in_active = 0;
    std::int64_t stage_in_idle = 0;
    std::int64_t queue = 0;
    std::int64_t run = 0;
    std::int64_t stage_out = 0;
    std::unordered_map<std::uint64_t, std::int64_t> link_ms;
  };
  struct LinkAgg {
    std::int64_t critical_ms = 0;
    std::uint64_t flows = 0;
  };
  struct FilePresence {
    std::int32_t in_flight = 0;
    bool unregistered_success = false;
  };
  struct Metrics;  // lazy global-registry bindings

  void release_transfer(std::uint64_t id);
  Metrics& metrics();
  void emit_sim_lane_metadata();

  mutable std::mutex mutex_;
  bool live_ = false;         ///< wired: mirror to log_, trace, metrics
  EventLog* log_ = nullptr;
  std::unordered_map<std::int64_t, Flow> open_;
  std::unordered_map<std::uint64_t, TransferTrace> transfers_;
  std::unordered_map<std::uint64_t, FilePresence> file_presence_;
  std::unordered_map<std::uint64_t, LinkAgg> links_;
  std::unordered_map<std::int64_t, SiteAgg> sites_;
  std::vector<FlowSummary> completed_;
  FlowTotals totals_;
  Metrics* metrics_ = nullptr;
  bool lane_metadata_emitted_ = false;
};

}  // namespace pandarus::obs
