#include "obs/flow.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace pandarus::obs {
namespace {

/// Bound on retained FlowSummary records; aggregates keep counting past
/// it.
constexpr std::size_t kMaxSummaries = std::size_t{1} << 20;

/// Link key: (src, dst) packed for the aggregate maps.
std::uint64_t link_key(std::int64_t src, std::int64_t dst) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}
std::int64_t link_src(std::uint64_t key) noexcept {
  return static_cast<std::int32_t>(key >> 32);
}
std::int64_t link_dst(std::uint64_t key) noexcept {
  return static_cast<std::int32_t>(key & 0xFFFFFFFFu);
}

/// A transfer-attempt interval clipped to the stage-in window.
/// `finish` keeps the unclipped end: the covering attempt that finishes
/// last is the one the job is actually waiting for.
struct ClippedSpan {
  std::int64_t s = 0;
  std::int64_t e = 0;
  std::int64_t src = -1;
  std::int64_t dst = -1;
  std::int64_t finish = 0;
};

const std::vector<double>& phase_bounds_ms() {
  // 1 s .. 12 h in simulated ms; stage phases routinely span hours at
  // paper scale.
  static const std::vector<double> bounds = {1e3,   5e3,    15e3,  6e4,  3e5,
                                             9e5,   3.6e6,  1.44e7, 4.32e7};
  return bounds;
}

}  // namespace

struct FlowTracker::Metrics {
  Counter& flows;
  Counter& failed;
  Counter& sequential;
  Counter& redundant;
  Counter& watchdog;
  Counter& reroutes;
  Counter& critical_ms;
  Histogram& broker;
  Histogram& stage_in;
  Histogram& serialized;
  Histogram& queue;
  Histogram& run;
  Histogram& stage_out;
};

FlowTracker::~FlowTracker() { delete metrics_; }

void FlowTracker::wire(EventLog* log) {
  std::scoped_lock lock(mutex_);
  live_ = true;
  log_ = log;
}

FlowTracker::Metrics& FlowTracker::metrics() {
  if (metrics_ == nullptr) {
    Registry& r = Registry::global();
    metrics_ = new Metrics{
        r.counter("pandarus_flow_flows_total", "flows finalized"),
        r.counter("pandarus_flow_failed_total", "flows ending in failure"),
        r.counter("pandarus_flow_sequential_staging_total",
                  "flows flagged with stage-in overlap ~ 0"),
        r.counter("pandarus_flow_redundant_transfers_total",
                  "transfers re-moving bytes already staged or in flight"),
        r.counter("pandarus_flow_watchdog_releases_total",
                  "flows released to the queue by the staging watchdog"),
        r.counter("pandarus_flow_reroutes_total",
                  "transfer reroutes observed on linked flows"),
        r.counter("pandarus_flow_critical_link_ms_total",
                  "critical-path stage-in ms attributed to links"),
        r.histogram("pandarus_flow_broker_wait_ms", phase_bounds_ms(),
                    "submission to staging begin, per flow"),
        r.histogram("pandarus_flow_stage_in_ms", phase_bounds_ms(),
                    "staging begin to queued, per flow"),
        r.histogram("pandarus_flow_stage_in_serialized_ms", phase_bounds_ms(),
                    "union of stage-in transfer activity, per flow"),
        r.histogram("pandarus_flow_queue_wait_ms", phase_bounds_ms(),
                    "queued to payload start, per flow"),
        r.histogram("pandarus_flow_run_ms", phase_bounds_ms(),
                    "payload start to payload end, per flow"),
        r.histogram("pandarus_flow_stage_out_ms", phase_bounds_ms(),
                    "payload end to finalized, per flow"),
    };
  }
  return *metrics_;
}

void FlowTracker::emit_sim_lane_metadata() {
  if (lane_metadata_emitted_) return;
  lane_metadata_emitted_ = true;
  if (TraceRecorder* rec = TraceRecorder::installed()) {
    TraceEvent flows{};
    flows.name = "pandarus flows (sim ms as us)";
    flows.category = "flow";
    flows.ph = 'M';
    flows.pid = TraceRecorder::kFlowPid;
    rec->record_event(flows);
    TraceEvent transfers{};
    transfers.name = "pandarus transfers (sim ms as us)";
    transfers.category = "flow";
    transfers.ph = 'M';
    transfers.pid = TraceRecorder::kTransferPid;
    rec->record_event(transfers);
  }
}

// --- job lifecycle --------------------------------------------------------

void FlowTracker::begin_flow(std::int64_t pandaid, std::int64_t taskid,
                             std::int32_t attempt, std::int64_t ts) {
  std::scoped_lock lock(mutex_);
  Flow flow;
  flow.pandaid = pandaid;
  flow.taskid = taskid;
  flow.attempt = attempt;
  flow.created_ms = ts;
  open_[pandaid] = std::move(flow);
  if (EventLog* log = log_) {
    log->emit(Event("flow_begin", ts, pandaid)
                  .field("task", taskid)
                  .field("attempt", attempt));
  }
}

void FlowTracker::broker_scored(std::int64_t pandaid,
                                std::int64_t candidates) {
  std::scoped_lock lock(mutex_);
  const auto it = open_.find(pandaid);
  if (it != open_.end()) it->second.candidates = candidates;
}

void FlowTracker::broker_decision(std::int64_t pandaid, std::int64_t site,
                                  std::int64_t ts) {
  std::scoped_lock lock(mutex_);
  const auto it = open_.find(pandaid);
  if (it == open_.end()) return;
  it->second.site = site;
  if (EventLog* log = log_) {
    log->emit(Event("flow_broker", ts, pandaid)
                  .field("parent", pandaid)
                  .field("site", site)
                  .field("candidates", it->second.candidates));
  }
}

void FlowTracker::stage_begin(std::int64_t pandaid, std::int64_t ts) {
  std::scoped_lock lock(mutex_);
  const auto it = open_.find(pandaid);
  if (it == open_.end()) return;
  it->second.stage_begin_ms = ts;
  if (EventLog* log = log_) {
    log->emit(Event("flow_stage", ts, pandaid).field("parent", pandaid));
  }
}

void FlowTracker::link_transfer(std::int64_t pandaid,
                                std::uint64_t transfer_id, std::int64_t ts,
                                bool shared) {
  std::scoped_lock lock(mutex_);
  const auto it = open_.find(pandaid);
  if (it == open_.end()) return;
  Flow& flow = it->second;
  const bool staging = flow.queued_ms < 0;
  (staging ? flow.stage_in : flow.post_stage).push_back(transfer_id);
  if (shared) ++flow.shared_hits;
  const auto tr = transfers_.find(transfer_id);
  if (tr != transfers_.end()) ++tr->second.refs;
  if (live_) {
    if (EventLog* log = log_) {
      log->emit(Event("flow_link", ts, pandaid)
                    .field("parent", pandaid)
                    .field("transfer", transfer_id)
                    .field("shared", shared)
                    .field("phase", staging ? "stage_in" : "post_stage"));
    }
    if (TraceRecorder* rec = TraceRecorder::installed()) {
      emit_sim_lane_metadata();
      TraceEvent tail{};
      tail.name = staging ? "stage_in" : "post_stage";
      tail.category = "flow";
      tail.start_us = to_micros(ts);
      tail.arg = TraceRecorder::kNoArg;
      tail.ph = 's';
      tail.pid = TraceRecorder::kFlowPid;
      tail.tid = pandaid;
      tail.flow_id = transfer_id;
      rec->record_event(tail);
      TraceEvent head = tail;
      head.ph = 'f';
      head.pid = TraceRecorder::kTransferPid;
      head.tid = static_cast<std::int64_t>(transfer_id);
      rec->record_event(head);
    }
  }
}

void FlowTracker::queue_enter(std::int64_t pandaid, std::int64_t ts,
                              bool watchdog_release) {
  std::scoped_lock lock(mutex_);
  const auto it = open_.find(pandaid);
  if (it == open_.end()) return;
  it->second.queued_ms = ts;
  it->second.watchdog_release = watchdog_release;
  if (EventLog* log = log_) {
    log->emit(Event("flow_queue", ts, pandaid)
                  .field("parent", pandaid)
                  .field("watchdog", watchdog_release));
  }
}

void FlowTracker::run_begin(std::int64_t pandaid, std::int64_t ts) {
  std::scoped_lock lock(mutex_);
  const auto it = open_.find(pandaid);
  if (it == open_.end()) return;
  it->second.run_ms = ts;
  if (EventLog* log = log_) {
    log->emit(Event("flow_run", ts, pandaid).field("parent", pandaid));
  }
}

void FlowTracker::stage_out_begin(std::int64_t pandaid, std::int64_t ts) {
  std::scoped_lock lock(mutex_);
  const auto it = open_.find(pandaid);
  if (it == open_.end()) return;
  it->second.stage_out_ms = ts;
  if (EventLog* log = log_) {
    log->emit(Event("flow_stage_out", ts, pandaid).field("parent", pandaid));
  }
}

void FlowTracker::end_flow(std::int64_t pandaid, std::int64_t ts, bool failed,
                           std::int32_t error) {
  std::scoped_lock lock(mutex_);
  const auto it = open_.find(pandaid);
  if (it == open_.end()) return;
  Flow flow = std::move(it->second);
  open_.erase(it);

  // Boundary repair: a phase the job never reached (e.g. killed by a
  // site outage mid-run) collapses to zero width against the next known
  // boundary, keeping the partition exact.
  std::int64_t b[6] = {flow.created_ms, flow.stage_begin_ms, flow.queued_ms,
                       flow.run_ms,     flow.stage_out_ms,   ts};
  for (int i = 4; i >= 1; --i) {
    if (b[i] < 0) b[i] = b[i + 1];
  }
  for (int i = 1; i <= 5; ++i) {
    if (b[i] < b[i - 1]) b[i] = b[i - 1];
  }

  FlowSummary out;
  out.pandaid = flow.pandaid;
  out.taskid = flow.taskid;
  out.site = flow.site;
  out.attempt = flow.attempt;
  out.created_ms = b[0];
  out.end_ms = b[5];
  out.failed = failed;
  out.error = error;
  out.watchdog_release = flow.watchdog_release;
  out.shared_hits = flow.shared_hits;
  PhaseBreakdown& ph = out.phases;
  ph.broker_ms = b[1] - b[0];
  ph.stage_in_ms = b[2] - b[1];
  ph.queue_ms = b[3] - b[2];
  ph.run_ms = b[4] - b[3];
  ph.stage_out_ms = b[5] - b[4];
  ph.wall_ms = b[5] - b[0];

  // Clip every linked stage-in attempt to the stage-in window; an
  // attempt still in flight (watchdog release) is pessimistically
  // charged up to the window end — the job really did wait on it.
  std::vector<ClippedSpan> spans;
  for (const std::uint64_t id : flow.stage_in) {
    const auto tr = transfers_.find(id);
    if (tr == transfers_.end()) continue;
    const TransferTrace& trace = tr->second;
    ++ph.stage_in_transfers;
    ph.stage_in_attempts += static_cast<std::uint32_t>(trace.attempts.size());
    ph.reroutes += trace.reroutes;
    if (trace.redundant) ++ph.redundant_transfers;
    if (trace.done && trace.success && !trace.registered) ++ph.unregistered;
    for (const AttemptSpan& a : trace.attempts) {
      const std::int64_t finish = a.end_ms < 0 ? INT64_MAX : a.end_ms;
      const std::int64_t s = std::max(a.start_ms, b[1]);
      const std::int64_t e = std::min(finish, b[2]);
      if (e > s) spans.push_back({s, e, a.src, a.dst, finish});
    }
  }

  // Serialized time = union of the clipped intervals; each covered
  // segment is charged to the covering attempt that finishes last.
  std::unordered_map<std::uint64_t, std::int64_t> shares;
  if (!spans.empty()) {
    std::vector<std::int64_t> cuts;
    cuts.reserve(spans.size() * 2);
    for (const ClippedSpan& sp : spans) {
      cuts.push_back(sp.s);
      cuts.push_back(sp.e);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const std::int64_t x = cuts[i];
      const std::int64_t y = cuts[i + 1];
      const ClippedSpan* blocker = nullptr;
      for (const ClippedSpan& sp : spans) {
        if (sp.s > x || sp.e < y) continue;
        if (blocker == nullptr || sp.finish > blocker->finish ||
            (sp.finish == blocker->finish &&
             link_key(sp.src, sp.dst) <
                 link_key(blocker->src, blocker->dst))) {
          blocker = &sp;
        }
      }
      if (blocker == nullptr) continue;
      ph.stage_in_serialized_ms += y - x;
      shares[link_key(blocker->src, blocker->dst)] += y - x;
    }
    for (const ClippedSpan& sp : spans) ph.stage_in_busy_ms += sp.e - sp.s;
  }
  ph.stage_in_overlap =
      ph.stage_in_busy_ms > 0
          ? 1.0 - static_cast<double>(ph.stage_in_serialized_ms) /
                      static_cast<double>(ph.stage_in_busy_ms)
          : 0.0;
  ph.sequential_staging = ph.stage_in_transfers >= 2 &&
                          ph.stage_in_serialized_ms > 0 &&
                          ph.stage_in_overlap < 0.05;

  out.link_shares.reserve(shares.size());
  for (const auto& [key, ms] : shares) {
    out.link_shares.push_back({link_src(key), link_dst(key), ms});
  }
  std::sort(out.link_shares.begin(), out.link_shares.end(),
            [](const FlowSummary::LinkShare& lhs,
               const FlowSummary::LinkShare& rhs) {
              if (lhs.ms != rhs.ms) return lhs.ms > rhs.ms;
              if (lhs.src != rhs.src) return lhs.src < rhs.src;
              return lhs.dst < rhs.dst;
            });

  // Campaign-wide aggregates.
  ++totals_.flows;
  if (failed) ++totals_.failed;
  if (ph.sequential_staging) ++totals_.sequential_staging;
  if (flow.watchdog_release) ++totals_.watchdog_releases;
  totals_.reroutes += ph.reroutes;
  for (const auto& share : out.link_shares) {
    LinkAgg& agg = links_[link_key(share.src, share.dst)];
    agg.critical_ms += share.ms;
    ++agg.flows;
  }
  SiteAgg& site = sites_[flow.site];
  site.broker += ph.broker_ms;
  site.stage_in_active += ph.stage_in_serialized_ms;
  site.stage_in_idle += ph.stage_in_ms - ph.stage_in_serialized_ms;
  site.queue += ph.queue_ms;
  site.run += ph.run_ms;
  site.stage_out += ph.stage_out_ms;
  for (const auto& share : out.link_shares) {
    site.link_ms[link_key(share.src, share.dst)] += share.ms;
  }

  if (live_) {
    Metrics& m = metrics();
    m.flows.inc();
    if (failed) m.failed.inc();
    if (ph.sequential_staging) m.sequential.inc();
    if (flow.watchdog_release) m.watchdog.inc();
    if (ph.reroutes > 0) m.reroutes.inc(ph.reroutes);
    m.critical_ms.inc(static_cast<std::uint64_t>(ph.stage_in_serialized_ms));
    m.broker.observe(static_cast<double>(ph.broker_ms));
    m.stage_in.observe(static_cast<double>(ph.stage_in_ms));
    m.serialized.observe(static_cast<double>(ph.stage_in_serialized_ms));
    m.queue.observe(static_cast<double>(ph.queue_ms));
    m.run.observe(static_cast<double>(ph.run_ms));
    m.stage_out.observe(static_cast<double>(ph.stage_out_ms));
    if (EventLog* log = log_) {
      log->emit(Event("flow_end", ts, pandaid)
                    .field("parent", pandaid)
                    .field("task", out.taskid)
                    .field("site", out.site)
                    .field("attempt", out.attempt)
                    .field("failed", failed)
                    .field("error", error)
                    .field("watchdog", flow.watchdog_release)
                    .field("shared_hits", out.shared_hits)
                    .field("broker_ms", ph.broker_ms)
                    .field("stage_in_ms", ph.stage_in_ms)
                    .field("queue_ms", ph.queue_ms)
                    .field("run_ms", ph.run_ms)
                    .field("stage_out_ms", ph.stage_out_ms)
                    .field("wall_ms", ph.wall_ms)
                    .field("serialized_ms", ph.stage_in_serialized_ms)
                    .field("busy_ms", ph.stage_in_busy_ms)
                    .field("overlap", ph.stage_in_overlap)
                    .field("sequential", ph.sequential_staging)
                    .field("transfers", ph.stage_in_transfers)
                    .field("attempts", ph.stage_in_attempts)
                    .field("reroutes", ph.reroutes)
                    .field("redundant", ph.redundant_transfers)
                    .field("unregistered", ph.unregistered)
                    .field("crit_src", out.critical_src())
                    .field("crit_dst", out.critical_dst())
                    .field("crit_ms", out.critical_ms()));
    }
    if (TraceRecorder* rec = TraceRecorder::installed()) {
      emit_sim_lane_metadata();
      static constexpr const char* kPhaseNames[5] = {
          "broker", "stage_in", "queue", "run", "stage_out"};
      for (int i = 0; i < 5; ++i) {
        if (b[i + 1] <= b[i]) continue;
        TraceEvent span{};
        span.name = kPhaseNames[i];
        span.category = "flow";
        span.start_us = to_micros(b[i]);
        span.dur_us = to_micros(b[i + 1] - b[i]);
        span.arg = flow.pandaid;
        span.ph = 'X';
        span.pid = TraceRecorder::kFlowPid;
        span.tid = flow.pandaid;
        rec->record_event(span);
      }
    }
  }

  for (const std::uint64_t id : flow.stage_in) release_transfer(id);
  for (const std::uint64_t id : flow.post_stage) release_transfer(id);
  if (completed_.size() < kMaxSummaries) completed_.push_back(std::move(out));
}

// --- transfer lifecycle ---------------------------------------------------

void FlowTracker::transfer_submitted(std::uint64_t id, std::int64_t file,
                                     std::int64_t src, std::int64_t dst,
                                     std::int64_t ts) {
  std::scoped_lock lock(mutex_);
  TransferTrace trace;
  trace.file = file;
  trace.dst = dst;
  trace.submit_ms = ts;
  FilePresence& presence =
      file_presence_[util::hash_mix(static_cast<std::uint64_t>(file),
                                    static_cast<std::uint64_t>(dst))];
  if (presence.in_flight > 0 || presence.unregistered_success) {
    trace.redundant = true;
    ++totals_.redundant_transfers;
    if (live_) metrics().redundant.inc();
  }
  ++presence.in_flight;
  (void)src;  // attempt spans carry the per-attempt source
  transfers_[id] = std::move(trace);
}

void FlowTracker::attempt_start(std::uint64_t id, std::uint32_t attempt,
                                std::int64_t src, std::int64_t dst,
                                std::int64_t ts) {
  std::scoped_lock lock(mutex_);
  const auto it = transfers_.find(id);
  if (it == transfers_.end()) return;
  AttemptSpan span;
  span.start_ms = ts;
  span.src = src;
  span.dst = dst;
  span.attempt = attempt;
  it->second.attempts.push_back(span);
}

void FlowTracker::transfer_rerouted(std::uint64_t id) {
  std::scoped_lock lock(mutex_);
  const auto it = transfers_.find(id);
  if (it != transfers_.end()) ++it->second.reroutes;
}

void FlowTracker::attempt_end(std::uint64_t id, std::int64_t ts, bool success,
                              bool terminal, bool registered) {
  std::scoped_lock lock(mutex_);
  const auto it = transfers_.find(id);
  if (it == transfers_.end()) return;
  TransferTrace& trace = it->second;
  if (!trace.attempts.empty() && trace.attempts.back().end_ms < 0) {
    AttemptSpan& span = trace.attempts.back();
    span.end_ms = ts;
    span.success = success;
    if (live_) {
      if (TraceRecorder* rec = TraceRecorder::installed()) {
        emit_sim_lane_metadata();
        TraceEvent ev{};
        ev.name = success ? "attempt" : "attempt_failed";
        ev.category = "transfer";
        ev.start_us = to_micros(span.start_ms);
        ev.dur_us = to_micros(span.end_ms - span.start_ms);
        ev.arg = static_cast<std::int64_t>(span.attempt);
        ev.ph = 'X';
        ev.pid = TraceRecorder::kTransferPid;
        ev.tid = static_cast<std::int64_t>(id);
        rec->record_event(ev);
      }
    }
  }
  if (!terminal) return;
  trace.done = true;
  trace.success = success;
  trace.registered = registered;
  const std::uint64_t presence_key = util::hash_mix(
      static_cast<std::uint64_t>(trace.file),
      static_cast<std::uint64_t>(trace.dst));
  const auto pit = file_presence_.find(presence_key);
  if (pit != file_presence_.end()) {
    FilePresence& presence = pit->second;
    if (presence.in_flight > 0) --presence.in_flight;
    if (success && !registered) presence.unregistered_success = true;
    if (success && registered) presence.unregistered_success = false;
    if (presence.in_flight <= 0 && !presence.unregistered_success) {
      // Bytes landed and the catalogue knows: a later transfer of this
      // (file, dst) is legitimate re-staging (e.g. after eviction).
      file_presence_.erase(pit);
    }
  }
  if (trace.refs <= 0) transfers_.erase(it);
}

void FlowTracker::release_transfer(std::uint64_t id) {
  const auto it = transfers_.find(id);
  if (it == transfers_.end()) return;
  if (--it->second.refs <= 0 && it->second.done) transfers_.erase(it);
}

// --- results --------------------------------------------------------------

FlowTotals FlowTracker::totals() const {
  std::scoped_lock lock(mutex_);
  return totals_;
}

std::size_t FlowTracker::open_flows() const {
  std::scoped_lock lock(mutex_);
  return open_.size();
}

std::vector<LinkCritical> FlowTracker::link_ranking() const {
  std::scoped_lock lock(mutex_);
  std::vector<LinkCritical> out;
  out.reserve(links_.size());
  for (const auto& [key, agg] : links_) {
    out.push_back({link_src(key), link_dst(key), agg.critical_ms, agg.flows});
  }
  std::sort(out.begin(), out.end(),
            [](const LinkCritical& a, const LinkCritical& b) {
              if (a.critical_ms != b.critical_ms) {
                return a.critical_ms > b.critical_ms;
              }
              if (a.src != b.src) return a.src < b.src;
              return a.dst < b.dst;
            });
  return out;
}

std::string FlowTracker::to_collapsed(
    const std::function<std::string(std::int64_t)>& site_name) const {
  std::scoped_lock lock(mutex_);
  const auto label = [&site_name](std::int64_t site) {
    std::string name =
        site_name ? site_name(site) : "site_" + std::to_string(site);
    if (name.empty()) name = "site_" + std::to_string(site);
    for (char& c : name) {
      if (c == ';' || c == ' ') c = '_';
    }
    return name;
  };
  std::vector<std::int64_t> site_ids;
  site_ids.reserve(sites_.size());
  for (const auto& [id, agg] : sites_) site_ids.push_back(id);
  std::sort(site_ids.begin(), site_ids.end());
  std::string out;
  for (const std::int64_t id : site_ids) {
    const SiteAgg& agg = sites_.at(id);
    const std::string prefix = "campaign;" + label(id) + ";";
    const auto line = [&out, &prefix](const std::string& frames,
                                      std::int64_t ms) {
      if (ms <= 0) return;
      out += prefix + frames + " " + std::to_string(ms) + "\n";
    };
    line("broker", agg.broker);
    std::vector<std::uint64_t> link_keys;
    link_keys.reserve(agg.link_ms.size());
    for (const auto& [key, ms] : agg.link_ms) link_keys.push_back(key);
    std::sort(link_keys.begin(), link_keys.end());
    for (const std::uint64_t key : link_keys) {
      line("stage_in;link_" + label(link_src(key)) + "->" +
               label(link_dst(key)),
           agg.link_ms.at(key));
    }
    line("stage_in;idle", agg.stage_in_idle);
    line("queue", agg.queue);
    line("run", agg.run);
    line("stage_out", agg.stage_out);
  }
  return out;
}

bool FlowTracker::write_collapsed(const std::string& path) const {
  const std::string text = to_collapsed();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    util::log_line(util::LogLevel::kWarning,
                   "obs: cannot open collapsed-stack output file " + path);
    return false;
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    util::log_line(util::LogLevel::kWarning,
                   "obs: short write to collapsed-stack output file " + path);
    return false;
  }
  return true;
}

}  // namespace pandarus::obs
