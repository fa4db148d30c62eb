#include "analysis/events_replay.hpp"

#include <istream>
#include <string>

#include "analysis/event_source.hpp"
#include "util/log.hpp"

namespace pandarus::analysis {
namespace {

using util::json::FlatObject;

grid::SiteId site_of(const FlatObject& v, std::string_view key) {
  return static_cast<grid::SiteId>(
      v.get_int(key, static_cast<std::int64_t>(grid::kUnknownSite)));
}

void replay_job_record(const FlatObject& v, std::int64_t entity,
                       telemetry::MetadataStore& store) {
  telemetry::JobRecord j;
  j.pandaid = entity;
  j.jeditaskid = v.get_int("task");
  j.computing_site = site_of(v, "site");
  j.creation_time = v.get_int("created");
  j.start_time = v.get_int("started");
  j.end_time = v.get_int("ended");
  j.ninputfilebytes = static_cast<std::uint64_t>(v.get_int("in_bytes"));
  j.noutputfilebytes = static_cast<std::uint64_t>(v.get_int("out_bytes"));
  j.failed = v.get_bool("failed");
  j.error_code = static_cast<std::int32_t>(v.get_int("error"));
  j.direct_io = v.get_bool("direct_io");
  j.task_status = static_cast<wms::TaskStatus>(v.get_int("task_status"));
  store.record_job(std::move(j));
}

/// Views into the event's own buffer; the store interns them.
telemetry::FileAttributes attributes_of(const FlatObject& v) {
  return {v.get_string("lfn"), v.get_string("dataset"),
          v.get_string("proddblock"), v.get_string("scope")};
}

void replay_file_record(const FlatObject& v, std::int64_t entity,
                        telemetry::MetadataStore& store) {
  telemetry::FileRecord f;
  f.pandaid = entity;
  f.jeditaskid = v.get_int("task");
  f.file_size = static_cast<std::uint64_t>(v.get_int("size"));
  f.direction = static_cast<telemetry::FileDirection>(v.get_int("dir"));
  store.record_file(f, attributes_of(v));
}

void replay_transfer_record(const FlatObject& v, std::int64_t entity,
                            telemetry::MetadataStore& store) {
  telemetry::TransferRecord t;
  t.transfer_id = static_cast<std::uint64_t>(entity);
  t.jeditaskid = v.get_int("task", -1);
  t.file_size = static_cast<std::uint64_t>(v.get_int("size"));
  t.source_site = site_of(v, "src");
  t.destination_site = site_of(v, "dst");
  t.activity = static_cast<dms::Activity>(v.get_int("activity"));
  t.started_at = v.get_int("started");
  t.finished_at = v.get_int("finished");
  t.success = v.get_bool("success");
  t.error = static_cast<dms::TransferError>(v.get_int("terr"));
  store.record_transfer(t, attributes_of(v));
}

/// Makes the obs::FlowTracker call the live simulation made for one
/// flow/transfer lifecycle line; other kinds are ignored.
void replay_flow_event(std::string_view kind, const FlatObject& v,
                       std::int64_t ts, std::int64_t entity,
                       obs::FlowTracker& tracker) {
  const auto tid = static_cast<std::uint64_t>(entity);
  if (kind == "flow_begin") {
    tracker.begin_flow(entity, v.get_int("task", -1),
                       static_cast<std::int32_t>(v.get_int("attempt", 1)), ts);
  } else if (kind == "flow_broker") {
    // Live order is broker_scored (inside choose_site) then
    // broker_decision; the flow_broker line carries both.
    tracker.broker_scored(entity, v.get_int("candidates", -1));
    tracker.broker_decision(entity, v.get_int("site", -1), ts);
  } else if (kind == "flow_stage") {
    tracker.stage_begin(entity, ts);
  } else if (kind == "flow_link") {
    tracker.link_transfer(entity,
                          static_cast<std::uint64_t>(v.get_int("transfer")),
                          ts, v.get_bool("shared"));
  } else if (kind == "flow_queue") {
    tracker.queue_enter(entity, ts, v.get_bool("watchdog"));
  } else if (kind == "flow_run") {
    tracker.run_begin(entity, ts);
  } else if (kind == "flow_stage_out") {
    tracker.stage_out_begin(entity, ts);
  } else if (kind == "flow_end") {
    tracker.end_flow(entity, ts, v.get_bool("failed"),
                     static_cast<std::int32_t>(v.get_int("error")));
  } else if (kind == "transfer_submit") {
    tracker.transfer_submitted(tid, v.get_int("file", -1),
                               v.get_int("src", -1), v.get_int("dst", -1), ts);
  } else if (kind == "transfer_start") {
    tracker.attempt_start(tid,
                          static_cast<std::uint32_t>(v.get_int("attempt", 1)),
                          v.get_int("src", -1), v.get_int("dst", -1), ts);
  } else if (kind == "transfer_reroute") {
    tracker.transfer_rerouted(tid);
  } else if (kind == "transfer_retry") {
    tracker.attempt_end(tid, ts, /*success=*/false, /*terminal=*/false,
                        /*registered=*/false);
  } else if (kind == "transfer_done" || kind == "transfer_fail") {
    tracker.attempt_end(tid, ts, kind == "transfer_done", /*terminal=*/true,
                        v.get_bool("registered"));
  }
}

}  // namespace

std::string ReplayResult::site_name(grid::SiteId id) const {
  if (id == grid::kUnknownSite) return "UNKNOWN";
  const auto it = site_names.find(id);
  return it != site_names.end() ? it->second
                                : "site-" + std::to_string(id);
}

void ReplayResult::observe(const FlatObject& v) {
  const std::string_view kind = v.get_string("kind");
  const util::json::FlatMember* ts_field = v.find("ts");
  if (kind.empty() || ts_field == nullptr) {
    ++lines_skipped;
    return;
  }
  ++lines_parsed;
  ++kind_counts[std::string(kind)];
  const std::int64_t ts = ts_field->as_int();
  const std::int64_t entity = v.get_int("entity");

  if (kind == "job_record") {
    replay_job_record(v, entity, store);
  } else if (kind == "file_record") {
    replay_file_record(v, entity, store);
  } else if (kind == "transfer_record") {
    replay_transfer_record(v, entity, store);
    const std::int32_t terr = static_cast<std::int32_t>(v.get_int("terr"));
    if (terr != 0) ++failure_causes[terr];
  } else if (kind == "fault_window") {
    FaultWindowEvent fw;
    fw.ts = ts;
    fw.fault_kind = std::string(v.get_string("fault"));
    fw.begin = v.get_string("phase") == "begin";
    fw.site = site_of(v, "site");
    fw.src = site_of(v, "src");
    fw.dst = site_of(v, "dst");
    fw.window_begin = v.get_int("begin");
    fw.window_end = v.get_int("end");
    fault_windows.push_back(std::move(fw));
  } else if (kind == "site_record") {
    const auto id = static_cast<grid::SiteId>(entity);
    site_names[id] = std::string(v.get_string("name"));
    site_tiers[id] = static_cast<std::int32_t>(v.get_int("tier"));
  } else if (kind == "log_stats") {
    log_stats.present = true;
    log_stats.events = static_cast<std::uint64_t>(v.get_int("events"));
    log_stats.dropped = static_cast<std::uint64_t>(v.get_int("dropped"));
    log_stats.bytes = static_cast<std::uint64_t>(v.get_int("bytes"));
  } else if (kind == "campaign_meta") {
    seed = static_cast<std::uint64_t>(v.get_int("seed"));
    days = v.get_double("days");
    window_begin = v.get_int("window_begin");
    window_end = v.get_int("window_end");
    sample_interval_ms = v.get_int("sample_interval_ms");
  } else if (kind == "sample") {
    // Column order comes from the first sample; later samples are
    // matched by name so a mixed stream still lines up.
    if (sample_columns.empty()) {
      for (const util::json::FlatMember& m : v.members) {
        if (m.key == "ts" || m.key == "kind" || m.key == "entity") continue;
        sample_columns.emplace_back(m.key);
      }
    }
    Sample row;
    row.ts = ts;
    row.values.reserve(sample_columns.size());
    for (const std::string& col : sample_columns) {
      row.values.push_back(v.get_int(col));
    }
    samples.push_back(std::move(row));
  } else if (kind == "link_sample") {
    LinkSample ls;
    ls.ts = ts;
    ls.src = site_of(v, "src");
    ls.dst = site_of(v, "dst");
    ls.active = v.get_int("active");
    ls.queued = v.get_int("queued");
    ls.bytes_in_flight = v.get_int("bytes_in_flight");
    ls.rate_bps = v.get_double("rate_bps");
    ls.utilization = v.get_double("utilization");
    link_samples.push_back(ls);
  } else {
    // Flow/transfer lifecycle lines drive the tracker; the rest
    // (job_state, rule_*, sched_epoch, ...) are lifecycle telemetry:
    // counted above, not re-simulated.
    replay_flow_event(kind, v, ts, entity, *flows);
  }
}

ReplayResult replay_events(EventSource& source, obs::HealthEngine* health) {
  ReplayResult result;
  while (const FlatObject* event = source.next()) {
    result.observe(*event);
    if (health != nullptr) health->observe_json(*event);
  }
  result.lines_skipped += source.skipped();
  if (const std::string err = source.error(); !err.empty()) {
    util::log_warning() << "events replay: source stopped early: " << err;
  }
  return result;
}

ReplayResult replay_events(std::istream& in) {
  const auto source = make_ndjson_source(in);
  return replay_events(*source);
}

ReplayResult replay_events_file(const std::string& path,
                                obs::HealthEngine* health) {
  const auto source = open_event_source(path);
  if (!source) {
    util::log_warning() << "events replay: cannot open " << path;
    return {};
  }
  return replay_events(*source, health);
}

std::unique_ptr<obs::HealthEngine> derive_health_file(
    const std::string& path, SourceStatus* status) {
  // The engine ignores every other kind, so the source may drop those
  // events before decoding them.
  const auto source =
      open_event_source(path, obs::HealthEngine::kObservedKinds);
  if (source == nullptr) return nullptr;
  auto engine = std::make_unique<obs::HealthEngine>();
  while (const FlatObject* event = source->next()) {
    engine->observe_json(*event);
  }
  if (status != nullptr) {
    status->skipped = source->skipped();
    status->error = source->error();
  }
  return engine;
}

}  // namespace pandarus::analysis
