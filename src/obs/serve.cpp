#include "obs/serve.hpp"

#include <string_view>

#include "obs/event_log.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"
#include "util/log.hpp"

namespace pandarus::obs {
namespace {

/// The whole UI in one file: no frameworks, no external fetches, so the
/// page works from a curl'd artifact or an air-gapped host.  It polls
/// the JSON APIs and subscribes to /events/stream for live progress.
constexpr std::string_view kStatusPage = R"html(<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>pandarus status</title>
<style>
 body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 60rem; color: #1b2733; }
 h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
 code, td.num { font-family: ui-monospace, monospace; }
 table { border-collapse: collapse; margin-top: .4rem; }
 th, td { border: 1px solid #cbd5e1; padding: .25rem .6rem; text-align: left; }
 td.num { text-align: right; }
 .pill { display: inline-block; padding: .05rem .55rem; border-radius: 1rem; background: #e2e8f0; margin-right: .5rem; }
 .ok { background: #bbf7d0; }
 #bar { height: .5rem; background: #e2e8f0; border-radius: .25rem; overflow: hidden; margin: .4rem 0; }
 #fill { height: 100%; width: 0; background: #3b82f6; transition: width .3s; }
 .err { color: #b91c1c; }
</style>
</head>
<body>
<h1>pandarus live status</h1>
<div>
 <span class="pill" id="health">connecting…</span>
 <span class="pill" id="watermark">watermark —</span>
 <span class="pill" id="events">events —</span>
 <span class="pill" id="alerts">alerts —</span>
</div>
<div id="bar"><div id="fill"></div></div>
<div id="progress"></div>
<h2>Health <small>(<code>/api/alerts</code>)</small></h2>
<table id="alerttbl"><tbody><tr><td>no health engine armed</td></tr></tbody></table>
<table id="slos"><tbody></tbody></table>
<h2>Campaign summary <small>(<code>/api/summary</code>)</small></h2>
<table id="summary"><tbody><tr><td>waiting for data…</td></tr></tbody></table>
<h2>Matched jobs by method</h2>
<table id="methods"><tbody></tbody></table>
<h2>Critical links <small>(<code>/api/critical-path</code>)</small></h2>
<table id="links"><tbody></tbody></table>
<script>
const fmt = n => typeof n === 'number' ? n.toLocaleString('en-US') : n;
function rows(el, data) {
  el.querySelector('tbody').innerHTML =
    data.map(r => '<tr>' + r.map((c, i) =>
      `<td class="${i && typeof c === 'number' ? 'num' : ''}">${fmt(c)}</td>`
    ).join('') + '</tr>').join('');
}
async function refresh() {
  try {
    const h = await (await fetch('/healthz')).json();
    document.getElementById('health').textContent = h.status;
    document.getElementById('health').classList.add('ok');
    const s = await (await fetch('/api/summary')).json();
    rows(document.getElementById('summary'), [
      ['seed', s.seed], ['days', s.days], ['jobs', s.jobs],
      ['transfers', s.transfers],
      ['transfers with jeditaskid', s.transfers_with_taskid],
      ['stream closed', String(s.closed)],
    ]);
    rows(document.getElementById('methods'),
      ['exact', 'rm1', 'rm2'].map(m =>
        [m, s[m].matched_jobs, s[m].matched_transfers]));
    const c = await (await fetch('/api/critical-path')).json();
    rows(document.getElementById('links'),
      [['link', 'critical ms', 'flows']].concat(
        c.links.slice(0, 10).map(l =>
          [`${l.src_name} → ${l.dst_name}`, l.critical_ms, l.flows])));
    const a = await (await fetch('/api/alerts')).json();
    if (a.enabled !== false) {
      const all = (a.alerts || []).concat((a.resolved || []).slice(-5));
      rows(document.getElementById('alerttbl'),
        [['detector', 'entity', 'phase', 'severity', 'value']].concat(
          all.map(x =>
            [x.detector, x.entity, x.phase, x.severity, x.value])));
      rows(document.getElementById('slos'),
        [['SLO', 'target', 'good', 'bad', 'burn fast', 'burn slow']].concat(
          (a.slos || []).map(s =>
            [s.name, s.target, s.good, s.bad, s.burn_fast, s.burn_slow])));
    }
  } catch (e) {
    document.getElementById('progress').innerHTML =
      `<span class="err">${e}</span>`;
  }
}
const es = new EventSource('/events/stream');
es.addEventListener('tick', ev => {
  const t = JSON.parse(ev.data);
  document.getElementById('watermark').textContent =
    'watermark ' + fmt(t.watermark);
  document.getElementById('events').textContent =
    'events ' + fmt(t.events_written) +
    (t.dropped ? ` (dropped ${fmt(t.dropped)})` : '');
  if ('alerts_firing' in t) {
    const el = document.getElementById('alerts');
    el.textContent = `alerts ${fmt(t.alerts_firing)} firing / ` +
      `${fmt(t.alerts_pending)} pending / ${fmt(t.alerts_resolved)} resolved`;
    el.style.background = t.alerts_firing ? '#fecaca' : '#bbf7d0';
  }
  if (t.window_end_ms > 0) {
    const pct = Math.min(100, 100 * t.sim_now_ms / t.window_end_ms);
    document.getElementById('fill').style.width = pct + '%';
    document.getElementById('progress').textContent =
      `sim time ${fmt(t.sim_now_ms)} / ${fmt(t.window_end_ms)} ms ` +
      `(${pct.toFixed(1)}%)` + (t.closed ? ' — stream closed' : '');
  }
});
refresh();
setInterval(refresh, 3000);
</script>
</body>
</html>
)html";

std::string json_error(std::string_view message) {
  std::string out = "{\"error\":\"";
  out += message;
  out += "\"}\n";
  return out;
}

}  // namespace

StatusServer::StatusServer() : StatusServer(Options()) {}

StatusServer::StatusServer(Options options)
    : options_(options),
      http_([this](const HttpRequest& r) { return handle(r); },
            HttpServer::Options{.port = options.port}) {}

StatusServer::~StatusServer() { stop(); }

bool StatusServer::start() {
  if (!http_.start()) return false;
  util::log_line(util::LogLevel::kInfo,
                 "obs: status server listening on http://127.0.0.1:" +
                     std::to_string(http_.port()));
  return true;
}

void StatusServer::stop() { http_.stop(); }

void StatusServer::set_json_endpoint(std::string path,
                                     JsonProvider provider) {
  std::scoped_lock lock(mutex_);
  routes_[std::move(path)] = std::move(provider);
}

void StatusServer::attach(const Session& session) {
  std::scoped_lock lock(mutex_);
  log_ = session.events;
  health_ = session.health;
}

std::pair<const EventLog*, const HealthEngine*> StatusServer::attached()
    const {
  std::scoped_lock lock(mutex_);
  return {log_, health_};
}

HttpResponse StatusServer::handle(const HttpRequest& request) {
  if (request.path == "/") {
    return {200, "text/html; charset=utf-8", std::string(kStatusPage),
            nullptr};
  }
  if (request.path == "/healthz") {
    const EventLog* log = attached().first;
    const bool degraded = log != nullptr && log->io_errors() > 0;
    std::string body = degraded ? "{\"status\":\"degraded\""
                                : "{\"status\":\"ok\"";
    body += ",\"requests\":" + std::to_string(http_.requests_served());
    if (log != nullptr) {
      body += ",\"event_log\":true,\"watermark\":" +
              std::to_string(log->watermark());
      // Sink I/O failures flip the health verdict: the process is up,
      // but its durable record is suspect.
      body += ",\"io_errors\":" + std::to_string(log->io_errors());
      body += ",\"fsyncs\":" + std::to_string(log->fsyncs());
    } else {
      body += ",\"event_log\":false";
    }
    body += "}\n";
    return {200, "application/json", std::move(body), nullptr};
  }
  if (request.path == "/metrics") {
    // Refresh RSS/fds/uptime so every scrape self-describes the
    // process it came from, and mirror the event log's durability
    // counters (written/dropped/io_errors/fsyncs) into gauges so a
    // full disk is scrapeable, not just visible in /healthz.
    sample_process_metrics();
    export_event_log_metrics(attached().first);
    return {200, "text/plain; version=0.0.4; charset=utf-8",
            export_prometheus(), nullptr};
  }
  if (request.path == "/events/stream") return events_stream();
  JsonProvider provider;
  {
    std::scoped_lock lock(mutex_);
    const auto it = routes_.find(request.path);
    if (it != routes_.end()) provider = it->second;
  }
  if (provider) {
    return {200, "application/json", provider(), nullptr};
  }
  return {404, "application/json", json_error("not found"), nullptr};
}

HttpResponse StatusServer::events_stream() const {
  HttpResponse response;
  response.content_type = "text/event-stream";
  const int interval_ms = options_.sse_interval_ms;
  response.stream = [this, interval_ms](HttpStream& stream) {
    if (!stream.write("retry: 2000\n\n")) return;
    std::uint64_t frame = 0;
    do {
      const Snapshot snap = Registry::global().snapshot();
      const auto [log, health] = attached();
      std::string data = "event: tick\ndata: {\"frame\":" +
                         std::to_string(frame++);
      if (log != nullptr) {
        data += ",\"watermark\":" + std::to_string(log->watermark());
        data += ",\"events_written\":" + std::to_string(log->events_written());
        data += ",\"dropped\":" + std::to_string(log->dropped());
        data += ",\"bytes\":" + std::to_string(log->bytes_written());
        data += log->closed() ? ",\"closed\":true" : ",\"closed\":false";
      } else {
        data += ",\"watermark\":0,\"events_written\":0,\"dropped\":0"
                ",\"bytes\":0,\"closed\":false";
      }
      data += ",\"sim_now_ms\":" + std::to_string(snap.gauge_value(
                                       "pandarus_campaign_sim_now_ms"));
      data += ",\"window_end_ms\":" + std::to_string(snap.gauge_value(
                                          "pandarus_campaign_window_end_ms"));
      if (health != nullptr) {
        const HealthEngine::Counts counts = health->counts();
        data += ",\"alerts_firing\":" + std::to_string(counts.active_firing);
        data += ",\"alerts_pending\":" + std::to_string(counts.active_pending);
        data += ",\"alerts_resolved\":" + std::to_string(counts.resolved);
      }
      data += "}\n\n";
      if (!stream.write(data)) return;
    } while (stream.sleep_ms(interval_ms));
  };
  return response;
}

}  // namespace pandarus::obs
