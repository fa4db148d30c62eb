// One campaign's observability wiring: the event log, flow tracker,
// health engine and status server a campaign reports to.
//
// A Session is a plain value of non-owning pointers; null means "off".
// scenario::run_campaign takes one (default: obs::env_session(), the
// session the PANDARUS_* variables describe) and hands it to its
// sim::Scheduler, which every hooked simulator component already holds,
// so an emit site is one pointer load from the scheduler's session:
//
//   if (obs::EventLog* log = scheduler_.session().events) { ... }
//
// Two campaigns with different sessions never see each other's sinks,
// so they may run side by side on different threads.  The owner keeps
// every pointee alive for the campaign's whole run.
#pragma once

namespace pandarus::obs {

class EventLog;
class FlowTracker;
class HealthEngine;
class StatusServer;

struct Session {
  EventLog* events = nullptr;
  FlowTracker* flows = nullptr;
  HealthEngine* health = nullptr;
  /// Attached at campaign start: its /healthz, SSE and /api/* report on
  /// this session.
  StatusServer* server = nullptr;
};

}  // namespace pandarus::obs
