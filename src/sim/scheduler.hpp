// Discrete-event simulation core.
//
// A single-threaded scheduler with a monotonic clock and a min-heap of
// (time, sequence) ordered events.  Ties are broken by insertion order,
// which — together with the seeded RNG — makes every campaign run
// bit-for-bit deterministic.  Events may be cancelled (the transfer
// engine reschedules completion events whenever link sharing changes).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "util/time.hpp"

namespace pandarus::sim {

using util::SimDuration;
using util::SimTime;

class Scheduler {
 public:
  using Callback = std::function<void()>;

  /// Cancellation token for a scheduled event.  Default-constructed
  /// handles refer to no event.
  class EventHandle {
   public:
    EventHandle() = default;

    /// Prevents the callback from running.  Returns true if the event was
    /// still pending (i.e. this call actually cancelled it).
    bool cancel() noexcept;
    /// True while the event is scheduled and not yet fired or cancelled.
    [[nodiscard]] bool pending() const noexcept;

   private:
    friend class Scheduler;
    struct State;
    explicit EventHandle(std::shared_ptr<State> state)
        : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };

  /// `session` is the observability wiring every component built on
  /// this scheduler reports to (default: none).
  explicit Scheduler(obs::Session session = {});
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] const obs::Session& session() const noexcept {
    return session_;
  }
  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::uint64_t processed_count() const noexcept {
    return processed_;
  }
  /// Heap entries still queued (cancelled-but-unswept entries count;
  /// the pair (processed, queued) is a cheap deterministic fingerprint
  /// of scheduler progress used by scenario::Checkpoint).
  [[nodiscard]] std::uint64_t queued_count() const noexcept {
    return queue_.size();
  }

  /// Schedules `fn` at absolute time `t`; times in the past are clamped
  /// to now() so causality is never violated.
  EventHandle schedule_at(SimTime t, Callback fn);

  /// Schedules `fn` after `delay` (clamped to >= 0) from now().
  EventHandle schedule_after(SimDuration delay, Callback fn);

  /// Runs until the queue is empty.
  void run();

  /// Runs all events with time <= `t`, then advances the clock to `t`.
  void run_until(SimTime t);

  /// Fires at most one event (skipping cancelled entries); returns false
  /// when the queue had no live events.
  bool step();

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::shared_ptr<EventHandle::State> state;
  };
  struct EntryCompare {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      // std::priority_queue is a max-heap; invert for earliest-first,
      // breaking ties by insertion sequence.
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  const obs::Session session_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t epoch_ = 0;  ///< run_until calls completed (event log)
  std::priority_queue<Entry, std::vector<Entry>, EntryCompare> queue_;
  // Process-wide simulator metrics; the heap gauge is last-writer-wins
  // when several schedulers coexist (e.g. benchmark iterations).
  obs::Counter* ev_scheduled_;
  obs::Counter* ev_fired_;
  obs::Counter* ev_cancelled_;
  obs::Gauge* heap_size_;
};

}  // namespace pandarus::sim
