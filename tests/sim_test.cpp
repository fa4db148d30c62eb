// Unit tests for the discrete-event scheduler: ordering, tie-breaking,
// cancellation, rescheduling, slot reuse, clock semantics, nested
// scheduling.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"

namespace pandarus::sim {
namespace {

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, ClockAdvancesToEventTime) {
  Scheduler s;
  util::SimTime seen = -1;
  s.schedule_at(42, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 42);
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  util::SimTime seen = -1;
  s.schedule_at(100, [&] {
    s.schedule_after(50, [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, 150);
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  util::SimTime seen = -1;
  s.schedule_at(100, [&] {
    s.schedule_at(10, [&] { seen = s.now(); });  // in the past
  });
  s.run();
  EXPECT_EQ(seen, 100);
}

TEST(Scheduler, NegativeDelayClampsToZero) {
  Scheduler s;
  bool fired = false;
  s.schedule_after(-5, [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), 0);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  auto handle = s.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());  // second cancel is a no-op
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelAfterFireReturnsFalse) {
  Scheduler s;
  auto handle = s.schedule_at(1, [] {});
  s.run();
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(Scheduler, DefaultHandleIsInert) {
  Scheduler::EventHandle handle;
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler s;
  std::vector<util::SimTime> fired;
  for (util::SimTime t : {10, 20, 30, 40}) {
    s.schedule_at(t, [&fired, t] { fired.push_back(t); });
  }
  s.run_until(25);
  EXPECT_EQ(fired, (std::vector<util::SimTime>{10, 20}));
  EXPECT_EQ(s.now(), 25);
  s.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Scheduler, RunUntilIncludesBoundaryEvents) {
  Scheduler s;
  bool fired = false;
  s.schedule_at(25, [&] { fired = true; });
  s.run_until(25);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  Scheduler s;
  EXPECT_FALSE(s.step());
  s.schedule_at(5, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, ProcessedCountSkipsCancelled) {
  Scheduler s;
  auto h1 = s.schedule_at(1, [] {});
  s.schedule_at(2, [] {});
  h1.cancel();
  s.run();
  EXPECT_EQ(s.processed_count(), 1u);
}

TEST(Scheduler, EventsCanRescheduleThemselves) {
  Scheduler s;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) s.schedule_after(10, tick);
  };
  s.schedule_at(0, tick);
  s.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), 40);
}

TEST(Scheduler, CancelInsideEarlierEvent) {
  Scheduler s;
  bool fired = false;
  auto later = s.schedule_at(20, [&] { fired = true; });
  s.schedule_at(10, [&] { later.cancel(); });
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler s;
  util::SimTime last = -1;
  bool monotonic = true;
  for (int i = 0; i < 10'000; ++i) {
    const util::SimTime t = (i * 7919) % 1000;  // scrambled times
    s.schedule_at(t, [&, t] {
      if (t < last) monotonic = false;
      last = t;
    });
  }
  s.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(s.processed_count(), 10'000u);
}

TEST(Scheduler, RunUntilSweepsPastHorizonWhenTopIsCancelled) {
  // Known behaviour, kept on purpose (see run_until's comment): a
  // cancelled entry inside the horizon lets step() fire the next live
  // event even when it lies beyond the horizon.
  Scheduler s;
  bool fired = false;
  auto early = s.schedule_at(10, [] {});
  s.schedule_at(30, [&] { fired = true; });
  early.cancel();
  s.run_until(20);
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), 30);
}

TEST(Scheduler, RescheduleMovesEventAndKeepsCallback) {
  Scheduler s;
  std::vector<int> order;
  auto moved = s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_TRUE(s.reschedule(moved, 30));
  EXPECT_TRUE(moved.pending());
  EXPECT_EQ(s.queued_count(), 3u);  // the old entry stays until popped
  s.run_until(25);
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_TRUE(s.reschedule(moved, 5));  // past: clamped to now()
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(s.now(), 25);
  EXPECT_FALSE(moved.pending());
}

TEST(Scheduler, StaleHandleIgnoresReusedSlot) {
  Scheduler s;
  bool a_fired = false;
  bool b_fired = false;
  auto a = s.schedule_at(10, [&] { a_fired = true; });
  ASSERT_TRUE(a.cancel());
  // The free list hands A's slot straight to B.
  auto b = s.schedule_at(10, [&] { b_fired = true; });
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(a.cancel());
  EXPECT_FALSE(s.reschedule(a, 20));
  EXPECT_TRUE(b.pending());
  s.run();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
  EXPECT_EQ(s.processed_count(), 1u);
}

TEST(Scheduler, RescheduleOfFiredCancelledOrDefaultHandleIsANoOp) {
  const auto counters = [] {
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    return std::array<std::uint64_t, 3>{
        snap.counter_value("pandarus_sim_events_scheduled_total"),
        snap.counter_value("pandarus_sim_events_fired_total"),
        snap.counter_value("pandarus_sim_events_cancelled_total")};
  };
  Scheduler s;
  Scheduler other;
  auto fired = s.schedule_at(1, [] {});
  s.run_until(1);
  auto cancelled = s.schedule_at(5, [] {});
  cancelled.cancel();
  s.schedule_at(9, [] {});
  auto foreign = other.schedule_at(5, [] {});
  Scheduler::EventHandle none;

  const auto before = counters();
  const std::uint64_t queued = s.queued_count();
  for (Scheduler::EventHandle* h : {&fired, &cancelled, &none, &foreign}) {
    EXPECT_FALSE(s.reschedule(*h, 3));
  }
  EXPECT_EQ(s.queued_count(), queued);
  EXPECT_EQ(s.processed_count(), 1u);
  EXPECT_EQ(counters(), before);
  EXPECT_TRUE(foreign.pending());  // still on its own scheduler
  EXPECT_EQ(other.queued_count(), 1u);
}

/// One side of the differential test: a scheduler whose events record
/// (time, id) when they fire, and move another event when their id is a
/// multiple of three (as a rate change does from inside a callback).
/// `use_reschedule` picks how events move.
class MoveDriver {
 public:
  MoveDriver(bool use_reschedule, std::uint64_t seed)
      : use_reschedule_(use_reschedule), rng_(seed) {}

  void add(SimTime t) {
    const std::size_t id = handles_.size();
    handles_.push_back(s.schedule_at(t, callback(id)));
  }
  bool cancel(std::size_t id) { return handles_[id].cancel(); }
  bool move(std::size_t id, SimTime t) {
    if (use_reschedule_) return s.reschedule(handles_[id], t);
    if (!handles_[id].cancel()) return false;
    handles_[id] = s.schedule_at(t, callback(id));
    return true;
  }
  [[nodiscard]] std::size_t size() const { return handles_.size(); }

  Scheduler s;
  std::vector<std::pair<SimTime, std::size_t>> fired;

 private:
  Scheduler::Callback callback(std::size_t id) {
    return [this, id] {
      fired.emplace_back(s.now(), id);
      if (id % 3 == 0) {
        const std::size_t other = rng_() % handles_.size();
        move(other, s.now() + static_cast<SimTime>(rng_() % 50));
      }
    };
  }

  bool use_reschedule_;
  std::mt19937_64 rng_;
  std::vector<Scheduler::EventHandle> handles_;
};

TEST(Scheduler, RescheduleMatchesCancelPlusScheduleAt) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    MoveDriver a(/*use_reschedule=*/true, seed);
    MoveDriver b(/*use_reschedule=*/false, seed);
    std::mt19937_64 rng(seed * 7919);
    SimTime horizon = 0;
    std::size_t moves = 0;
    for (int slice = 0; slice < 300; ++slice) {
      const std::uint64_t ops = rng() % 40;
      for (std::uint64_t i = 0; i < ops; ++i) {
        const std::uint64_t op = rng() % 10;
        // Times may fall before now(); both sides clamp them alike.
        const SimTime t = horizon + static_cast<SimTime>(rng() % 200) - 20;
        if (op < 4 || a.size() == 0) {
          a.add(t);
          b.add(t);
          continue;
        }
        // Mostly recent ids, so that most cancels and moves hit a
        // pending event.
        const std::size_t id =
            a.size() - 1 - rng() % std::min<std::size_t>(a.size(), 32);
        if (op < 6) {
          ASSERT_EQ(a.cancel(id), b.cancel(id));
        } else {
          const bool moved = a.move(id, t);
          ASSERT_EQ(moved, b.move(id, t));
          if (moved) ++moves;
        }
      }
      horizon += static_cast<SimTime>(rng() % 60);
      a.s.run_until(horizon);
      b.s.run_until(horizon);
      ASSERT_EQ(a.fired, b.fired) << "seed " << seed << " slice " << slice;
      ASSERT_EQ(a.s.processed_count(), b.s.processed_count());
      ASSERT_EQ(a.s.queued_count(), b.s.queued_count());
      ASSERT_EQ(a.s.now(), b.s.now());
    }
    a.s.run();
    b.s.run();
    EXPECT_EQ(a.fired, b.fired);
    EXPECT_EQ(a.s.processed_count(), b.s.processed_count());
    EXPECT_EQ(a.s.queued_count(), 0u);
    EXPECT_GT(moves, 500u) << moves;
    EXPECT_GT(a.fired.size(), 1000u);
  }
}

/// The scheduler's documented semantics, modelled the plain way: a
/// std::priority_queue of (time, seq) entries with lazy deletion.  An
/// event is live while `live_seq[id]` names the seq of one of its
/// entries; cancelling or moving it leaves the old entry queued, to be
/// skipped (and counted) when it reaches the top.
class ReferenceScheduler {
 public:
  static constexpr std::uint64_t kDead = ~std::uint64_t{0};

  std::size_t schedule_at(SimTime t) {
    live_seq.push_back(kDead);
    push(live_seq.size() - 1, t);
    return live_seq.size() - 1;
  }
  std::size_t schedule_after(SimDuration delay) {
    return schedule_at(now + std::max<SimDuration>(delay, 0));
  }
  bool cancel(std::size_t id) {
    if (live_seq[id] == kDead) return false;
    live_seq[id] = kDead;
    return true;
  }
  bool reschedule(std::size_t id, SimTime t) {
    if (live_seq[id] == kDead) return false;
    push(id, t);
    return true;
  }
  bool step() {
    while (!queue_.empty()) {
      const Entry top = queue_.top();
      queue_.pop();
      if (live_seq[top.id] != top.seq) {
        ++cancelled;
        continue;
      }
      now = top.time;
      live_seq[top.id] = kDead;
      ++fired_count;
      fire(top.id);
      return true;
    }
    return false;
  }
  void run_until(SimTime t) {
    while (!queue_.empty() && queue_.top().time <= t) {
      if (!step()) break;
    }
    now = std::max(now, t);
  }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  /// Time of the earliest queued entry, cancelled or not.
  [[nodiscard]] SimTime front() const { return queue_.top().time; }

  SimTime now = 0;
  std::vector<std::uint64_t> live_seq;
  std::vector<std::size_t> fired;
  std::uint64_t scheduled = 0;
  std::uint64_t fired_count = 0;
  std::uint64_t cancelled = 0;

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::size_t id;
    bool operator>(const Entry& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  void push(std::size_t id, SimTime t) {
    live_seq[id] = next_seq_;
    queue_.push(Entry{std::max(t, now), next_seq_++, id});
    ++scheduled;
  }
  /// What every event does when it fires, as SchedulerUnderTest's
  /// callbacks do: record its id, and every fourth schedules a follow-up
  /// at the current time, which must fire after everything queued there.
  void fire(std::size_t id) {
    fired.push_back(id);
    if (id % 4 == 0) schedule_after(0);
  }

  std::uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
};

/// The Scheduler side of the differential test; event ids are assigned
/// in creation order, as ReferenceScheduler assigns them.
class SchedulerUnderTest {
 public:
  std::size_t schedule_at(SimTime t) {
    handles_.emplace_back();
    const std::size_t id = handles_.size() - 1;
    handles_[id] = s.schedule_at(t, callback(id));
    return id;
  }
  std::size_t schedule_after(SimDuration delay) {
    handles_.emplace_back();
    const std::size_t id = handles_.size() - 1;
    handles_[id] = s.schedule_after(delay, callback(id));
    return id;
  }
  bool cancel(std::size_t id) { return handles_[id].cancel(); }
  bool reschedule(std::size_t id, SimTime t) {
    return s.reschedule(handles_[id], t);
  }
  [[nodiscard]] std::size_t size() const { return handles_.size(); }

  Scheduler s;
  std::vector<std::size_t> fired;

 private:
  Scheduler::Callback callback(std::size_t id) {
    return [this, id] {
      fired.push_back(id);
      if (id % 4 == 0) schedule_after(0);
    };
  }

  std::vector<Scheduler::EventHandle> handles_;
};

TEST(Scheduler, MatchesReferenceModelOnRandomOperations) {
  const auto counter = [](const char* name) {
    return obs::Registry::global().counter(name).value();
  };
  const auto counters = [&] {
    return std::array<std::uint64_t, 3>{
        counter("pandarus_sim_events_scheduled_total"),
        counter("pandarus_sim_events_fired_total"),
        counter("pandarus_sim_events_cancelled_total")};
  };
  // Seeds 11-14 draw times from a narrow range, so many entries tie.
  // Seeds 21-24 draw delays log-uniformly up to 2^40 ms, so queued times
  // differ from the last popped one at every bit up to 40, and a quarter
  // of their times repeat a recent one exactly.  They also stop run_until
  // short of the earliest queued entry and then schedule at now(), and
  // now and then empty the queue (by running it dry, or by cancelling
  // every event and popping the cancelled entries) before pushing onto it.
  struct Mode {
    std::uint64_t seed;
    bool wide;
  };
  for (const Mode mode : {Mode{11, false}, Mode{12, false}, Mode{13, false},
                          Mode{14, false}, Mode{21, true}, Mode{22, true},
                          Mode{23, true}, Mode{24, true}}) {
    const std::uint64_t seed = mode.seed;
    SchedulerUnderTest real;
    ReferenceScheduler ref;
    std::mt19937_64 rng(seed);
    const auto base = counters();
    std::size_t checks = 0;
    const auto check = [&] {
      ++checks;
      ASSERT_EQ(real.fired, ref.fired) << "seed " << seed;
      ASSERT_EQ(real.s.now(), ref.now);
      ASSERT_EQ(real.s.queued_count(), ref.queued());
      ASSERT_EQ(real.s.empty(), ref.queued() == 0);
      const auto now = counters();
      ASSERT_EQ(now[0] - base[0], ref.scheduled);
      ASSERT_EQ(now[1] - base[1], ref.fired_count);
      ASSERT_EQ(now[2] - base[2], ref.cancelled);
    };
    SimTime horizon = 0;
    std::array<SimTime, 8> recent_times{};
    SimDuration widest = 0;
    std::size_t short_stops = 0;
    std::size_t empty_pushes = 0;
    const auto draw_time = [&]() -> SimTime {
      if (!mode.wide) {
        // A narrow time range, so many entries tie, and some times fall
        // before now() (both sides clamp them).
        return horizon + static_cast<SimTime>(rng() % 24) - 6;
      }
      if (rng() % 4 == 0) return recent_times[rng() % recent_times.size()];
      const std::uint64_t bits = rng() % 41;
      const SimTime t = ref.now + static_cast<SimTime>(
                                      rng() & ((std::uint64_t{1} << bits) - 1));
      recent_times[rng() % recent_times.size()] = t;
      widest = std::max(widest, t - ref.now);
      return t;
    };
    for (int op = 0; op < 10'000; ++op) {
      const SimTime t = draw_time();
      const std::uint64_t kind = rng() % 16;
      // Mostly recent ids, so most cancels and moves hit a pending event.
      const std::size_t recent = std::min<std::size_t>(real.size(), 48);
      const std::size_t id =
          recent == 0 ? 0 : real.size() - 1 - rng() % recent;
      if (kind < 4 || real.size() == 0) {
        ASSERT_EQ(real.schedule_at(t), ref.schedule_at(t));
      } else if (kind < 6) {
        const SimDuration delay = static_cast<SimDuration>(rng() % 12) - 3;
        ASSERT_EQ(real.schedule_after(delay), ref.schedule_after(delay));
      } else if (kind < 8) {
        ASSERT_EQ(real.cancel(id), ref.cancel(id));
      } else if (kind < 12) {
        ASSERT_EQ(real.reschedule(id, t), ref.reschedule(id, t));
      } else if (kind < 15) {
        ASSERT_EQ(real.s.step(), ref.step());
        check();
      } else if (!mode.wide) {
        horizon += static_cast<SimTime>(rng() % 8);
        real.s.run_until(horizon);
        ref.run_until(horizon);
        check();
      } else if (rng() % 8 == 0) {
        if (rng() % 2 == 0) {
          real.s.run();
          while (ref.step()) {
          }
        } else {
          for (std::size_t i = 0; i < real.size(); ++i) {
            ASSERT_EQ(real.cancel(i), ref.cancel(i));
          }
          ASSERT_EQ(real.s.step(), ref.step());
        }
        check();
        ASSERT_EQ(ref.queued(), 0u);
        ASSERT_EQ(real.schedule_at(t), ref.schedule_at(t));
        ASSERT_EQ(real.schedule_at(ref.now), ref.schedule_at(ref.now));
        ++empty_pushes;
      } else if (ref.queued() != 0 && ref.front() > ref.now) {
        const SimTime stop =
            ref.now + static_cast<SimTime>(
                          rng() % static_cast<std::uint64_t>(ref.front() -
                                                            ref.now));
        real.s.run_until(stop);
        ref.run_until(stop);
        check();
        ASSERT_EQ(real.schedule_at(ref.now), ref.schedule_at(ref.now));
        ++short_stops;
      } else {
        real.s.run_until(t);
        ref.run_until(t);
        check();
      }
      if (HasFatalFailure()) return;
    }
    real.s.run();
    while (ref.step()) {
    }
    check();
    EXPECT_EQ(ref.queued(), 0u);
    EXPECT_GT(ref.cancelled, 500u);
    EXPECT_GT(ref.fired.size(), 2'000u);
    EXPECT_GT(checks, 2'000u);
    if (mode.wide) {
      EXPECT_GT(widest, SimDuration{1} << 39) << "seed " << seed;
      EXPECT_GT(short_stops, 100u) << "seed " << seed;
      EXPECT_GT(empty_pushes, 20u) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace pandarus::sim
