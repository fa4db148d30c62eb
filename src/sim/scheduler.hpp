// Discrete-event simulation core.
//
// A single-threaded scheduler with a monotonic clock and a queue of
// (time, sequence) ordered events.  Ties are broken by insertion order,
// which — together with the seeded RNG — makes every campaign run
// bit-for-bit deterministic.  Events may be cancelled or moved (the
// transfer engine moves completion events whenever link sharing
// changes).
//
// Storage.  Callbacks live in a slab of reusable slots; each slot holds
// one callback and the `seq` of its live queue entry, and an intrusive
// free list recycles slots.  Every push takes a fresh `seq`, and an
// entry is live iff its slot still carries that `seq`: cancelling or
// firing an event clears its slot, so a recycled slot never revives a
// stale entry, and an `EventHandle` ({scheduler, slot, seq}) goes inert
// the moment its event fires, is cancelled or is moved through another
// copy of the handle.
//
// The queue is a monotone radix queue of trivially copyable
// {time, seq, slot} entries.  Popped times never decrease, so entries are
// bucketed by how their time differs from `base`, the last popped time:
// bucket 0 holds the entries at base, and bucket b >= 1 those whose time
// first differs from base at bit b-1, so every entry of bucket b precedes
// every entry of bucket b+1.  A pop takes bucket 0's oldest entry; when
// bucket 0 is empty it first moves the lowest occupied bucket down
// around that bucket's minimum time, which becomes base, appending the
// entries in the order it reads them.  Entries of equal time always
// share a bucket and every push carries the largest `seq` so far, so
// each bucket holds its equal-time entries in `seq` order and bucket 0
// pops in exact (time, seq) order without a sort.  (time, seq) is a
// total order, so the queue pops exactly what a heap over it would pop,
// in the same order, cancelled entries included.  Each bucket keeps its
// minimum time, so run_until() reads the front without popping.
// Buckets are chains of fixed-size blocks recycled through one free
// list, so the scheduler allocates nothing to push, pop or move an event
// once the slab and the blocks have grown to the campaign's working set,
// and reschedule() keeps the callback it already holds.
//
// Cancelled entries are not removed from the queue; they are skipped,
// and counted in `pandarus_sim_events_cancelled_total`, when popped.
// Until then `queued_count()` and the `pandarus_sim_heap_size` gauge
// count them, and one output depends on that count: the `heap` field of
// the event stream's `sched_epoch` lines.
//
// Lifetime.  An EventHandle points at its Scheduler and must not be used
// (cancel, pending, reschedule) after that Scheduler is destroyed;
// destroying or overwriting a handle never touches the scheduler.  Every
// handle in the simulator lives in a component (TransferEngine,
// PandaServer) that a campaign constructs after its Scheduler and so
// destroys first.  The Scheduler is neither copyable nor movable, so a
// handle's pointer stays valid for the scheduler's whole life.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
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
    /// True while the event is scheduled and not yet fired, cancelled or
    /// moved through another copy of this handle.
    [[nodiscard]] bool pending() const noexcept;

   private:
    friend class Scheduler;
    EventHandle(Scheduler* owner, std::uint32_t slot,
                std::uint64_t seq) noexcept
        : owner_(owner), slot_(slot), seq_(seq) {}
    Scheduler* owner_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint64_t seq_ = 0;
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
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::uint64_t processed_count() const noexcept {
    return processed_;
  }
  /// Queue entries still held.  Cancelled and moved-away entries count
  /// until they are popped; `sched_epoch` events report it as `heap`.
  [[nodiscard]] std::uint64_t queued_count() const noexcept {
    return size_;
  }

  /// Schedules `fn` at absolute time `t`; times in the past are clamped
  /// to now() so causality is never violated.
  EventHandle schedule_at(SimTime t, Callback fn);

  /// Schedules `fn` after `delay` (clamped to >= 0) from now().
  EventHandle schedule_after(SimDuration delay, Callback fn);

  /// Moves the pending event `handle` refers to to max(t, now()), keeping
  /// its callback, and points `handle` at the moved event.  Firing order,
  /// queued_count() and the scheduled/fired/cancelled counters come out
  /// exactly as after `handle.cancel()` followed by `schedule_at(t, fn)`
  /// with the same callback: the move takes one new `seq` and leaves the
  /// old entry queued as a cancelled one.  Returns false, and
  /// changes nothing, when `handle` is not pending on this scheduler
  /// (fired, cancelled, moved through another copy, or default).
  bool reschedule(EventHandle& handle, SimTime t);

  /// Runs until the queue is empty.
  void run();

  /// Runs all events with time <= `t`, then advances the clock to `t`.
  ///
  /// Known horizon behaviour, kept on purpose: the loop tests the time
  /// of the queue's front entry, which may be a cancelled one, and step()
  /// then fires the next *live* event whatever its time.  So with an
  /// event cancelled at 10 and a live one at 30, run_until(20) fires the
  /// one at 30 (and leaves the clock there).  scenario::run_campaign
  /// decides `drained` (an empty queue) after its last run_until, and this
  /// sweep also empties a queue whose remaining entries are all
  /// cancelled; a bounded loop would leave them queued, which can move
  /// `sched_epoch` `heap` values and `drained`.  Changing it is a
  /// behaviour change of its own.
  void run_until(SimTime t);

  /// Fires at most one event (skipping cancelled entries); returns false
  /// when the queue had no live events.
  bool step();

 private:
  /// One queue entry: live iff `slots_[slot].seq == seq`.
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Entry> && sizeof(Entry) == 24);
  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  struct Slot {
    Callback fn;
    std::uint64_t seq = kNoSeq;        ///< seq of the live entry; kNoSeq: free
    std::uint32_t next_free = kNoSlot;  ///< free-list link while free
  };
  /// 12 KiB of entries: the buckets' partly filled tail blocks stay
  /// small beside a paper-scale campaign's ~125k-entry peak.
  static constexpr std::uint32_t kBlockEntries = 512;
  struct Block {
    std::array<Entry, kBlockEntries> entries;
    Block* next;  ///< next block of the bucket, or of the free list
  };
  /// A FIFO chain of blocks holding entries [begin, end) from `head`
  /// to `tail`.  Only bucket 0 is read from the front, so every other
  /// bucket has `begin == 0`.
  struct Bucket {
    Block* head = nullptr;  ///< nullptr: empty
    Block* tail = nullptr;
    std::uint32_t begin = 0;  ///< next entry to pop in `head`
    std::uint32_t end = 0;    ///< next free entry in `tail`
    SimTime min = 0;          ///< earliest time held, while not empty
  };
  /// Queued times lie in [0, 2^63), so two differ at bit 62 at most.
  static constexpr std::size_t kBuckets = 64;

  void push(SimTime t, std::uint64_t seq, std::uint32_t slot);
  /// Removes and returns the earliest entry; the queue must not be empty.
  Entry pop();
  /// Time of the earliest entry; the queue must not be empty.  Never
  /// moves base.
  [[nodiscard]] SimTime front_time() const noexcept;
  /// The bucket of a time >= base: 0 at base, else one past the highest
  /// bit where the two differ.
  [[nodiscard]] std::size_t bucket_of(SimTime t) const noexcept;
  void append(std::size_t bucket, const Entry& entry);
  Block* take_block();
  void recycle(Block* block) noexcept;
  /// Clears `slot` (dropping its callback's captures) and recycles it.
  void release(std::uint32_t slot) noexcept;

  const obs::Session session_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t epoch_ = 0;  ///< run_until calls completed (event log)
  /// The last popped time, or now() when a push found the queue empty.
  SimTime base_ = 0;
  std::uint64_t size_ = 0;      ///< entries queued, cancelled ones too
  std::uint64_t occupied_ = 0;  ///< bit b set iff bucket b is not empty
  std::array<Bucket, kBuckets> buckets_{};
  std::vector<std::unique_ptr<Block>> blocks_;  ///< owns every block
  Block* free_blocks_ = nullptr;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  // Process-wide simulator metrics; the size gauge is last-writer-wins
  // when several schedulers coexist (e.g. benchmark iterations).
  obs::Counter* ev_scheduled_;
  obs::Counter* ev_fired_;
  obs::Counter* ev_cancelled_;
  obs::Gauge* heap_size_;
};

inline bool Scheduler::EventHandle::pending() const noexcept {
  return owner_ != nullptr && owner_->slots_[slot_].seq == seq_;
}

inline bool Scheduler::EventHandle::cancel() noexcept {
  if (!pending()) return false;
  owner_->release(slot_);
  return true;
}

}  // namespace pandarus::sim
