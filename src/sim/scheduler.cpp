#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "obs/event_log.hpp"

namespace pandarus::sim {

Scheduler::Scheduler(obs::Session session)
    : session_(std::move(session)),
      ev_scheduled_(&obs::Registry::global().counter(
          "pandarus_sim_events_scheduled_total",
          "Events pushed onto the simulation heap")),
      ev_fired_(&obs::Registry::global().counter(
          "pandarus_sim_events_fired_total",
          "Events whose callback actually ran")),
      ev_cancelled_(&obs::Registry::global().counter(
          "pandarus_sim_events_cancelled_total",
          "Cancelled events skipped when popped")),
      heap_size_(&obs::Registry::global().gauge(
          "pandarus_sim_heap_size",
          "Entries in the simulation event heap, cancelled ones included "
          "until popped (last observed)")) {}

Scheduler::EventHandle Scheduler::schedule_at(SimTime t, Callback fn) {
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const std::uint64_t seq = next_seq_++;
  slots_[slot].fn = std::move(fn);
  slots_[slot].seq = seq;
  push(t, seq, slot);
  return EventHandle(this, slot, seq);
}

Scheduler::EventHandle Scheduler::schedule_after(SimDuration delay,
                                                 Callback fn) {
  return schedule_at(now_ + std::max<SimDuration>(delay, 0), std::move(fn));
}

bool Scheduler::reschedule(EventHandle& handle, SimTime t) {
  if (handle.owner_ != this || !handle.pending()) return false;
  const std::uint64_t seq = next_seq_++;
  slots_[handle.slot_].seq = seq;  // the old entry is now a cancelled one
  push(t, seq, handle.slot_);
  handle.seq_ = seq;
  return true;
}

void Scheduler::push(SimTime t, std::uint64_t seq, std::uint32_t slot) {
  // An empty queue restarts at now(), not at `t`: base must stay at or
  // below every later push, and the next one may come at now().  (Base
  // can pass now() once step() has popped the last, cancelled entries.)
  if (size_ == 0) base_ = now_;
  const Entry entry{std::max(t, now_), seq, slot};
  append(bucket_of(entry.time), entry);
  ++size_;
  ev_scheduled_->inc();
  heap_size_->set(static_cast<std::int64_t>(size_));
}

std::size_t Scheduler::bucket_of(SimTime t) const noexcept {
  assert(t >= base_);
  return static_cast<std::size_t>(std::bit_width(
      static_cast<std::uint64_t>(t) ^ static_cast<std::uint64_t>(base_)));
}

void Scheduler::append(std::size_t bucket, const Entry& entry) {
  Bucket& b = buckets_[bucket];
  if (b.head == nullptr) {
    b.head = b.tail = take_block();
    b.begin = b.end = 0;
    b.min = entry.time;
    occupied_ |= std::uint64_t{1} << bucket;
  } else {
    if (b.end == kBlockEntries) {
      b.tail = b.tail->next = take_block();
      b.end = 0;
    }
    b.min = std::min(b.min, entry.time);
  }
  b.tail->entries[b.end++] = entry;
}

Scheduler::Block* Scheduler::take_block() {
  Block* block = free_blocks_;
  if (block != nullptr) {
    free_blocks_ = block->next;
  } else {
    blocks_.push_back(std::make_unique_for_overwrite<Block>());
    block = blocks_.back().get();
  }
  block->next = nullptr;
  return block;
}

void Scheduler::recycle(Block* block) noexcept {
  block->next = free_blocks_;
  free_blocks_ = block;
}

SimTime Scheduler::front_time() const noexcept {
  return buckets_[static_cast<std::size_t>(std::countr_zero(occupied_))].min;
}

Scheduler::Entry Scheduler::pop() {
  if ((occupied_ & 1) == 0) {
    // The lowest occupied bucket holds the earliest entries.  Its
    // minimum becomes base, and each of its entries moves to the bucket
    // its time falls in around the new base, all below this one; bucket
    // 0 receives at least the minimum.
    const auto lowest = static_cast<std::size_t>(std::countr_zero(occupied_));
    const Bucket moving = buckets_[lowest];
    buckets_[lowest] = Bucket{};
    occupied_ &= ~(std::uint64_t{1} << lowest);
    base_ = moving.min;
    for (Block* block = moving.head; block != nullptr;) {
      const std::uint32_t end =
          block == moving.tail ? moving.end : kBlockEntries;
      for (std::uint32_t i = 0; i < end; ++i) {
        append(bucket_of(block->entries[i].time), block->entries[i]);
      }
      Block* next = block->next;
      recycle(block);
      block = next;
    }
  }
  Bucket& zero = buckets_[0];
  const Entry top = zero.head->entries[zero.begin++];
  if (zero.head == zero.tail ? zero.begin == zero.end
                             : zero.begin == kBlockEntries) {
    Block* next = zero.head->next;
    recycle(zero.head);
    if (next == nullptr) {
      zero = Bucket{};
      occupied_ &= ~std::uint64_t{1};
    } else {
      zero.head = next;
      zero.begin = 0;
    }
  }
  --size_;
  return top;
}

void Scheduler::release(std::uint32_t slot) noexcept {
  slots_[slot].seq = kNoSeq;
  slots_[slot].fn = nullptr;  // release captures eagerly
  slots_[slot].next_free = free_head_;
  free_head_ = slot;
}

bool Scheduler::step() {
  while (size_ != 0) {
    const Entry entry = pop();
    if (slots_[entry.slot].seq != entry.seq) {
      ev_cancelled_->inc();
      continue;
    }
    now_ = entry.time;
    Callback fn = std::move(slots_[entry.slot].fn);
    release(entry.slot);
    ++processed_;
    ev_fired_->inc();
    heap_size_->set(static_cast<std::int64_t>(size_));
    fn();
    return true;
  }
  heap_size_->set(0);
  return false;
}

void Scheduler::run() {
  while (step()) {
  }
}

void Scheduler::run_until(SimTime t) {
  const std::uint64_t fired_before = processed_;
  // The front is read, not popped: a pop would move base to a time past
  // `t` when the loop stops short of it, and the next schedule_at(now())
  // would land below base.
  while (size_ != 0 && front_time() <= t) {
    if (!step()) break;
  }
  now_ = std::max(now_, t);
  // One epoch per drained prefix: the campaign's day-segmented drain
  // loop shows up as a sched_epoch series in the event stream.
  if (obs::EventLog* log = session_.events) {
    log->emit(obs::Event("sched_epoch", now_,
                         static_cast<std::int64_t>(epoch_))
                  .field("fired", processed_ - fired_before)
                  .field("fired_total", processed_)
                  .field("heap", size_));
  }
  ++epoch_;
}

}  // namespace pandarus::sim
