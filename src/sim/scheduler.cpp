#include "sim/scheduler.hpp"

#include <algorithm>
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
  const Entry entry{std::max(t, now_), seq, slot};
  std::size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!before(entry, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
  ev_scheduled_->inc();
  heap_size_->set(static_cast<std::int64_t>(heap_.size()));
}

Scheduler::Entry Scheduler::pop() {
  const Entry top = heap_.front();
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (size == 0) return top;
  // Sift the hole left at the root down along the earliest children,
  // then drop the old last entry into it.
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= size) break;
    const std::size_t end = std::min(first + kArity, size);
    std::size_t child = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[child])) child = c;
    }
    if (!before(heap_[child], last)) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = last;
  return top;
}

void Scheduler::release(std::uint32_t slot) noexcept {
  slots_[slot].seq = kNoSeq;
  slots_[slot].fn = nullptr;  // release captures eagerly
  slots_[slot].next_free = free_head_;
  free_head_ = slot;
}

bool Scheduler::step() {
  while (!heap_.empty()) {
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
    heap_size_->set(static_cast<std::int64_t>(heap_.size()));
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
  while (!heap_.empty() && heap_.front().time <= t) {
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
                  .field("heap", static_cast<std::uint64_t>(heap_.size())));
  }
  ++epoch_;
}

}  // namespace pandarus::sim
