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
  heap_.push_back(Entry{std::max(t, now_), seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ev_scheduled_->inc();
  heap_size_->set(static_cast<std::int64_t>(heap_.size()));
}

void Scheduler::release(std::uint32_t slot) noexcept {
  slots_[slot].seq = kNoSeq;
  slots_[slot].fn = nullptr;  // release captures eagerly
  slots_[slot].next_free = free_head_;
  free_head_ = slot;
}

bool Scheduler::step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry entry = heap_.back();
    heap_.pop_back();
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
