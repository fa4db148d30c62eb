#include "obs/sampler.hpp"

#include <utility>

#include "obs/event_log.hpp"

namespace pandarus::obs {

void Sampler::add_column(std::string name, Probe probe) {
  names_.push_back(std::move(name));
  probes_.push_back(std::move(probe));
}

void Sampler::add_emitter(Emitter emitter) {
  emitters_.push_back(std::move(emitter));
}

void Sampler::set_row_observer(RowObserver observer) {
  row_observer_ = std::move(observer);
}

void Sampler::sample_at(std::int64_t ts) {
  std::vector<std::int64_t> values;
  values.reserve(probes_.size());
  for (const Probe& probe : probes_) values.push_back(probe());

  if (EventLog* log = log_) {
    Event event("sample", ts, ticks_);
    for (std::size_t i = 0; i < names_.size(); ++i) {
      // field() is &&-qualified (chained-temporary builder); it appends
      // in place, so the returned reference can be dropped here.
      static_cast<void>(std::move(event).field(names_[i], values[i]));
    }
    log->emit(std::move(event));
  }
  if (row_observer_) row_observer_(ts, names_, values);
  ++ticks_;

  for (const Emitter& emitter : emitters_) emitter(ts);
}

}  // namespace pandarus::obs
