#include "core/parallel_driver.hpp"

#include "obs/trace.hpp"

namespace pandarus::core {

MatchResult ParallelMatchDriver::run(const MatchOptions& options) const {
  const obs::ScopedSpan span("match/parallel_run", "core",
                             static_cast<std::int64_t>(options.method));
  const std::size_t n = matcher_->store().jobs().size();

  MatchResult out;
  out.jobs = parallel::parallel_reduce<std::vector<MatchedJob>>(
      *pool_, n,
      [this, &options](std::vector<MatchedJob>& acc, std::size_t begin,
                       std::size_t end) {
        matcher_->match_jobs(begin, end, options, acc);
      },
      [](std::vector<MatchedJob>& into, std::vector<MatchedJob>&& chunk) {
        into.insert(into.end(), std::make_move_iterator(chunk.begin()),
                    std::make_move_iterator(chunk.end()));
      });
  out.method = options.method;
  out.jobs_considered = n;
  return out;
}

}  // namespace pandarus::core
