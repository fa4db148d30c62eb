// Parallel matching driver (paper §5.5: "any future systematic and
// scalable analysis designs, such as parallelization, will be especially
// valuable").
//
// Jobs are independent in Algorithm 1, so the driver partitions the job
// index range over a thread pool and merges per-chunk results in chunk
// order — output is byte-identical to the serial run.  Each chunk runs
// Matcher::match_jobs, so it adds its funnel deltas once.
#pragma once

#include "core/exact.hpp"
#include "parallel/thread_pool.hpp"

namespace pandarus::core {

class ParallelMatchDriver {
 public:
  ParallelMatchDriver(const Matcher& matcher, parallel::ThreadPool& pool)
      : matcher_(&matcher), pool_(&pool) {}

  /// Same contract as Matcher::run, parallelized.
  [[nodiscard]] MatchResult run(const MatchOptions& options) const;

 private:
  const Matcher* matcher_;
  parallel::ThreadPool* pool_;
};

}  // namespace pandarus::core
