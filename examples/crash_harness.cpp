// crash_harness: kill-based crash-injection for the telemetry sinks and
// checkpoint/resume path.
//
// One reference campaign runs to completion in-process; then, for each
// iteration, a forked child re-runs the same campaign with both durable
// sinks armed (NDJSON + colstore, written as lines are published, fsync
// per drain, per-day checkpoints) and is SIGKILLed once its events file
// grows past a seeded random byte threshold — progress-based, so the
// kill always lands mid-campaign no matter how fast the machine is.
// Some iterations also arm the write-delay hook
// (EventSinks::write_delay_us) so the kill lands *mid-write*, leaving
// a torn final line.  The parent then exercises the full recovery
// story:
//
//   1. obs::recover_ndjson_file salvages the longest valid prefix,
//   2. scenario::resume_campaign re-executes from the newest snapshot
//      (or from scratch when the kill predates the first day boundary),
//   3. the salvaged prefix must be a byte-exact prefix of the resumed
//      stream, and salvaged + suffix must equal the reference bytes,
//   4. obs::recover_colstore_file salvages the colstore file's whole
//      chunks, which must decode to a byte prefix of the reference.
//
// After all iterations the final spliced stream is replayed and matched
// (the paper's three methods); with the default --seed 7 --days 1 the
// counts are the pinned 115/250/274 that CI gates on.
//
//   crash_harness [--kills N] [--seed S] [--days D] [--dir PATH] [--keep]
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "analysis/events_replay.hpp"
#include "core/relaxed.hpp"
#include "obs/colstore.hpp"
#include "obs/event_log.hpp"
#include "obs/recover.hpp"
#include "scenario/campaign.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/config.hpp"
#include "util/rng.hpp"

namespace {

using namespace pandarus;

struct Args {
  int kills = 5;
  std::uint64_t seed = 7;
  double days = 1.0;
  std::string dir = "/tmp/pandarus-crash-harness";
  bool keep = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: crash_harness [--kills N] [--seed S] [--days D]\n"
               "                     [--dir PATH] [--keep]\n");
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  char block[1 << 16];
  while (true) {
    const std::size_t got = std::fread(block, 1, sizeof block, f);
    out.append(block, got);
    if (got < sizeof block) break;
  }
  std::fclose(f);
  return true;
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                  bytes.size();
  return std::fclose(f) == 0 && ok;
}

scenario::ScenarioConfig make_config(const Args& args) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.seed = args.seed;
  config.days = args.days;
  return config;
}

/// Decodes a colstore file back to NDJSON bytes.
std::string decode_colstore(const std::string& path) {
  obs::ColReader reader(path);
  obs::DecodedEvent event;
  std::string out;
  while (reader.next(event)) {
    obs::append_ndjson(event, out);
    out += '\n';
  }
  return out;
}

/// The child's whole life: durable sinks on, checkpoints on, run, exit.
/// Called only after fork().
[[noreturn]] void run_child(const Args& args, const std::string& events_path,
                            const std::string& col_path,
                            const std::string& ckpt_dir, int write_delay_us) {
  obs::EventSinks sinks;
  sinks.ndjson_path = events_path;
  sinks.colstore_path = col_path;
  sinks.fsync.policy = obs::FsyncPolicy::kFlush;
  sinks.write_delay_us = write_delay_us;
  obs::EventLog log(sinks);
  (void)scenario::run_campaign(make_config(args),
                               {.events = &log, .checkpoint_dir = ckpt_dir});
  log.close();
  // Skip atexit teardown: the parent's state must stay untouched.
  std::_Exit(0);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--kills") {
      const char* v = value();
      if (v == nullptr) return usage();
      args.kills = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return usage();
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--days") {
      const char* v = value();
      if (v == nullptr) return usage();
      args.days = std::atof(v);
    } else if (arg == "--dir") {
      const char* v = value();
      if (v == nullptr) return usage();
      args.dir = v;
    } else if (arg == "--keep") {
      args.keep = true;
    } else {
      return usage();
    }
  }
  ::mkdir(args.dir.c_str(), 0777);

  const scenario::ScenarioConfig config = make_config(args);

  // Reference stream, produced in-process with no file sink.
  std::string reference;
  {
    obs::EventLog log;
    (void)scenario::run_campaign(config, {.events = &log});
    log.close();
    reference = log.to_ndjson();
  }
  std::fprintf(stderr, "reference: %zu bytes\n", reference.size());

  util::Rng rng(util::hash_mix(args.seed, 0xc4a54));
  int failures = 0;
  std::string final_stream;
  for (int iter = 0; iter < args.kills; ++iter) {
    const std::string iter_dir =
        args.dir + "/iter-" + std::to_string(iter);
    const std::string ckpt_dir = iter_dir + "/ckpt";
    const std::string events_path = iter_dir + "/events.ndjson";
    const std::string col_path = iter_dir + "/events.colstore";
    ::mkdir(iter_dir.c_str(), 0777);
    std::remove(events_path.c_str());
    std::remove(col_path.c_str());

    // Kill points are drawn from the harness seed, so a CI run is
    // reproducible.  The threshold is a fraction of the reference size:
    // the parent polls the child's growing events file and kills the
    // moment it crosses, which pins the kill to a stream position on
    // any machine — a wall-clock delay would sometimes let a fast
    // child finish first.  Thresholds are stratified across iterations
    // (~10% … ~89%) so the run covers both regimes: early kills land
    // before the first snapshot is durable (resume from scratch), and
    // any threshold past the day-0 publish is *guaranteed* to find a
    // checkpoint — bytes beyond that publish only become visible after
    // the day-0 snapshot's rename, because both happen in the sim
    // thread in order.  Every other iteration arms the write-delay
    // hook, stretching each 4 KiB write block long enough for the
    // SIGKILL to land mid-line.
    const std::uint64_t kill_pct =
        10 + static_cast<std::uint64_t>(iter % 5) * 18 +
        rng.uniform_index(8);
    const std::uint64_t kill_threshold = reference.size() * kill_pct / 100;
    const int write_delay_us =
        iter % 2 == 1 ? 150 + static_cast<int>(rng.uniform_index(400)) : 0;

    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      run_child(args, events_path, col_path, ckpt_dir, write_delay_us);
    }

    std::uint64_t kill_at_bytes = 0;
    bool child_exited_early = false;
    int status = 0;
    struct timespec poll_delay;
    poll_delay.tv_sec = 0;
    poll_delay.tv_nsec = 1000000L;  // 1 ms
    while (true) {
      struct stat st;
      if (::stat(events_path.c_str(), &st) == 0 &&
          static_cast<std::uint64_t>(st.st_size) >= kill_threshold) {
        kill_at_bytes = static_cast<std::uint64_t>(st.st_size);
        break;
      }
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        child_exited_early = true;
        break;
      }
      ::nanosleep(&poll_delay, nullptr);
    }
    if (!child_exited_early) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
    }
    const bool killed = WIFSIGNALED(status);

    // --- salvage ------------------------------------------------------
    obs::RecoveryReport report;
    std::string salvaged;
    if (std::FILE* probe = std::fopen(events_path.c_str(), "rb")) {
      std::fclose(probe);
      report = obs::recover_ndjson_file(events_path, events_path);
      if (!report.ok) {
        std::fprintf(stderr, "iter %d: salvage failed: %s\n", iter,
                     report.detail.c_str());
        ++failures;
        continue;
      }
      read_file(events_path, salvaged);
    }
    // The colstore sink holds whole chunks plus at most a torn tail;
    // what survives must decode to a prefix of the reference stream.
    const obs::RecoveryReport col_report =
        obs::recover_colstore_file(col_path, col_path);
    const std::string col_salvaged =
        col_report.ok ? decode_colstore(col_path) : std::string();
    const bool col_prefix_ok =
        col_report.ok && col_salvaged.size() <= reference.size() &&
        reference.compare(0, col_salvaged.size(), col_salvaged) == 0;
    if (!col_prefix_ok) {
      std::fprintf(stderr, "iter %d: colstore salvage: %s\n", iter,
                   col_report.ok ? "not a prefix of the reference"
                                 : col_report.detail.c_str());
    }

    // --- resume -------------------------------------------------------
    scenario::ResumeOutcome resume =
        scenario::resume_campaign(config, ckpt_dir);
    if (!resume.ok) {
      std::fprintf(stderr, "iter %d: resume failed: %s\n", iter,
                   resume.error.c_str());
      ++failures;
      continue;
    }

    // --- splice + parity ---------------------------------------------
    const bool prefix_ok =
        salvaged.size() <= resume.full_ndjson.size() &&
        resume.full_ndjson.compare(0, salvaged.size(), salvaged) == 0;
    std::string spliced = salvaged;
    if (prefix_ok) spliced += resume.full_ndjson.substr(salvaged.size());
    const bool parity = prefix_ok && spliced == reference;
    if (!parity || !col_prefix_ok) ++failures;
    std::printf(
        "{\"iter\":%d,\"kill_at_bytes\":%llu,\"write_delay_us\":%d,"
        "\"killed\":%s,\"salvaged_bytes\":%llu,\"dropped_bytes\":%llu,"
        "\"torn_tail\":%s,\"had_checkpoint\":%s,\"resumed_day\":%lld,"
        "\"prefix_ok\":%s,\"parity\":%s,\"col_salvaged_events\":%llu,"
        "\"col_prefix_ok\":%s}\n",
        iter, static_cast<unsigned long long>(kill_at_bytes), write_delay_us,
        killed ? "true" : "false",
        static_cast<unsigned long long>(salvaged.size()),
        static_cast<unsigned long long>(report.dropped_bytes),
        report.truncated ? "true" : "false",
        resume.had_checkpoint ? "true" : "false",
        static_cast<long long>(resume.resumed_day),
        prefix_ok ? "true" : "false", parity ? "true" : "false",
        static_cast<unsigned long long>(col_report.salvaged_events),
        col_prefix_ok ? "true" : "false");
    if (parity) final_stream = std::move(spliced);
    if (!args.keep) {
      std::remove(events_path.c_str());
      std::remove(col_path.c_str());
    }
  }

  // The matched-counts gate: replay the last good spliced stream and
  // run the three matching methods.
  if (failures == 0 && !final_stream.empty()) {
    const std::string final_path = args.dir + "/final.ndjson";
    if (!write_file(final_path, final_stream)) {
      std::fprintf(stderr, "cannot write %s\n", final_path.c_str());
      return 1;
    }
    const analysis::ReplayResult replay =
        analysis::replay_events_file(final_path);
    const core::Matcher matcher(replay.store);
    const core::TriMatchResult tri = core::run_all_methods(matcher);
    std::printf(
        "{\"iterations\":%d,\"failures\":0,\"matched_jobs\":{"
        "\"exact\":%zu,\"rm1\":%zu,\"rm2\":%zu}}\n",
        args.kills, tri.exact.matched_job_count(),
        tri.rm1.matched_job_count(), tri.rm2.matched_job_count());
    if (!args.keep) std::remove(final_path.c_str());
  } else {
    std::printf("{\"iterations\":%d,\"failures\":%d}\n", args.kills,
                failures);
  }
  return failures == 0 ? 0 : 1;
}
