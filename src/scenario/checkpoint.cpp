#include "scenario/checkpoint.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/flow.hpp"
#include "util/crc32.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace pandarus::scenario {
namespace {

constexpr char kMagic[8] = {'P', 'C', 'K', 'P', 'T', '0', '2', '\n'};
/// Shared by every frame version; the two digits after it name one.
constexpr std::size_t kMagicFamily = 5;

void put_u32_le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

void put_u64_le(std::string& out, std::uint64_t v) {
  put_u32_le(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  put_u32_le(out, static_cast<std::uint32_t>(v >> 32));
}

/// Bounds-checked little-endian reader over a serialized payload; any
/// short read trips `ok` and subsequent reads return zero.
struct Reader {
  const unsigned char* p = nullptr;
  std::size_t n = 0;
  bool ok = true;

  std::uint32_t u32() {
    if (n < 4) {
      ok = false;
      return 0;
    }
    const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                            (static_cast<std::uint32_t>(p[1]) << 8) |
                            (static_cast<std::uint32_t>(p[2]) << 16) |
                            (static_cast<std::uint32_t>(p[3]) << 24);
    p += 4;
    n -= 4;
    return v;
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::uint8_t u8() {
    if (n < 1) {
      ok = false;
      return 0;
    }
    const std::uint8_t v = p[0];
    ++p;
    --n;
    return v;
  }
};

std::string serialize_payload(const Checkpoint& ckpt) {
  std::string payload;
  put_u64_le(payload, ckpt.config_digest);
  put_u64_le(payload, static_cast<std::uint64_t>(ckpt.day));
  put_u64_le(payload, static_cast<std::uint64_t>(ckpt.sim_now));
  put_u64_le(payload, ckpt.log_watermark);
  put_u64_le(payload, ckpt.log_accepted);
  put_u64_le(payload, ckpt.log_dropped);
  put_u64_le(payload, ckpt.log_bytes);
  put_u64_le(payload, ckpt.prefix_bytes);
  put_u32_le(payload, ckpt.prefix_crc);
  payload.push_back(ckpt.flows_tracked ? '\1' : '\0');
  const Fingerprint& f = ckpt.fingerprint;
  put_u64_le(payload, f.scheduler_processed);
  put_u64_le(payload, f.scheduler_queued);
  put_u64_le(payload, f.transfer_digest);
  put_u64_le(payload, f.injector_digest);
  put_u64_le(payload, f.flow_digest);
  put_u64_le(payload, f.store_jobs);
  put_u64_le(payload, f.store_files);
  put_u64_le(payload, f.store_transfers);
  put_u64_le(payload, f.store_digest);
  return payload;
}

bool parse_payload(const std::string& payload, Checkpoint& out) {
  Reader r{reinterpret_cast<const unsigned char*>(payload.data()),
           payload.size(), true};
  out.config_digest = r.u64();
  out.day = r.i64();
  out.sim_now = r.i64();
  out.log_watermark = r.u64();
  out.log_accepted = r.u64();
  out.log_dropped = r.u64();
  out.log_bytes = r.u64();
  out.prefix_bytes = r.u64();
  out.prefix_crc = r.u32();
  out.flows_tracked = r.u8() != 0;
  Fingerprint& f = out.fingerprint;
  f.scheduler_processed = r.u64();
  f.scheduler_queued = r.u64();
  f.transfer_digest = r.u64();
  f.injector_digest = r.u64();
  f.flow_digest = r.u64();
  f.store_jobs = r.u64();
  f.store_files = r.u64();
  f.store_transfers = r.u64();
  f.store_digest = r.u64();
  return r.ok && r.n == 0;
}

std::string checkpoint_name(std::int64_t day) {
  char name[48];
  std::snprintf(name, sizeof name, "ckpt-day-%04lld.pckpt",
                static_cast<long long>(day));
  return name;
}

bool read_whole_file(const std::string& path, std::string& out,
                     std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  out.clear();
  char block[1 << 16];
  while (true) {
    const std::size_t got = std::fread(block, 1, sizeof block, f);
    out.append(block, got);
    if (got < sizeof block) break;
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok && error != nullptr) *error = "read error on " + path;
  return ok;
}

}  // namespace

std::uint64_t config_digest(const ScenarioConfig& c) {
  const auto dbits = [](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  // Determinism-relevant knobs only.
  std::uint64_t h = util::hash_mix(0x70636b7074ull, c.seed, dbits(c.days));
  h = util::hash_mix(h, dbits(c.arrival_tail_days), dbits(c.slot_scale));
  h = util::hash_mix(h, c.replicated_datasets,
                     c.replicate_production_output ? 1u : 0u);
  h = util::hash_mix(h, dbits(c.carousel_waves_per_day), c.datasets_per_wave);
  h = util::hash_mix(h, dbits(c.churn_files_per_day),
                     dbits(c.churn_local_fraction));
  h = util::hash_mix(h, dbits(c.eviction_sweeps_per_day),
                     dbits(c.eviction_probability));
  h = util::hash_mix(h, static_cast<std::uint64_t>(c.sample_interval_ms),
                     c.apply_corruption ? 1u : 0u);
  h = util::hash_mix(h, dbits(c.faults.intensity), c.fault_windows.size());
  return h;
}

bool write_checkpoint(const Checkpoint& ckpt, const std::string& dir) {
  ::mkdir(dir.c_str(), 0777);  // best-effort; fopen below reports failure
  const std::string payload = serialize_payload(ckpt);
  std::string frame;
  frame.reserve(sizeof kMagic + 12 + payload.size());
  frame.append(kMagic, sizeof kMagic);
  put_u64_le(frame, payload.size());
  frame.append(payload);
  put_u32_le(frame, util::crc32(payload));

  const std::string path = dir + "/" + checkpoint_name(ckpt.day);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    util::log_warning() << "checkpoint: cannot open " << tmp;
    return false;
  }
  bool ok = std::fwrite(frame.data(), 1, frame.size(), f) == frame.size();
  ok = std::fflush(f) == 0 && ok;
  ok = ::fsync(fileno(f)) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    std::remove(tmp.c_str());
    util::log_warning() << "checkpoint: failed to write " << path;
  }
  return ok;
}

std::optional<Checkpoint> load_checkpoint_file(const std::string& path,
                                               std::string* error) {
  std::string frame;
  if (!read_whole_file(path, frame, error)) return std::nullopt;
  const std::size_t header = sizeof kMagic + 8;
  if (frame.size() >= sizeof kMagic &&
      std::memcmp(frame.data(), kMagic, kMagicFamily) == 0 &&
      std::memcmp(frame.data(), kMagic, sizeof kMagic) != 0) {
    if (error != nullptr) {
      *error = path + ": unsupported checkpoint format " +
               frame.substr(0, sizeof kMagic - 1) + " (this build reads " +
               std::string(kMagic, sizeof kMagic - 1) + ")";
    }
    return std::nullopt;
  }
  if (frame.size() < header + 4 ||
      std::memcmp(frame.data(), kMagic, sizeof kMagic) != 0) {
    if (error != nullptr) *error = path + ": not a checkpoint file";
    return std::nullopt;
  }
  Reader len_reader{
      reinterpret_cast<const unsigned char*>(frame.data() + sizeof kMagic), 8,
      true};
  const std::uint64_t payload_len = len_reader.u64();
  if (payload_len != frame.size() - header - 4) {
    if (error != nullptr) *error = path + ": truncated or torn checkpoint";
    return std::nullopt;
  }
  const std::string payload = frame.substr(header, payload_len);
  Reader crc_reader{
      reinterpret_cast<const unsigned char*>(frame.data() + header +
                                             payload_len),
      4, true};
  if (crc_reader.u32() != util::crc32(payload)) {
    if (error != nullptr) *error = path + ": checkpoint CRC mismatch";
    return std::nullopt;
  }
  Checkpoint ckpt;
  if (!parse_payload(payload, ckpt)) {
    if (error != nullptr) *error = path + ": malformed checkpoint payload";
    return std::nullopt;
  }
  return ckpt;
}

std::optional<Checkpoint> load_latest_checkpoint(const std::string& dir,
                                                 std::string* error) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (error != nullptr) *error = "cannot open directory " + dir;
    return std::nullopt;
  }
  std::vector<std::pair<std::int64_t, std::string>> candidates;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    constexpr std::string_view prefix = "ckpt-day-";
    constexpr std::string_view suffix = ".pckpt";
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    char* end = nullptr;
    const long long day = std::strtoll(digits.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') continue;
    candidates.emplace_back(day, dir + "/" + name);
  }
  ::closedir(d);
  // Newest day first; a torn final snapshot falls back to the previous
  // day instead of failing the resume.
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::string first_error;
  for (const auto& [day, path] : candidates) {
    std::string load_error;
    if (std::optional<Checkpoint> ckpt =
            load_checkpoint_file(path, &load_error)) {
      if (!first_error.empty()) {
        util::log_warning() << "checkpoint: skipped newer snapshot ("
                            << first_error << "), resuming from day " << day;
      }
      return ckpt;
    }
    if (first_error.empty()) first_error = load_error;
  }
  if (error != nullptr) {
    *error = first_error.empty() ? "no checkpoint in " + dir
                                 : std::move(first_error);
  }
  return std::nullopt;
}

CheckpointWriter::CheckpointWriter(const ScenarioConfig& config,
                                   std::string dir, obs::EventLog* log)
    : config_digest_(config_digest(config)), dir_(std::move(dir)) {
  // Registered only when active: an idle reader would pin every line.
  if (active() && log != nullptr) reader_.emplace(*log);
}

void CheckpointWriter::on_day_boundary(const detail::DayBoundary& b) {
  if (dir_.empty()) return;
  if (reader_) {
    std::string fresh;
    reader_->read(fresh);
    prefix_crc_.update(fresh);
    prefix_bytes_ += fresh.size();
  }
  Checkpoint ckpt;
  ckpt.config_digest = config_digest_;
  ckpt.day = b.day;
  ckpt.sim_now = b.sim_now;
  if (b.log != nullptr) {
    ckpt.log_watermark = b.log->watermark();
    ckpt.log_accepted = b.log->events_written();
    ckpt.log_dropped = b.log->dropped();
    ckpt.log_bytes = b.log->bytes_written();
  }
  ckpt.prefix_bytes = prefix_bytes_;
  ckpt.prefix_crc = prefix_crc_.value();
  ckpt.flows_tracked = b.flows_tracked;
  ckpt.fingerprint = b.fingerprint;
  if (write_checkpoint(ckpt, dir_)) ++written_;
}

ResumeOutcome resume_campaign(const ScenarioConfig& config,
                              const std::string& checkpoint_dir) {
  ResumeOutcome out;
  std::string load_error;
  std::optional<Checkpoint> ckpt =
      load_latest_checkpoint(checkpoint_dir, &load_error);
  if (ckpt) {
    out.had_checkpoint = true;
    out.resumed_day = ckpt->day;
    out.prefix_bytes = ckpt->prefix_bytes;
    if (ckpt->config_digest != config_digest(config)) {
      out.error =
          "resume_campaign: checkpoint was written by a different config";
      return out;
    }
  }

  // Fresh sinks for the deterministic re-execution; same defaults as a
  // from-scratch run so the terminal log_stats line matches byte for
  // byte.  No file sink, so the log keeps the whole stream for
  // full_ndjson.  No checkpoint directory: the re-run reads the crashed
  // run's snapshots and must never replace them.
  obs::EventLog log;
  obs::EventLog::Reader reader(log);

  struct VerifyState {
    util::Crc32 crc;
    std::uint64_t bytes = 0;
    bool saw_day = false;
    bool fingerprint_ok = false;
    bool prefix_ok = false;
  } state;

  const detail::DayBoundaryHook verify =
      [&state, &ckpt, &reader](const detail::DayBoundary& b) {
        std::string fresh;
        reader.read(fresh);
        state.crc.update(fresh);
        state.bytes += fresh.size();
        if (!ckpt || b.day != ckpt->day) return;
        state.saw_day = true;
        state.fingerprint_ok = b.fingerprint == ckpt->fingerprint &&
                               b.flows_tracked == ckpt->flows_tracked;
        state.prefix_ok = state.bytes == ckpt->prefix_bytes &&
                          state.crc.value() == ckpt->prefix_crc &&
                          (b.log == nullptr ||
                           (b.log->watermark() == ckpt->log_watermark &&
                            b.log->bytes_written() == ckpt->log_bytes));
      };

  std::optional<obs::FlowTracker> flows;
  obs::Session session;
  session.events = &log;
  if (ckpt && ckpt->flows_tracked) session.flows = &flows.emplace();

  out.result = detail::run_campaign(config, session, verify);

  log.close();
  out.full_ndjson = log.to_ndjson();

  if (!ckpt) {
    // Nothing to resume from (crash before the first day boundary, or
    // every snapshot torn): the from-scratch run stands on its own.
    out.ok = true;
    return out;
  }

  out.fingerprint_verified = state.saw_day && state.fingerprint_ok;
  out.prefix_verified = state.saw_day && state.prefix_ok;
  out.ok = out.fingerprint_verified && out.prefix_verified;
  if (out.ok) return out;
  if (!state.saw_day) {
    out.error = "resume_campaign: re-run never reached the checkpoint day";
  } else {
    out.error = std::string("resume_campaign: re-run diverged at day ") +
                std::to_string(ckpt->day) + " (" +
                (state.fingerprint_ok ? "" : "fingerprint ") +
                (state.prefix_ok ? "" : "prefix ") + "mismatch)";
  }
  return out;
}

}  // namespace pandarus::scenario
