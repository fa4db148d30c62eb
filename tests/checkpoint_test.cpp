// Checkpoint/resume: snapshot round trips, torn and older-format
// snapshot fallback, per-day snapshot emission from run_campaign, the
// core resume invariant — the resumed stream is byte-identical to an
// uninterrupted run, so any salvaged on-disk prefix splices back to
// full parity — and rejection of a snapshot whose store digest differs.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "obs/event_log.hpp"
#include "obs/recover.hpp"
#include "scenario/campaign.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/config.hpp"
#include "telemetry/io.hpp"
#include "util/crc32.hpp"

namespace pandarus {
namespace {

/// Temp checkpoint directory under the test's working directory;
/// recursively cleared on scope exit (flat layout, known file names).
class TempDir {
 public:
  explicit TempDir(std::string path) : path_(std::move(path)) {
    ::mkdir(path_.c_str(), 0777);
  }
  ~TempDir() {
    for (std::int64_t day = 0; day < 64; ++day) {
      char name[64];
      std::snprintf(name, sizeof name, "%s/ckpt-day-%04lld.pckpt",
                    path_.c_str(), static_cast<long long>(day));
      std::remove(name);
    }
    ::rmdir(path_.c_str());
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

using scenario::Checkpoint;

Checkpoint sample_checkpoint(std::int64_t day) {
  Checkpoint ckpt;
  ckpt.config_digest = 0xABCDEF;
  ckpt.day = day;
  ckpt.sim_now = (day + 1) * 86'400'000;
  ckpt.log_watermark = 1234;
  ckpt.log_accepted = 1200;
  ckpt.log_dropped = 34;
  ckpt.log_bytes = 99'000;
  ckpt.prefix_bytes = 98'765;
  ckpt.prefix_crc = 0xDEADBEEF;
  ckpt.flows_tracked = true;
  ckpt.fingerprint = {11, 22, 33, 44, 55, 66, 77, 88, 99};
  return ckpt;
}

void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

TEST(CheckpointTest, SnapshotRoundTrip) {
  TempDir dir("ckpt_roundtrip");
  const Checkpoint ckpt = sample_checkpoint(3);
  ASSERT_TRUE(scenario::write_checkpoint(ckpt, dir.path()));
  std::string error;
  const auto loaded = scenario::load_latest_checkpoint(dir.path(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->config_digest, ckpt.config_digest);
  EXPECT_EQ(loaded->day, ckpt.day);
  EXPECT_EQ(loaded->sim_now, ckpt.sim_now);
  EXPECT_EQ(loaded->log_watermark, ckpt.log_watermark);
  EXPECT_EQ(loaded->log_accepted, ckpt.log_accepted);
  EXPECT_EQ(loaded->log_dropped, ckpt.log_dropped);
  EXPECT_EQ(loaded->log_bytes, ckpt.log_bytes);
  EXPECT_EQ(loaded->prefix_bytes, ckpt.prefix_bytes);
  EXPECT_EQ(loaded->prefix_crc, ckpt.prefix_crc);
  EXPECT_EQ(loaded->flows_tracked, ckpt.flows_tracked);
  EXPECT_EQ(loaded->fingerprint, ckpt.fingerprint);
}

TEST(CheckpointTest, TornNewestSnapshotFallsBackToPrevious) {
  TempDir dir("ckpt_torn");
  ASSERT_TRUE(scenario::write_checkpoint(sample_checkpoint(0), dir.path()));
  ASSERT_TRUE(scenario::write_checkpoint(sample_checkpoint(1), dir.path()));
  // Tear the newest snapshot: drop its last 5 bytes.
  const std::string newest = dir.path() + "/ckpt-day-0001.pckpt";
  std::FILE* f = std::fopen(newest.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(size, 5);
  ASSERT_EQ(::truncate(newest.c_str(), size - 5), 0);
  std::string error;
  const auto loaded = scenario::load_latest_checkpoint(dir.path(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->day, 0);
  // With every snapshot torn, loading fails with a diagnostic.
  ASSERT_EQ(::truncate((dir.path() + "/ckpt-day-0000.pckpt").c_str(), 3), 0);
  const auto none = scenario::load_latest_checkpoint(dir.path(), &error);
  EXPECT_FALSE(none.has_value());
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointTest, OlderFrameVersionIsRejectedByName) {
  TempDir dir("ckpt_v1");
  ASSERT_TRUE(scenario::write_checkpoint(sample_checkpoint(0), dir.path()));
  // A newer snapshot in the retired v1 frame.  Its length and CRC are
  // valid, so only the format version can reject it.
  const std::string payload = "v1 payload with three CSV blobs";
  std::string frame = "PCKPT01\n";
  put_le(frame, payload.size(), 8);
  frame += payload;
  put_le(frame, util::crc32(payload), 4);
  const std::string v1_path = dir.path() + "/ckpt-day-0001.pckpt";
  std::FILE* f = std::fopen(v1_path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(frame.data(), 1, frame.size(), f), frame.size());
  ASSERT_EQ(std::fclose(f), 0);

  std::string error;
  EXPECT_FALSE(scenario::load_checkpoint_file(v1_path, &error).has_value());
  EXPECT_NE(error.find("PCKPT01"), std::string::npos) << error;
  const auto loaded = scenario::load_latest_checkpoint(dir.path(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->day, 0);
}

TEST(CheckpointTest, ConfigDigestSeparatesSeedsNotOutputKnobs) {
  scenario::ScenarioConfig a = scenario::ScenarioConfig::small();
  scenario::ScenarioConfig b = a;
  EXPECT_EQ(scenario::config_digest(a), scenario::config_digest(b));
  b.seed = a.seed + 1;
  EXPECT_NE(scenario::config_digest(a), scenario::config_digest(b));
  b = a;
  b.days = a.days * 2;
  EXPECT_NE(scenario::config_digest(a), scenario::config_digest(b));
}

TEST(CheckpointTest, CampaignWritesPerDaySnapshotsAndStaysByteIdentical) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.seed = 7;

  // Reference: no checkpointing.
  std::string reference;
  {
    obs::EventLog log;
    (void)scenario::run_campaign(config, {.events = &log});
    log.close();
    reference = log.to_ndjson();
  }
  ASSERT_FALSE(reference.empty());

  TempDir dir("ckpt_campaign");
  std::string checkpointed;
  {
    obs::EventLog log;
    (void)scenario::run_campaign(
        config, {.events = &log, .checkpoint_dir = dir.path()});
    log.close();
    checkpointed = log.to_ndjson();
  }
  // Checkpointing is observation-only: the stream is untouched.
  EXPECT_EQ(checkpointed, reference);

  // One snapshot per drain-loop day: ceil(days) + 3-day grace window.
  std::string error;
  const auto latest = scenario::load_latest_checkpoint(dir.path(), &error);
  ASSERT_TRUE(latest.has_value()) << error;
  EXPECT_GE(latest->day, 3);
  EXPECT_EQ(latest->config_digest, scenario::config_digest(config));
  EXPECT_GT(latest->prefix_bytes, 0u);
  EXPECT_GT(latest->fingerprint.scheduler_processed, 0u);
  EXPECT_GT(latest->fingerprint.store_transfers, 0u);
  EXPECT_NE(latest->fingerprint.store_digest,
            telemetry::store_digest(telemetry::MetadataStore{}));
}

TEST(CheckpointTest, ResumeSplicesBackToByteParity) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.seed = 7;

  TempDir dir("ckpt_resume");
  std::string reference;
  {
    obs::EventLog log;
    (void)scenario::run_campaign(
        config, {.events = &log, .checkpoint_dir = dir.path()});
    log.close();
    reference = log.to_ndjson();
  }

  // Simulate the crash: the on-disk stream ends mid-line somewhere past
  // the last full flush.
  const std::string torn = reference.substr(0, reference.size() * 3 / 5);
  const obs::RecoveryReport salvage = obs::salvage_ndjson(torn);
  ASSERT_TRUE(salvage.ok);
  const std::string salvaged = torn.substr(0, salvage.salvaged_bytes);

  const scenario::ResumeOutcome resume =
      scenario::resume_campaign(config, dir.path());
  ASSERT_TRUE(resume.ok) << resume.error;
  EXPECT_TRUE(resume.had_checkpoint);
  EXPECT_GE(resume.resumed_day, 0);
  EXPECT_TRUE(resume.fingerprint_verified);
  EXPECT_TRUE(resume.prefix_verified);

  // The re-execution reconverged bit-for-bit...
  EXPECT_EQ(resume.full_ndjson, reference);
  // ...so the salvaged prefix is a prefix of it, and the splice equals
  // the uninterrupted run.
  ASSERT_LE(salvaged.size(), resume.full_ndjson.size());
  EXPECT_EQ(resume.full_ndjson.compare(0, salvaged.size(), salvaged), 0);
  EXPECT_EQ(salvaged + resume.full_ndjson.substr(salvaged.size()),
            reference);
  // The checkpointed prefix ends on a line of the regenerated stream;
  // the suffix after it carries at least the harvest.
  ASSERT_GT(resume.prefix_bytes, 0u);
  ASSERT_LT(resume.prefix_bytes, resume.full_ndjson.size());
  EXPECT_EQ(resume.full_ndjson[resume.prefix_bytes - 1], '\n');
  const std::string suffix = resume.full_ndjson.substr(resume.prefix_bytes);
  EXPECT_NE(suffix.find("\"transfer_record\""), std::string::npos);
}

TEST(CheckpointTest, ResumeRunsBesideAnotherLogAndLeavesItAlone) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.seed = 7;
  TempDir dir("ckpt_beside");
  std::string reference;
  {
    obs::EventLog log;
    (void)scenario::run_campaign(
        config, {.events = &log, .checkpoint_dir = dir.path()});
    log.close();
    reference = log.to_ndjson();
  }

  // Another log in the process, holding published lines of its own.
  obs::EventLog other;
  other.emit(obs::Event("probe", 1, std::int64_t{1}));
  other.emit(obs::Event("probe", 2, std::int64_t{2}));
  ASSERT_EQ(other.publish(), 2u);
  const std::string before = other.to_ndjson();

  const scenario::ResumeOutcome resume =
      scenario::resume_campaign(config, dir.path());
  ASSERT_TRUE(resume.ok) << resume.error;
  EXPECT_TRUE(resume.had_checkpoint);
  EXPECT_TRUE(resume.fingerprint_verified);
  EXPECT_TRUE(resume.prefix_verified);
  EXPECT_EQ(resume.full_ndjson, reference);
  // The re-execution reported to its own session only.
  EXPECT_EQ(other.events_written(), 2u);
  EXPECT_EQ(other.watermark(), 2u);
  EXPECT_EQ(other.to_ndjson(), before);
}

TEST(CheckpointTest, ResumeWithoutSnapshotsRunsFromScratch) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.seed = 7;
  TempDir dir("ckpt_empty");
  const scenario::ResumeOutcome resume =
      scenario::resume_campaign(config, dir.path());
  EXPECT_TRUE(resume.ok) << resume.error;
  EXPECT_FALSE(resume.had_checkpoint);
  EXPECT_EQ(resume.resumed_day, -1);
  EXPECT_FALSE(resume.full_ndjson.empty());
  // No checkpointed prefix: the whole stream is the suffix.
  EXPECT_EQ(resume.prefix_bytes, 0u);
}

TEST(CheckpointTest, ResumeRejectsMismatchedConfig) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.seed = 7;
  TempDir dir("ckpt_mismatch");
  {
    obs::EventLog log;
    (void)scenario::run_campaign(
        config, {.events = &log, .checkpoint_dir = dir.path()});
    log.close();
  }
  scenario::ScenarioConfig other = config;
  other.seed = 8;
  const scenario::ResumeOutcome resume =
      scenario::resume_campaign(other, dir.path());
  EXPECT_FALSE(resume.ok);
  EXPECT_NE(resume.error.find("config"), std::string::npos);
}

TEST(CheckpointTest, ResumeRejectsSnapshotWithDifferentStoreDigest) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.seed = 7;
  TempDir dir("ckpt_tamper");
  {
    obs::EventLog log;
    (void)scenario::run_campaign(
        config, {.events = &log, .checkpoint_dir = dir.path()});
    log.close();
  }
  std::string error;
  const auto latest = scenario::load_latest_checkpoint(dir.path(), &error);
  ASSERT_TRUE(latest.has_value()) << error;
  Checkpoint tampered = *latest;
  tampered.fingerprint.store_digest ^= 1;
  ASSERT_TRUE(scenario::write_checkpoint(tampered, dir.path()));

  const scenario::ResumeOutcome resume =
      scenario::resume_campaign(config, dir.path());
  EXPECT_TRUE(resume.had_checkpoint);
  EXPECT_EQ(resume.resumed_day, latest->day);
  EXPECT_FALSE(resume.ok);
  EXPECT_FALSE(resume.fingerprint_verified);
  EXPECT_TRUE(resume.prefix_verified);
  EXPECT_NE(resume.error.find("fingerprint mismatch"), std::string::npos)
      << resume.error;
}

}  // namespace
}  // namespace pandarus
