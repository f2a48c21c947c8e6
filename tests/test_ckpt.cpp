// Checkpoint/restore tests: the ABCLSIM_CHECKPOINT spec grammar, the
// WorldConfig precedence contract (from_env + with_* overrides), stop
// reasons, quanta accounting across a restore, snapshot determinism
// (byte-identical re-capture), the never-a-partial-world integrity gates
// (versioning, truncation, corrupted-byte fuzz, out-of-range fields) and
// the snapshot-equivalence oracle: run-to-T + checkpoint + restore +
// continue must be byte-identical to the uninterrupted run across the
// serial and host-parallel drivers, with faults and migration both off and
// on — plus a crash-recovery drill that loses a segment of the run and
// replays it from the last checkpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "abcl/machine_api.hpp"
#include "abcl/termination.hpp"
#include "apps/nqueens.hpp"
#include "ckpt/snapshot.hpp"
#include "fuzz/interp.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/program_gen.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/parallel_machine.hpp"

namespace {

using namespace abcl;

constexpr int kSerial = -1;

// Saves/restores one environment variable around a test body.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

ckpt::CheckpointConfig at_config(std::uint64_t at) {
  ckpt::CheckpointConfig ck;
  ck.enabled = true;
  ck.at = at;
  return ck;
}

// ------------------------------------------------ spec grammar + knob ------

TEST(CkptSpec, UnsetOrOffMeansDisabled) {
  std::string err;
  for (const char* text : {static_cast<const char*>(nullptr), "", "off"}) {
    auto cfg = ckpt::parse_checkpoint_spec(text, &err);
    ASSERT_TRUE(cfg.has_value()) << err;
    EXPECT_FALSE(cfg->enabled);
  }
}

TEST(CkptSpec, ParsesAtAndOptionalPath) {
  std::string err;
  auto cfg = ckpt::parse_checkpoint_spec("at=5000", &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  EXPECT_TRUE(cfg->enabled);
  EXPECT_EQ(cfg->at, 5000u);
  EXPECT_TRUE(cfg->path.empty());

  cfg = ckpt::parse_checkpoint_spec(" at = 12 , path = /tmp/w.ck ", &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  EXPECT_EQ(cfg->at, 12u);
  EXPECT_EQ(cfg->path, "/tmp/w.ck");
}

TEST(CkptSpec, ToStringRoundTrips) {
  for (const char* text : {"off", "at=5000", "at=12,path=/tmp/w.ck"}) {
    std::string err;
    auto cfg = ckpt::parse_checkpoint_spec(text, &err);
    ASSERT_TRUE(cfg.has_value()) << err;
    auto again = ckpt::parse_checkpoint_spec(to_string(*cfg).c_str(), &err);
    ASSERT_TRUE(again.has_value()) << err;
    EXPECT_EQ(*cfg, *again);
    EXPECT_EQ(to_string(*cfg), to_string(*again));
  }
}

TEST(CkptSpec, GarbageNeverSilentlyDisables) {
  for (const char* text : {"at=zap", "at=0", "path=/tmp/x", "at=5,at=6",
                           "bogus=1", "at=", "at=5,"}) {
    std::string err;
    auto cfg = ckpt::parse_checkpoint_spec(text, &err);
    EXPECT_FALSE(cfg.has_value()) << text;
    EXPECT_NE(err.find("checkpoint spec"), std::string::npos) << err;
  }
}

TEST(CkptSpec, ValidateRejectsZeroBoundary) {
  ckpt::CheckpointConfig cfg;
  cfg.enabled = true;
  cfg.at = 0;
  std::string err;
  EXPECT_FALSE(ckpt::validate_checkpoint_config(cfg, &err));
  EXPECT_NE(err.find("at must be >= 1"), std::string::npos) << err;
  cfg.enabled = false;  // a disabled config is always valid
  EXPECT_TRUE(ckpt::validate_checkpoint_config(cfg, &err));
}

TEST(CkptEnv, UnsetMeansDisabled) {
  ScopedEnv e("ABCLSIM_CHECKPOINT", nullptr);
  EXPECT_FALSE(WorldConfig::from_env().ckpt.enabled);
}

TEST(CkptEnv, ReadsFullSpec) {
  ScopedEnv e("ABCLSIM_CHECKPOINT", "at=777,path=snap.bin");
  WorldConfig cfg = WorldConfig::from_env();
  EXPECT_TRUE(cfg.ckpt.enabled);
  EXPECT_EQ(cfg.ckpt.at, 777u);
  EXPECT_EQ(cfg.ckpt.path, "snap.bin");
}

TEST(CkptEnvDeath, GarbageAbortsWithDiagnostic) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScopedEnv e("ABCLSIM_CHECKPOINT", "at=nope");
  EXPECT_DEATH({ WorldConfig::from_env(); }, "ABCLSIM_CHECKPOINT");
}

// ------------------------------------------- config precedence contract ----

// Last-wins precedence, direction 1: every environment-controlled knob is
// read by from_env(), and a subsequent with_* override replaces it.
// Direction 2: overriding one knob leaves every other env-derived knob
// untouched, and a repeated with_* keeps the last value.
TEST(ConfigPrecedence, EnvThenBuilderOverrideForEveryKnob) {
  ScopedEnv e1("ABCLSIM_HOST_THREADS", "3");
  ScopedEnv e2("ABCLSIM_FAULTS", "drop=0.05,seed=9");
  ScopedEnv e3("ABCLSIM_MIGRATION", "interval=16,seed=3");
  ScopedEnv e4("ABCLSIM_CHECKPOINT", "at=123,path=env.ck");

  WorldConfig cfg = WorldConfig::from_env();
  // from_env() picked up every variable.
  EXPECT_EQ(cfg.host_threads, 3);
  EXPECT_TRUE(cfg.faults.enabled);
  EXPECT_EQ(cfg.faults.drop_ppm, 50'000u);
  EXPECT_TRUE(cfg.migration.enabled);
  EXPECT_EQ(cfg.migration.interval, 16u);
  EXPECT_TRUE(cfg.ckpt.enabled);
  EXPECT_EQ(cfg.ckpt.at, 123u);

  // with_* overrides win over the environment, knob by knob.
  net::FaultConfig fc;
  fc.enabled = true;
  fc.dup_ppm = 10'000;
  remote::MigrationConfig mc;
  mc.enabled = true;
  mc.interval = 64;
  cfg.with_host_threads(7)
      .with_faults(fc)
      .with_migration(mc)
      .with_ckpt(at_config(456));
  EXPECT_EQ(cfg.host_threads, 7);
  EXPECT_EQ(cfg.faults.dup_ppm, 10'000u);
  EXPECT_EQ(cfg.faults.drop_ppm, 0u);
  EXPECT_EQ(cfg.migration.interval, 64u);
  EXPECT_EQ(cfg.ckpt.at, 456u);
  EXPECT_TRUE(cfg.ckpt.path.empty());
}

TEST(ConfigPrecedence, OverridingOneKnobLeavesTheOthersAlone) {
  ScopedEnv e1("ABCLSIM_HOST_THREADS", "3");
  ScopedEnv e2("ABCLSIM_FAULTS", "drop=0.05,seed=9");
  ScopedEnv e3("ABCLSIM_MIGRATION", nullptr);
  ScopedEnv e4("ABCLSIM_CHECKPOINT", "at=123");

  WorldConfig cfg = WorldConfig::from_env().with_nodes(64).with_seed(5);
  EXPECT_EQ(cfg.nodes, 64);
  EXPECT_EQ(cfg.seed, 5u);
  // Env-derived knobs survive unrelated with_* calls.
  EXPECT_EQ(cfg.host_threads, 3);
  EXPECT_TRUE(cfg.faults.enabled);
  EXPECT_TRUE(cfg.ckpt.enabled);
  EXPECT_EQ(cfg.ckpt.at, 123u);

  // Repeated with_* on the same knob: last one wins.
  cfg.with_seed(9).with_seed(11);
  EXPECT_EQ(cfg.seed, 11u);
  cfg.with_ckpt(at_config(7)).with_ckpt(at_config(8));
  EXPECT_EQ(cfg.ckpt.at, 8u);
}

// ------------------------------------------------- world-level contract ----

TEST(CkptWorldDeath, CheckpointWithoutConfigDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::Program prog;
  fuzz::register_interp(prog);
  prog.finalize();
  World w(prog, WorldConfig{});
  ckpt::MemSink sink;
  EXPECT_DEATH({ w.checkpoint(sink); }, "not built with checkpointing");
}

TEST(CkptWorld, StopReasonsAndToString) {
  EXPECT_STREQ(to_string(StopReason::kQuiesced), "quiesced");
  EXPECT_STREQ(to_string(StopReason::kMaxTime), "max_time");
  EXPECT_STREQ(to_string(StopReason::kCheckpointRequested),
               "checkpoint_requested");

  const fuzz::Spec spec = fuzz::generate(1);
  {
    // No checkpoint: a truncated run reports kMaxTime, a full one kQuiesced.
    fuzz::FuzzWorld fw(spec, kSerial);
    RunReport r = fw.world().run(1);
    EXPECT_EQ(r.stop_reason, StopReason::kMaxTime);
    r = fw.world().run();
    EXPECT_EQ(r.stop_reason, StopReason::kQuiesced);
    EXPECT_TRUE(fw.latch().done());
    EXPECT_FALSE(fw.world().work_remaining());
  }
}

TEST(CkptWorld, ResumedQuantaAccountingAcrossRestore) {
  const fuzz::Spec spec = fuzz::generate(2);
  const fuzz::RunResult base = fuzz::run_spec(spec, kSerial);
  const std::uint64_t at = base.sim_time / 2 + 1;

  fuzz::FuzzWorld fw(spec, kSerial, nullptr, sim::CostModel::ap1000(),
                     at_config(at));
  RunReport r1 = fw.world().run();
  EXPECT_EQ(r1.stop_reason, StopReason::kCheckpointRequested);
  EXPECT_TRUE(fw.world().work_remaining());
  // The driver stops *starting* quanta keyed past `at`; the final quantum
  // may carry a clock beyond it, but the run stopped well short of the end.
  EXPECT_LT(r1.sim_time, base.sim_time);
  EXPECT_EQ(fw.world().resumed_quanta(), 0u);

  ckpt::MemSink sink;
  fw.checkpoint_to(sink);
  ckpt::MemSource src(sink.take());
  fw.restore_world(src);
  EXPECT_EQ(fw.world().resumed_quanta(), r1.quanta);

  RunReport r2 = fw.world().run();
  EXPECT_EQ(r2.stop_reason, StopReason::kQuiesced);
  EXPECT_EQ(r1.quanta + r2.quanta, base.quanta);
  EXPECT_EQ(r2.sim_time, base.sim_time);
  EXPECT_TRUE(fw.latch().done());
}

TEST(CkptWorld, FileCheckpointIsTransparentAndRecaptureRoundTrips) {
  const fuzz::Spec spec = fuzz::generate(3);
  const fuzz::RunResult base = fuzz::run_spec(spec, kSerial);
  ckpt::CheckpointConfig ck = at_config(base.sim_time / 2 + 1);
  ck.path = ::testing::TempDir() + "abclsim_snap.bin";

  // Fire-and-forget: a path-configured checkpoint writes the file at the
  // boundary and resumes inside the same run() call, so a
  // checkpoint-unaware caller sees the uninterrupted run's results.
  fuzz::FuzzWorld fw(spec, kSerial, nullptr, sim::CostModel::ap1000(), ck);
  RunReport r1 = fw.world().run();
  EXPECT_EQ(r1.stop_reason, StopReason::kQuiesced);
  EXPECT_EQ(r1.quanta, base.quanta);
  EXPECT_EQ(r1.sim_time, base.sim_time);
  EXPECT_TRUE(fw.latch().done());
  std::optional<std::string> file = obs::read_file(ck.path);
  ASSERT_TRUE(file.has_value());

  // Restoring the mid-run snapshot rewinds the world to the boundary, and
  // recapturing the restored world is byte-identical to the file — restore
  // is lossless and serialization is canonical (capture twice to also pin
  // that checkpoint() itself doesn't perturb state).
  ckpt::FileSource src(ck.path);
  fw.restore_world(src);
  ckpt::MemSink a, b;
  fw.checkpoint_to(a);
  fw.checkpoint_to(b);
  EXPECT_EQ(a.bytes(), b.bytes());
  EXPECT_EQ(a.bytes(), *file);

  // Replaying from the boundary finishes exactly like the baseline.
  RunReport r2 = fw.world().run();
  EXPECT_EQ(fw.world().resumed_quanta() + r2.quanta, base.quanta);
  EXPECT_EQ(r2.sim_time, base.sim_time);
  EXPECT_TRUE(fw.latch().done());
  std::remove(ck.path.c_str());
}

TEST(CkptWorld, RestoredDriverRunsTheSameWindowsAtAnyWidth) {
  // Snapshots carry no driver state: a world captured at 1 worker restores
  // under whatever width the caller picks. Every width runs the same flat
  // windows from the boundary; only the shard balancer follows the width.
  const fuzz::Spec spec = fuzz::generate(2);
  const fuzz::RunResult base = fuzz::run_spec(spec, kSerial);
  const std::uint64_t at = base.sim_time / 2 + 1;

  fuzz::FuzzWorld fw(spec, /*host_threads=*/1, nullptr,
                     sim::CostModel::ap1000(), at_config(at));
  RunReport r1 = fw.world().run();
  EXPECT_EQ(r1.stop_reason, StopReason::kCheckpointRequested);
  ckpt::MemSink sink;
  fw.checkpoint_to(sink);

  // 0 keeps the snapshot's 1 worker; kSerial restores onto the Machine.
  std::uint64_t windows = 0, occupancy = 0;
  for (int restore_threads : {0, kSerial, 2, 8}) {
    SCOPED_TRACE("restore_threads=" + std::to_string(restore_threads));
    ckpt::MemSource src(sink.bytes());
    fw.restore_world(src, nullptr, restore_threads);
    RunReport r2 = fw.world().run();
    EXPECT_EQ(r2.stop_reason, StopReason::kQuiesced);
    EXPECT_EQ(r2.sim_time, base.sim_time);
    EXPECT_TRUE(fw.latch().done());
    auto* pm = dynamic_cast<sim::ParallelMachine*>(&fw.world().machine());
    if (restore_threads == kSerial) {
      EXPECT_EQ(pm, nullptr);
      continue;
    }
    ASSERT_NE(pm, nullptr);
    EXPECT_EQ(pm->balanced_shards(), restore_threads > 1);
    if (restore_threads == 0) {
      windows = pm->windows_run();
      occupancy = pm->occupancy_sum();
      EXPECT_GT(windows, 0u);
    } else {
      EXPECT_EQ(pm->windows_run(), windows);
      EXPECT_EQ(pm->occupancy_sum(), occupancy);
    }
  }
}

// ------------------------------------------- never a partial world ---------

std::string snapshot_bytes(std::uint64_t seed) {
  const fuzz::Spec spec = fuzz::generate(seed);
  const fuzz::RunResult base = fuzz::run_spec(spec, kSerial);
  fuzz::FuzzWorld fw(spec, kSerial, nullptr, sim::CostModel::ap1000(),
                     at_config(base.sim_time / 2 + 1));
  fw.world().run();
  ckpt::MemSink sink;
  fw.checkpoint_to(sink);
  return sink.take();
}

// A Program with the same registry the snapshot was captured under. The
// corrupted streams below die inside Reader validation, before any World
// state exists — which is exactly the contract under test. Each stream is
// restored from memory and from a file, the source real on-disk
// checkpoints come back through.
void expect_restore_death(const std::string& bytes, const char* diagnostic) {
  core::Program prog;
  fuzz::register_interp(prog);
  register_completion_latch(prog);
  prog.finalize();
  {
    SCOPED_TRACE("MemSource");
    ckpt::MemSource src(bytes);
    EXPECT_DEATH({ World::restore(prog, src); }, diagnostic);
  }
  // A threadsafe death test's child re-runs the body and rewrites the same
  // bytes here while the parent waits; only the parent lives to remove it.
  const std::string path = ::testing::TempDir() + "abclsim_damaged.bin";
  {
    ckpt::FileSink sink(path);
    sink.write(bytes.data(), bytes.size());
  }
  {
    SCOPED_TRACE("FileSource");
    ckpt::FileSource src(path);
    EXPECT_DEATH({ World::restore(prog, src); }, diagnostic);
  }
  std::remove(path.c_str());
}

TEST(CkptIntegrityDeath, TruncatedAndFramedStreamsNeverBuildAWorld) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string bytes = snapshot_bytes(4);
  ASSERT_GT(bytes.size(), 48u);

  expect_restore_death(bytes.substr(0, 20),
                       "shorter than the snapshot header");
  expect_restore_death(bytes.substr(0, bytes.size() - 7),
                       "payload shorter than the header claims");
  expect_restore_death(bytes + "x", "trailing bytes after the snapshot");

  std::string s = bytes;
  s[0] ^= 0x5a;  // magic (header bytes 0..7)
  expect_restore_death(s, "bad magic");

  s = bytes;
  s[8] ^= 0x5a;  // version (header bytes 8..11)
  expect_restore_death(s, "snapshot version");

  s = bytes;
  s[16] ^= 0x5a;  // program fingerprint (header bytes 16..23)
  expect_restore_death(s, "different Program");

  s = bytes;
  s[32] ^= 0x5a;  // checksum (header bytes 32..39)
  expect_restore_death(s, "checksum mismatch");
}

TEST(CkptIntegrityDeath, CorruptedPayloadBytesNeverBuildAWorld) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string bytes = snapshot_bytes(4);
  const std::size_t payload = bytes.size() - 40;
  ASSERT_GT(payload, 8u);
  // One flipped byte at each of several positions spread across the
  // payload; every one must be caught by the up-front checksum.
  for (std::size_t frac : {0u, 1u, 2u, 3u, 4u}) {
    std::string s = bytes;
    s[40 + (payload - 1) * frac / 4] ^= 0x5a;
    expect_restore_death(s, "checksum mismatch");
  }
}

// The payload checksum's guarantee, checked exhaustively on small buffers:
// any change confined to one aligned 8-byte word, or to the zero-padded
// tail, changes the sum. Lengths cover every lane and tail position.
TEST(CkptChecksum, AnySingleWordChangeIsCaught) {
  const std::uint64_t masks[] = {1, 1ull << 63, 0xff00, 0x9e3779b97f4a7c15ull};
  for (std::size_t n = 0; n <= 72; ++n) {
    std::string buf(n, '\0');
    for (std::size_t i = 0; i < n; ++i) {
      buf[i] = static_cast<char>((i * 37 + n) & 0xff);
    }
    const std::uint64_t sum = ckpt::checksum(buf.data(), n);
    for (std::size_t w = 0; w < n; w += 8) {
      const std::size_t len = std::min<std::size_t>(8, n - w);
      for (std::uint64_t m : masks) {
        std::uint64_t word = 0;
        std::memcpy(&word, buf.data() + w, len);
        std::uint64_t changed = word ^ m;
        std::string s = buf;
        std::memcpy(s.data() + w, &changed, len);
        if (s == buf) continue;  // the mask only touched padding
        EXPECT_NE(ckpt::checksum(s.data(), n), sum)
            << "n=" << n << " word=" << w / 8 << " mask=" << m;
      }
    }
  }
}

// Overwrites the u32 config word at `payload_off` and re-seals the checksum,
// so the stream passes every framing gate and only field validation can
// reject it.
std::string with_config_word(std::string bytes, std::size_t payload_off,
                             std::uint32_t v) {
  constexpr std::size_t kHeader = 40;
  constexpr std::size_t kChecksumOff = 32;
  std::memcpy(&bytes[kHeader + payload_off], &v, sizeof v);
  const std::uint64_t sum =
      ckpt::checksum(bytes.data() + kHeader, bytes.size() - kHeader);
  std::memcpy(&bytes[kChecksumOff], &sum, sizeof sum);
  return bytes;
}

TEST(CkptIntegrityDeath, OutOfRangeConfigFieldsAreRejectedOnDecode) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string bytes = snapshot_bytes(4);
  // The payload opens with the node count, then the topology word.
  expect_restore_death(with_config_word(bytes, 4, 200),
                       "checkpoint restore: bad topology 200");
  expect_restore_death(with_config_word(bytes, 0, 0),
                       "checkpoint restore: bad nodes 0");
  expect_restore_death(with_config_word(bytes, 0, 1025),
                       "checkpoint restore: bad nodes 1025");
}

TEST(CkptIntegrityDeath, DifferentProgramIsRejectedByFingerprint) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string bytes = snapshot_bytes(4);
  // A program missing the completion latch's handlers: same binary, wrong
  // registry. The fingerprint gate must fire before anything is built.
  core::Program prog;
  fuzz::register_interp(prog);
  prog.finalize();
  ckpt::MemSource src(bytes);
  EXPECT_DEATH({ World::restore(prog, src); }, "different Program");
}

// --------------------------------------- snapshot-equivalence oracle -------

TEST(CkptEquivalence, SmokeAcrossDriversAndCrashRecovery) {
  for (std::uint64_t seed : {1ull, 7ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    fuzz::OracleResult r = fuzz::check_spec_checkpoint(fuzz::generate(seed));
    EXPECT_TRUE(r.ok) << r.failure;
  }
}

TEST(CkptEquivalence, ExplicitBoundariesAndLateCheckpoint) {
  const fuzz::Spec spec = fuzz::generate(5);
  const fuzz::RunResult base = fuzz::run_spec(spec, kSerial);
  // A boundary past quiescence: the world drains first, the snapshot
  // captures the drained world, and the resumed run is a no-op.
  fuzz::RunResult late =
      fuzz::run_spec_with_checkpoint(spec, kSerial, base.sim_time + 1000);
  EXPECT_EQ(late.metrics_json, base.metrics_json);
  EXPECT_EQ(late.trace_hash, base.trace_hash);
  EXPECT_EQ(late.quanta, base.quanta);
  // An early boundary right after boot.
  fuzz::RunResult early = fuzz::run_spec_with_checkpoint(spec, kSerial, 1);
  EXPECT_EQ(early.metrics_json, base.metrics_json);
  EXPECT_EQ(early.trace_hash, base.trace_hash);
}

// ----------------------------------------------- sinks and handoff -------

TEST(CkptSink, OwnedHandoffAdoptsIntoAnEmptySinkAndAppendsOtherwise) {
  ckpt::MemSink empty;
  std::string big(1 << 20, 'x');
  const char* data = big.data();
  empty.write_owned(std::move(big));
  EXPECT_EQ(empty.bytes().size(), std::size_t{1} << 20);
  EXPECT_EQ(empty.bytes().data(), data);  // adopted, not copied

  ckpt::MemSink sink;
  sink.write("head", 4);
  sink.write_owned(std::string("tail"));
  EXPECT_EQ(sink.bytes(), "headtail");
}

TEST(CkptSink, FileAndMemoryCapturesRestoreTheSame) {
  const fuzz::Spec spec = fuzz::generate(4);
  const fuzz::RunResult base = fuzz::run_spec(spec, kSerial);
  const std::string path = ::testing::TempDir() + "abclsim_sink_snap.bin";

  fuzz::FuzzWorld fw(spec, kSerial, nullptr, sim::CostModel::ap1000(),
                     at_config(base.sim_time / 2 + 1));
  ASSERT_EQ(fw.world().run().stop_reason, StopReason::kCheckpointRequested);
  ckpt::MemSink mem;
  fw.checkpoint_to(mem);
  {
    ckpt::FileSink file(path);
    fw.checkpoint_to(file);
  }
  std::optional<std::string> on_disk = obs::read_file(path);
  ASSERT_TRUE(on_disk.has_value());
  EXPECT_EQ(*on_disk, mem.bytes());

  // Each source restores a world that recaptures to the same bytes and
  // finishes like the uninterrupted run, with the same metrics.
  std::string metrics[2];
  for (bool from_file : {false, true}) {
    SCOPED_TRACE(from_file ? "FileSource" : "MemSource");
    if (from_file) {
      ckpt::FileSource src(path);
      fw.restore_world(src);
    } else {
      ckpt::MemSource src(mem.bytes());
      fw.restore_world(src);
    }
    ckpt::MemSink again;
    fw.checkpoint_to(again);
    EXPECT_EQ(again.bytes(), mem.bytes());
    RunReport r = fw.world().run();
    EXPECT_EQ(r.stop_reason, StopReason::kQuiesced);
    EXPECT_EQ(r.sim_time, base.sim_time);
    EXPECT_TRUE(fw.latch().done());
    metrics[from_file ? 1 : 0] = obs::metrics_json(fw.world());
  }
  EXPECT_EQ(metrics[0], metrics[1]);
  std::remove(path.c_str());
}

// ------------------------------------------------ dedup rows ------------

// Does any destination's dedup row skip a source between two it has heard
// from? Does any hold a spilled sequence?
bool dedup_has_gap(const net::Network& net) {
  const std::int32_t n = net.topology().num_nodes();
  for (std::int32_t d = 0; d < n; ++d) {
    const net::DedupRow* row = net.dedup_row(d);
    if (row == nullptr) continue;
    int state = 0;  // 0: none touched yet, 1: touched run, 2: gap after it
    for (std::int32_t s = 0; s < n; ++s) {
      const bool t = row->touched(s);
      if (state == 0 && t) state = 1;
      if (state == 1 && !t) state = 2;
      if (state == 2 && t) return true;
    }
  }
  return false;
}

bool dedup_has_spill(const net::Network& net) {
  for (std::int32_t d = 0; d < net.topology().num_nodes(); ++d) {
    const net::DedupRow* row = net.dedup_row(d);
    if (row != nullptr && row->spill_size() > 0) return true;
  }
  return false;
}

// Boots paper-calibrated N-queens(8) on a 4-node world with random
// placement under `fc`, checkpointing at the config's boundary.
std::unique_ptr<World> boot_nqueens8(core::Program& prog,
                                     const apps::NQueensProgram& np,
                                     const net::FaultConfig& fc,
                                     sim::Instr step, MailAddr& latch) {
  const apps::NQueensParams qp = apps::NQueensParams::paper_calibrated(8);
  WorldConfig cfg;
  cfg.with_nodes(4)
      .with_seed(11)
      .with_placement(remote::PlacementKind::kRandom)
      .with_faults(fc)
      .with_ckpt(at_config(step));
  auto world = std::make_unique<World>(prog, cfg);
  world->boot(0, [&](Ctx& ctx) {
    latch = ctx.create_local(*np.latch.cls, {});
    ctx.send_past(latch, np.latch.expect, {1});
    Word work = (static_cast<Word>(qp.charge_base) << 16) |
                static_cast<Word>(qp.charge_per_col);
    Word args[9] = {latch.word_node(), latch.word_ptr(), np.latch.done,
                    np.done,           static_cast<Word>(qp.n) << 8,
                    0,                 0,
                    0,                 work};
    MailAddr root = ctx.create_local(*np.node_cls, args, 9);
    ctx.send_past(root, np.go, nullptr, 0);
  });
  return world;
}

// Finishes `world` from its snapshot `snap`, then restores the snapshot
// into a fresh world (and hands its network to `check_restored`):
// recapturing it must give the same bytes, and replaying it must end
// exactly where the uninterrupted run did.
void expect_restore_roundtrips(
    std::unique_ptr<World> world, core::Program& prog,
    const ckpt::MemSink& snap, MailAddr latch,
    const std::function<void(const net::Network&)>& check_restored = {}) {
  RunReport end = world->run();
  ASSERT_EQ(end.stop_reason, StopReason::kQuiesced);
  const std::string metrics = obs::metrics_json(*world);
  EXPECT_EQ(latch_state(latch).total, 92);  // 8-queens solutions
  world.reset();  // restore re-maps the arenas at their recorded bases

  ckpt::MemSource src(snap.bytes());
  std::unique_ptr<World> restored = World::restore(prog, src);
  if (check_restored) check_restored(restored->network());
  ckpt::MemSink again;
  restored->checkpoint(again);
  EXPECT_EQ(again.bytes().size(), snap.bytes().size());
  EXPECT_EQ(again.bytes(), snap.bytes());
  RunReport replay = restored->run();
  EXPECT_EQ(replay.stop_reason, StopReason::kQuiesced);
  EXPECT_EQ(replay.sim_time, end.sim_time);
  EXPECT_EQ(obs::metrics_json(*restored), metrics);
}

TEST(CkptWorld, DedupRowsWithGapsAndSpillsRoundTrip) {
  // Long reorder delays let 64+ later packets of a channel overtake a
  // delayed one, so its successors spill; an early boundary catches rows
  // that have heard from some sources but not from those in between.
  core::Program prog;
  const apps::NQueensProgram np = apps::register_nqueens(prog);
  prog.finalize();
  net::FaultConfig fc;
  fc.enabled = true;
  fc.drop_ppm = 50'000;
  fc.dup_ppm = 20'000;
  fc.delay_ppm = 300'000;
  fc.delay_max = 1'000'000;
  fc.seed = 3;
  const sim::Instr step = 2'000;
  MailAddr latch;
  std::unique_ptr<World> world = boot_nqueens8(prog, np, fc, step, latch);

  ckpt::MemSink snap;
  for (sim::Instr at = step;; at += step) {
    RunReport r = world->run(at);
    ASSERT_NE(r.stop_reason, StopReason::kQuiesced)
        << "no boundary had both a gapped and a spilled dedup row";
    if (dedup_has_gap(world->network()) && dedup_has_spill(world->network())) {
      world->checkpoint(snap);
      break;
    }
  }
  expect_restore_roundtrips(std::move(world), prog, snap, latch,
                            [](const net::Network& net) {
                              EXPECT_TRUE(dedup_has_gap(net));
                              EXPECT_TRUE(dedup_has_spill(net));
                            });
}

// Destination queues are written in their own iteration order. Heavy
// reorder delays push most deliveries into the middle of deep queues, and
// a boundary mid-run leaves them partly popped; their snapshot must still
// be canonical (restore, recapture, same bytes).
TEST(CkptWorld, DelayedDeliveryQueuesRoundTrip) {
  core::Program prog;
  const apps::NQueensProgram np = apps::register_nqueens(prog);
  prog.finalize();
  net::FaultConfig fc;
  fc.enabled = true;
  fc.delay_ppm = 500'000;
  fc.delay_max = 4'096;
  fc.seed = 23;
  const sim::Instr step = 2'000;
  const std::size_t kDeepQueue = 32;
  MailAddr latch;
  std::unique_ptr<World> world = boot_nqueens8(prog, np, fc, step, latch);

  ckpt::MemSink snap;
  for (sim::Instr at = step;; at += step) {
    RunReport r = world->run(at);
    ASSERT_NE(r.stop_reason, StopReason::kQuiesced)
        << "no boundary had a deep delivery queue";
    std::size_t deepest = 0;
    for (NodeId d = 0; d < 4; ++d) {
      deepest = std::max(deepest, world->network().pending(d));
    }
    if (deepest >= kDeepQueue) {
      world->checkpoint(snap);
      break;
    }
  }
  EXPECT_GT(world->network().fault_stats().delays, 0u);
  expect_restore_roundtrips(std::move(world), prog, snap, latch);
}

// The corpus gates. Every seed: uninterrupted serial baseline vs
// checkpoint+restore under serial and 1/2/8 workers, a cross-driver
// restore, and a crash-recovery replay — all byte-identical.
TEST(CkptFuzz, SnapshotEquivalenceCorpus) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    fuzz::OracleResult r = fuzz::check_spec_checkpoint(fuzz::generate(seed));
    ASSERT_TRUE(r.ok) << r.failure;
  }
}

TEST(CkptFuzz, SnapshotEquivalenceUnderFaultsAndMigration) {
  net::FaultConfig fc;
  fc.enabled = true;
  fc.drop_ppm = 80'000;
  fc.dup_ppm = 40'000;
  fc.delay_ppm = 80'000;
  fc.seed = 17;
  remote::MigrationConfig mc;
  mc.enabled = true;
  mc.interval = 8;
  mc.hysteresis = 1;
  mc.max_batch = 4;
  mc.min_queue = 2;
  mc.seed = 5;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    fuzz::Spec spec = fuzz::generate(seed);
    spec.faults = fc;
    spec.migration = mc;
    fuzz::OracleResult r = fuzz::check_spec_checkpoint(spec);
    ASSERT_TRUE(r.ok) << r.failure;
  }
}

}  // namespace
