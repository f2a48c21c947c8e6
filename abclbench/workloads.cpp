#include "workloads.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <memory>

#include "abcl/abcl.hpp"
#include "apps/nqueens.hpp"
#include "ckpt/snapshot.hpp"
#include "obs/metrics.hpp"
#include "sim/parallel_machine.hpp"
#include "span_tracer.hpp"

namespace abclbench {

namespace {

using namespace abcl;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Known N-queens solution counts (OEIS A000170): an oracle independent of
// the simulated search.
constexpr std::int64_t kQueensSolutions[] = {1,  1,   0,   0,   2,    10,    4,
                                             40, 92, 352, 724, 2680, 14200};

std::uint64_t mix(std::uint64_t x) {  // SplitMix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ------------------------------------------------ hot-spot actor program --

// Every actor is born on node 0 and runs a self-sending kick chain; every
// 16th step also pokes a seeded peer, so stubs and redirect caches carry
// traffic once the peer has migrated. The finished chain reports its step
// count to a completion latch.
struct HotActor {
  std::uint64_t steps = 0;
  std::uint64_t pokes = 0;
  MailAddr peer;
  MailAddr latch;
  PatternId poke = 0;
  PatternId done = 0;
};

struct HotInitFrame : Frame {
  Word w[6];
  static void init(HotInitFrame& f, const Msg& m) {
    for (int i = 0; i < 6; ++i) f.w[i] = m.at(i);
  }
  static Status run(Ctx&, HotActor& self, HotInitFrame& f) {
    ABCL_BEGIN(f);
    self.peer = MailAddr::from_words(f.w[0], f.w[1]);
    self.latch = MailAddr::from_words(f.w[2], f.w[3]);
    self.poke = static_cast<PatternId>(f.w[4]);
    self.done = static_cast<PatternId>(f.w[5]);
    ABCL_END();
  }
};

struct HotKickFrame : Frame {
  Word fuel = 0;
  PatternId pat = 0;
  static void init(HotKickFrame& f, const Msg& m) {
    f.fuel = m.at(0);
    f.pat = m.pattern;
  }
  static Status run(Ctx& ctx, HotActor& self, HotKickFrame& f) {
    ABCL_BEGIN(f);
    self.steps += 1;
    ctx.charge(200);
    if (self.steps % 16 == 0) ctx.send_past(self.peer, self.poke, nullptr, 0);
    if (f.fuel > 0) {
      Word arg = f.fuel - 1;
      ctx.send_past(ctx.self_addr(), f.pat, &arg, 1);
    } else {
      Word steps = self.steps;
      ctx.send_past(self.latch, self.done, &steps, 1);
    }
    ABCL_END();
  }
};

struct HotPokeFrame : Frame {
  static void init(HotPokeFrame&, const Msg&) {}
  static Status run(Ctx& ctx, HotActor& self, HotPokeFrame& f) {
    ABCL_BEGIN(f);
    self.pokes += 1;
    ctx.charge(100);
    ABCL_END();
  }
};

struct HotspotProgram {
  PatternId init = 0, kick = 0, poke = 0;
  CompletionPatterns latch;
  const core::ClassInfo* cls = nullptr;
};

HotspotProgram register_hotspot(core::Program& prog) {
  HotspotProgram hp;
  hp.latch = register_completion_latch(prog);
  hp.init = prog.patterns().intern("hot.init", 6);
  hp.kick = prog.patterns().intern("hot.kick", 1);
  hp.poke = prog.patterns().intern("hot.poke", 0);
  ClassDef<HotActor> def(prog, "HotActor");
  def.migratable();
  def.method<HotInitFrame>(hp.init);
  def.method<HotKickFrame>(hp.kick);
  def.method<HotPokeFrame>(hp.poke);
  hp.cls = &def.info();
  return hp;
}

// ------------------------------------------------------------- set-up ------

struct Built {
  core::Program prog;
  apps::NQueensProgram np;
  HotspotProgram hp;
  apps::NQueensParams qp;
  std::unique_ptr<World> world;
  MailAddr latch;
};

bool is_queens(Kind k) { return k != Kind::kHotspotMigrate; }

WorldConfig config_for(const Plan& plan, const Sizes& sz, std::uint64_t seed,
                       int host_threads) {
  // Every knob is pinned here; the environment is never consulted.
  WorldConfig cfg;
  cfg.with_seed(seed).with_host_threads(host_threads > 0 ? host_threads : -1);
  switch (plan.kind) {
    case Kind::kNQueensSerial:
    case Kind::kNQueensParallel:
      // Random placement makes the seed move the object layout; with the
      // default round-robin placement the seed would be inert.
      cfg.with_nodes(sz.queens_nodes)
          .with_placement(remote::PlacementKind::kRandom);
      break;
    case Kind::kHotspotMigrate: {
      remote::MigrationConfig mc;
      mc.enabled = true;
      mc.interval = 8;
      mc.hysteresis = 2;
      mc.max_batch = 4;
      mc.min_queue = 6;
      mc.seed = seed;
      cfg.with_nodes(sz.hot_nodes).with_migration(mc);
      break;
    }
    case Kind::kRecoveryFaults: {
      net::FaultConfig fc;
      fc.enabled = true;
      fc.drop_ppm = 50'000;  // drop=0.05
      fc.dup_ppm = 10'000;   // dup=0.01
      fc.seed = seed;
      ckpt::CheckpointConfig ck;
      ck.enabled = true;
      ck.at = sz.ckpt_interval;
      cfg.with_nodes(sz.recovery_nodes)
          .with_placement(remote::PlacementKind::kRandom)
          .with_faults(fc)
          .with_ckpt(ck);
      break;
    }
  }
  return cfg;
}

void boot_queens(Built& b) {
  const apps::NQueensParams& p = b.qp;
  const apps::NQueensProgram& np = b.np;
  b.world->boot(0, [&](Ctx& ctx) {
    b.latch = ctx.create_local(*np.latch.cls, {});
    ctx.send_past(b.latch, np.latch.expect, {1});
    Word work = (static_cast<Word>(p.charge_base) << 16) |
                static_cast<Word>(p.charge_per_col);
    Word args[9] = {b.latch.word_node(), b.latch.word_ptr(), np.latch.done,
                    np.done,             static_cast<Word>(p.n) << 8,
                    0,                   0,
                    0,                   work};
    MailAddr root = ctx.create_local(*np.node_cls, args, 9);
    ctx.send_past(root, np.go, nullptr, 0);
  });
}

void boot_hotspot(Built& b, const Sizes& sz, std::uint64_t seed) {
  const HotspotProgram& hp = b.hp;
  b.world->boot(0, [&](Ctx& ctx) {
    b.latch = ctx.create_local(*hp.latch.cls, {});
    ctx.send_past(b.latch, hp.latch.expect, {static_cast<Word>(sz.hot_actors)});
    std::vector<MailAddr> actors;
    actors.reserve(static_cast<std::size_t>(sz.hot_actors));
    for (int i = 0; i < sz.hot_actors; ++i) {
      actors.push_back(ctx.create_local(*hp.cls, {}));
    }
    for (std::size_t i = 0; i < actors.size(); ++i) {
      const MailAddr peer = actors[mix(seed ^ (i << 20)) % actors.size()];
      ctx.send_past(actors[i], hp.init,
                    {peer.word_node(), peer.word_ptr(), b.latch.word_node(),
                     b.latch.word_ptr(), hp.poke, hp.latch.done});
    }
    for (const MailAddr& a : actors) ctx.send_past(a, hp.kick, {sz.hot_fuel});
  });
}

std::unique_ptr<Built> setup(const Plan& plan, const Sizes& sz,
                             std::uint64_t seed, int host_threads,
                             SpanTracer* tracer, SetupTimes& times) {
  auto b = std::make_unique<Built>();
  const auto t0 = Clock::now();
  {
    Scoped s(tracer, "program_build");
    if (is_queens(plan.kind)) {
      b->np = apps::register_nqueens(b->prog);
      b->qp = apps::NQueensParams::paper_calibrated(sz.queens_n);
    } else {
      b->hp = register_hotspot(b->prog);
    }
    b->prog.finalize();
  }
  const auto t1 = Clock::now();
  {
    Scoped s(tracer, "world_ctor");
    b->world = std::make_unique<World>(
        b->prog, config_for(plan, sz, seed, host_threads));
  }
  const auto t2 = Clock::now();
  if (tracer != nullptr) b->world->attach_tracer(tracer);
  {
    Scoped s(tracer, "boot");
    if (is_queens(plan.kind)) {
      boot_queens(*b);
    } else {
      boot_hotspot(*b, sz, seed);
    }
  }
  const auto t3 = Clock::now();
  times.program_s = seconds(t0, t1);
  times.ctor_s = seconds(t1, t2);
  times.boot_s = seconds(t2, t3);
  return b;
}

// ------------------------------------------------------------ figures ------

struct Usage {
  double cpu_s;
  std::uint64_t nvcsw;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {tv(ru.ru_utime) + tv(ru.ru_stime),
          static_cast<std::uint64_t>(ru.ru_nvcsw)};
}

// The aggregate figures the metrics derive from: World totals, network and
// fault counters, and the parallel driver's window counts.
void collect(World& w, Iteration& it) {
  it.stats = w.total_stats();
  it.alloc = w.total_alloc_stats();
  it.net = w.network().stats();
  it.faults = w.network().fault_stats();
  it.heap_mb = static_cast<double>(w.total_heap_bytes()) / kMiB;
  it.mean_utilization = w.mean_utilization();
  if (const auto* pm = dynamic_cast<sim::ParallelMachine*>(&w.machine())) {
    it.windows = pm->windows_run();
    it.occupancy_sum = pm->occupancy_sum();
  }
}

void check_fault_identities(const World& w, Checks& checks) {
  const net::FaultStats fs = w.network().fault_stats();
  checks.expect(fs.delivered == w.network().stats().packets,
                "fault identity delivered == packets");
  checks.expect(fs.delivered + fs.dup_suppressed == fs.copies_enqueued,
                "fault identity delivered + dup_suppressed == copies_enqueued");
}

std::int64_t expected_solutions(int n) {
  constexpr int kKnown = sizeof kQueensSolutions / sizeof kQueensSolutions[0];
  return n >= 0 && n < kKnown ? kQueensSolutions[n] : -1;
}

// recovery_faults: run in run(max_time) slices with a capture at every
// boundary, keep the final metrics, destroy the world, restore the middle
// snapshot and replay it to quiescence.
void run_recovery(Built& b, const Sizes& sz, SpanTracer* tracer, Iteration& it,
                  Checks& checks) {
  std::vector<std::string> snaps;
  sim::Instr boundary = sz.ckpt_interval;
  RunReport rep;
  for (;;) {
    {
      Scoped s(tracer, "run");
      rep = b.world->run(boundary);
    }
    it.quanta += rep.quanta;
    if (rep.stop_reason == StopReason::kQuiesced) break;
    const auto c0 = Clock::now();
    {
      Scoped s(tracer, "checkpoint");
      ckpt::MemSink sink;
      b.world->checkpoint(sink);
      snaps.push_back(sink.take());
    }
    it.capture_s.push_back(seconds(c0, Clock::now()));
    boundary += sz.ckpt_interval;
  }
  const std::int64_t want = expected_solutions(sz.queens_n);
  checks.expect(latch_state(b.latch).total == want,
                "uninterrupted run finds the known solution count");
  check_fault_identities(*b.world, checks);
  it.sim_ms = rep.sim_ms;
  {
    Scoped s(tracer, "stats");
    collect(*b.world, it);
  }
  {
    Scoped s(tracer, "metrics_json");
    it.metrics = obs::metrics_json(*b.world);
  }
  checks.expect(snaps.size() >= 2, "run spans at least two checkpoints");
  if (snaps.empty()) return;
  const sim::Instr final_time = rep.sim_time;
  const std::string mid = std::move(snaps[snaps.size() / 2]);
  snaps.clear();
  it.snapshot_mb = static_cast<double>(mid.size()) / kMiB;
  {
    Scoped s(tracer, "world_dtor");
    b.world.reset();  // restore re-maps the arenas at their recorded bases
  }
  const auto r0 = Clock::now();
  std::unique_ptr<World> restored;
  {
    Scoped s(tracer, "restore");
    ckpt::MemSource src(mid);
    restored = World::restore(b.prog, src);
  }
  const auto r1 = Clock::now();
  if (tracer != nullptr) restored->attach_tracer(tracer);
  RunReport rep2;
  {
    Scoped s(tracer, "run");
    rep2 = restored->run();
  }
  const auto r2 = Clock::now();
  it.restore_s = seconds(r0, r1);
  it.replay_s = seconds(r1, r2);
  it.replay_quanta = rep2.quanta;
  checks.expect(rep2.stop_reason == StopReason::kQuiesced &&
                    rep2.sim_time == final_time,
                "replay quiesces at the uninterrupted end time");
  checks.expect(latch_state(b.latch).total == want,
                "replay finds the known solution count");
  check_fault_identities(*restored, checks);
  std::string replayed;
  {
    Scoped s(tracer, "metrics_json");
    replayed = obs::metrics_json(*restored);
  }
  checks.expect(replayed == it.metrics,
                "restored metrics_json equals the uninterrupted run's");
  b.world = std::move(restored);
}

}  // namespace

void Checks::expect(bool ok, const char* what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "abclbench: check failed: %s\n", what);
  }
}

const std::vector<Plan>& all_plans() {
  // The parallel workloads run ParallelMachine with one worker, which the
  // driver runs inline on the calling thread: they measure the windowed
  // driver's own cost (per-window scan, outbox merge, trace replay) against
  // the serial Machine, not the worker handshake. On the shared 4-vCPU
  // virtual machine the benchmark was built on, two or three workers drew
  // hypervisor steal that slowed whole runs up to 4x and spread run_s
  // across seeds by about its median.
  static const std::vector<Plan> plans = {
      {Kind::kNQueensSerial, "nqueens_serial", 0},
      {Kind::kNQueensParallel, "nqueens_parallel", 1},
      {Kind::kHotspotMigrate, "hotspot_migrate", 1},
      {Kind::kRecoveryFaults, "recovery_faults", 0},
  };
  return plans;
}

bool find_plan(const std::string& name, Plan* out) {
  for (const Plan& p : all_plans()) {
    if (name == p.name) {
      *out = p;
      return true;
    }
  }
  return false;
}

Iteration run_iteration(const Plan& plan, const Sizes& sz, std::uint64_t seed,
                        int host_threads, SpanTracer* tracer, Checks& checks) {
  Iteration it;
  std::unique_ptr<Built> b =
      setup(plan, sz, seed, host_threads, tracer, it.setup);
  const Usage u0 = usage_now();
  const auto t0 = Clock::now();
  if (plan.kind == Kind::kRecoveryFaults) {
    run_recovery(*b, sz, tracer, it, checks);
  } else {
    RunReport rep;
    {
      Scoped s(tracer, "run");
      rep = b->world->run();
    }
    const CompletionLatch& latch = latch_state(b->latch);
    if (is_queens(plan.kind)) {
      checks.expect(
          latch.done() && latch.total == expected_solutions(sz.queens_n),
          "N-queens finds the known solution count");
    } else {
      const auto steps = static_cast<std::int64_t>(sz.hot_actors) *
                         static_cast<std::int64_t>(sz.hot_fuel + 1);
      checks.expect(latch.done() && latch.total == steps,
                    "every hot-spot chain completes all its steps");
    }
    it.quanta = rep.quanta;
    it.sim_ms = rep.sim_ms;
  }
  const auto t1 = Clock::now();
  const Usage u1 = usage_now();
  it.run_s = seconds(t0, t1);
  it.cpu_s = u1.cpu_s - u0.cpu_s;
  it.vol_ctx_switches = u1.nvcsw - u0.nvcsw;

  if (plan.kind != Kind::kRecoveryFaults) {
    {
      Scoped s(tracer, "stats");
      collect(*b->world, it);
    }
    Scoped s(tracer, "metrics_json");
    it.metrics = obs::metrics_json(*b->world);
  }
  if (plan.kind == Kind::kHotspotMigrate) {
    checks.expect(it.stats.migrations_out == it.stats.migrations_in,
                  "migrations out equal migrations in");
    checks.expect(it.stats.migrations_out > 0, "the hot node sheds actors");
    const core::NodeStats& hot = b->world->node(0).stats();
    it.hot_node_objects = static_cast<std::uint64_t>(sz.hot_actors) -
                          hot.migrations_out + hot.migrations_in;
  }
  {
    Scoped s(tracer, "world_dtor");
    b.reset();
  }
  return it;
}

SetupTimes setup_only(const Plan& plan, const Sizes& sz, std::uint64_t seed) {
  SetupTimes t;
  setup(plan, sz, seed, plan.host_threads, nullptr, t);
  return t;
}

}  // namespace abclbench
