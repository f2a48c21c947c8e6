// The parallel driver's window and shard machinery: the ShardBalancer's
// deterministic LPT packing, and the ParallelMachine's one window policy
// (flat windows whose lookahead counts the sender's send_setup): byte-
// identity to serial and identical window counters at 1/2/8 workers, with
// and without faults, and the balancer only above one worker. The cached
// window keys are exercised where they can go stale: flush-time wakeups of
// idle nodes and work injected between run(max_time) slices.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "abcl/abcl.hpp"
#include "apps/nqueens.hpp"
#include "apps/pingpong.hpp"
#include "core/object.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/parallel_machine.hpp"
#include "sim/shard_balance.hpp"
#include "sim/trace.hpp"

namespace {

using namespace abcl;
using sim::Instr;
using sim::kInstrInf;
using sim::sat_add;

// Deterministic value stream: SplitMix64 over an index.
std::uint64_t key_at(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed + (i + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z % 100'000;
}

// ------------------------------------------------------------ sat_add -----

TEST(SimTime, SatAddSaturatesAtInf) {
  EXPECT_EQ(sat_add(5, 7), 12u);
  EXPECT_EQ(sat_add(kInstrInf, 0), kInstrInf);
  EXPECT_EQ(sat_add(kInstrInf, 5), kInstrInf);
  EXPECT_EQ(sat_add(kInstrInf - 3, 5), kInstrInf);
  EXPECT_EQ(sat_add(0, kInstrInf), kInstrInf);
}

// -------------------------------------------------------- ShardBalancer ---

TEST(ShardBalance, InitialAssignmentIsRoundRobin) {
  sim::ShardBalancer bal(10, 4, 7);
  for (std::int32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(bal.assignment()[static_cast<std::size_t>(i)], i % 4);
  }
}

TEST(ShardBalance, RebalanceIsDeterministicAndConsumesQuanta) {
  auto feed = [](sim::ShardBalancer& bal, std::uint64_t salt) {
    std::vector<std::int32_t> history;
    for (int round = 0; round < 6; ++round) {
      std::vector<std::uint64_t> q(16);
      for (std::size_t i = 0; i < q.size(); ++i) {
        q[i] = key_at(salt + round, i) & 31;
      }
      bal.rebalance(q.data());
      for (std::uint64_t v : q) EXPECT_EQ(v, 0u);  // consumed
      history.insert(history.end(), bal.assignment().begin(),
                     bal.assignment().end());
    }
    return history;
  };
  sim::ShardBalancer a(16, 4, 99), b(16, 4, 99);
  EXPECT_EQ(feed(a, 5), feed(b, 5));  // bit-identical history, same stream

  // A different tie-break seed may pack equal loads differently, but the
  // result is still a valid assignment into [0, workers).
  sim::ShardBalancer c(16, 4, 100);
  for (std::int32_t w : feed(c, 5)) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 4);
  }
}

TEST(ShardBalance, LptIsolatesTheHeavyNode) {
  sim::ShardBalancer bal(4, 2, 1);
  std::vector<std::uint64_t> q = {100, 1, 1, 1};
  bal.rebalance(q.data());
  const auto& a = bal.assignment();
  // Largest-first onto least-loaded: the heavy node ends up alone on one
  // worker, the three light ones share the other.
  EXPECT_NE(a[0], a[1]);
  EXPECT_EQ(a[1], a[2]);
  EXPECT_EQ(a[2], a[3]);
}

TEST(ShardBalance, SteadyLoadConverges) {
  sim::ShardBalancer bal(32, 8, 3);
  std::vector<std::uint64_t> base(32);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = key_at(11, i) & 63;
  }
  int moves = -1;
  for (int round = 0; round < 12; ++round) {
    std::vector<std::uint64_t> q = base;
    moves = bal.rebalance(q.data());
  }
  // Identical per-window loads: the EWMAs converge and the LPT packing
  // stops churning — steady state must be a fixed point, not an oscillation.
  EXPECT_EQ(moves, 0);
}

// ------------------------------------------ ParallelMachine window policy ---

struct PolicyFp {
  std::int64_t solutions = 0;
  Instr sim_time = 0;
  std::uint64_t quanta = 0;
  std::string metrics;
  bool operator==(const PolicyFp&) const = default;
};

// 6-queens on a 16-node torus; host_threads < 0 is the serial Machine.
PolicyFp run_policy(int host_threads, sim::ParallelMachine** pm_out = nullptr,
                    bool faults = false) {
  static core::Program* prog = nullptr;
  static apps::NQueensProgram np;
  if (prog == nullptr) {
    prog = new core::Program();
    np = apps::register_nqueens(*prog);
    prog->finalize();
  }
  WorldConfig cfg;
  cfg.with_nodes(16);
  cfg.with_host_threads(host_threads);
  if (faults) {
    net::FaultConfig fc;
    fc.enabled = true;
    fc.drop_ppm = 50'000;
    fc.seed = 17;
    cfg.with_faults(fc);
  }
  static World* world = nullptr;
  delete world;
  world = new World(*prog, cfg);
  auto r = apps::run_nqueens(*world, np,
                             apps::NQueensParams::paper_calibrated(6));
  PolicyFp fp;
  fp.solutions = r.solutions;
  fp.sim_time = r.sim_time;
  fp.quanta = r.rep.quanta;
  fp.metrics = obs::metrics_json(*world);
  if (pm_out != nullptr) {
    *pm_out = dynamic_cast<sim::ParallelMachine*>(&world->machine());
  }
  return fp;
}

// One window policy at every width: the window counters are functions of
// simulated state alone, so 2 and 8 workers run exactly the 1-worker
// windows — fault injection included. Only the shard map differs: static
// at one worker, balanced above.
TEST(WindowPolicy, EveryWidthRunsTheSameWindows) {
  for (bool faults : {false, true}) {
    SCOPED_TRACE(faults ? "faults" : "fault-free");
    const PolicyFp serial = run_policy(-1, nullptr, faults);
    EXPECT_EQ(serial.solutions, 4);  // 6-queens
    sim::ParallelMachine* pm = nullptr;
    EXPECT_EQ(run_policy(1, &pm, faults), serial);
    ASSERT_NE(pm, nullptr);
    EXPECT_FALSE(pm->balanced_shards());
    EXPECT_EQ(pm->rebalances(), 0u);
    EXPECT_EQ(pm->shard_moves(), 0u);
    const std::uint64_t windows = pm->windows_run();
    const std::uint64_t occupancy = pm->occupancy_sum();
    // Occupancy counts node-window incidences: at most every node per window.
    EXPECT_GT(occupancy, 0u);
    EXPECT_LE(occupancy, windows * 16);
    for (int t : {2, 8}) {
      EXPECT_EQ(run_policy(t, &pm, faults), serial) << "threads=" << t;
      ASSERT_NE(pm, nullptr);
      EXPECT_EQ(pm->windows_run(), windows) << "threads=" << t;
      EXPECT_EQ(pm->occupancy_sum(), occupancy) << "threads=" << t;
      EXPECT_TRUE(pm->balanced_shards()) << "threads=" << t;
      if (!faults) {
        EXPECT_GT(pm->rebalances(), 0u) << "threads=" << t;
      }
    }
  }
}

// Self-chaining actors, one per node, in lockstep except that odd nodes
// trail by `lag` instructions, with min_packet_latency() <= lag <
// lookahead(). A window sized by the wire floor alone would leave the odd
// nodes for a second window every generation; counting the sender's
// send_setup keeps both halves in one, so every window runs every node once.
struct LagState {
  std::uint64_t steps = 0;
};

TEST(WindowPolicy, LookaheadCountsTheSendersSetup) {
  constexpr int kNodes = 16;
  constexpr Word kFuel = 24;
  core::Program prog;
  PatternId kick = prog.patterns().intern("lag.kick", 2);  // fuel, lag
  ClassDef<LagState> def(prog, "Lag");
  struct KickFrame : Frame {
    Word fuel = 0;
    Word lag = 0;
    PatternId pat = 0;
    static void init(KickFrame& f, const Msg& m) {
      f.fuel = m.at(0);
      f.lag = m.at(1);
      f.pat = m.pattern;
    }
    static Status run(Ctx& ctx, LagState& self, KickFrame& f) {
      ABCL_BEGIN(f);
      self.steps += 1;
      ctx.charge(200 + f.lag);  // the lag is only nonzero on the first step
      if (f.fuel > 0) {
        Word args[2] = {f.fuel - 1, 0};
        ctx.send_past(ctx.self_addr(), f.pat, args, 2);
      }
      ABCL_END();
    }
  };
  def.method<KickFrame>(kick);
  prog.finalize();

  std::uint64_t serial_quanta = 0;
  for (int t : {-1, 1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    WorldConfig cfg;
    cfg.with_nodes(kNodes);
    cfg.with_host_threads(t);
    World world(prog, cfg);
    const net::Network& net = world.network();
    const Instr floor = net.min_packet_latency();
    const Instr send_setup = net.cost_model().send_setup;
    ASSERT_EQ(net.lookahead(), floor + send_setup);
    const Instr lag = floor + send_setup / 2;
    ASSERT_LT(lag, net.lookahead());
    for (int node = 0; node < kNodes; ++node) {
      world.boot(node, [&](Ctx& ctx) {
        MailAddr a = ctx.create_local(def.info(), {});
        ctx.send_past(a, kick, {kFuel, node % 2 == 1 ? lag : Word{0}});
      });
    }
    const RunReport rep = world.run();
    auto* pm = dynamic_cast<sim::ParallelMachine*>(&world.machine());
    if (pm == nullptr) {
      serial_quanta = rep.quanta;
      continue;
    }
    EXPECT_EQ(rep.quanta, serial_quanta);
    ASSERT_EQ(rep.quanta % kNodes, 0u);
    EXPECT_GE(rep.quanta, static_cast<std::uint64_t>(kNodes) * kFuel);
    EXPECT_EQ(pm->windows_run(), rep.quanta / kNodes);
    EXPECT_EQ(pm->occupancy_sum(), rep.quanta);
  }
}

TEST(WindowPolicy, DriverMetricsJsonSnapshotsTheCounters) {
  sim::ParallelMachine* pm = nullptr;
  run_policy(8, &pm);
  ASSERT_NE(pm, nullptr);
  const std::string js = obs::driver_metrics_json(*pm);
  std::string err;
  auto doc = obs::parse_json(js, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_TRUE(doc->find("balanced_shards")->boolean);
  EXPECT_EQ(static_cast<std::uint64_t>(doc->find("windows_run")->integer),
            pm->windows_run());
  EXPECT_EQ(static_cast<std::uint64_t>(doc->find("occupancy_sum")->integer),
            pm->occupancy_sum());
  EXPECT_EQ(static_cast<std::uint64_t>(doc->find("rebalances")->integer),
            pm->rebalances());
  EXPECT_EQ(static_cast<std::uint64_t>(doc->find("shard_moves")->integer),
            pm->shard_moves());
}

// --------------------------------------------------- cached window keys ---

// Byte-level fingerprint of a run: metrics_json plus the full trace.
struct RunFp {
  std::string metrics;
  std::string trace;
  Instr sim_time = 0;
  std::uint64_t quanta = 0;
  bool operator==(const RunFp&) const = default;
};

const apps::PingPongProgram& pingpong_program(core::Program** prog_out) {
  static core::Program* prog = nullptr;
  static apps::PingPongProgram pp;
  if (prog == nullptr) {
    prog = new core::Program();
    pp = apps::register_pingpong(*prog);
    prog->finalize();
  }
  *prog_out = prog;
  return pp;
}

// Creates a ping-pong pair on nodes a and b (each bouncing `rounds` times)
// and serves the first ball, all as boot code.
void boot_pair(World& world, const apps::PingPongProgram& pp, NodeId a,
               NodeId b, Word rounds) {
  MailAddr oa, ob;
  world.boot(a, [&](Ctx& ctx) { oa = ctx.create_local(*pp.cls, &rounds, 1); });
  world.boot(b, [&](Ctx& ctx) { ob = ctx.create_local(*pp.cls, &rounds, 1); });
  world.boot(a, [&](Ctx& ctx) {
    Word peer_b[2] = {ob.word_node(), ob.word_ptr()};
    ctx.send_past(oa, pp.set_peer, peer_b, 2);
    Word peer_a[2] = {oa.word_node(), oa.word_ptr()};
    ctx.send_past(ob, pp.set_peer, peer_a, 2);
    ctx.send_past(oa, pp.ball, nullptr, 0);
  });
}

RunFp fingerprint(World& world, const sim::Tracer& tracer, Instr sim_time,
                  std::uint64_t quanta) {
  RunFp fp;
  fp.metrics = obs::metrics_json(world);
  fp.trace = obs::chrome_trace_json(tracer);
  fp.sim_time = sim_time;
  fp.quanta = quanta;
  return fp;
}

// One ping-pong pair between nodes 0 and 15 of a 16-node torus: at every
// bounce the receiver is idle (nothing queued, nothing in flight) when the
// window opens, and only the barrier's flush makes it runnable, so it must
// run in a later window from a key that notify_work refreshed.
TEST(CachedKeys, FlushWokenIdleNodeRunsInTheNextWindow) {
  core::Program* prog = nullptr;
  const apps::PingPongProgram& pp = pingpong_program(&prog);
  auto run_at = [&](int host_threads, std::uint64_t* windows) {
    WorldConfig cfg;
    cfg.with_nodes(16);
    cfg.with_host_threads(host_threads);
    World world(*prog, cfg);
    sim::Tracer tracer(1u << 16);
    world.attach_tracer(&tracer);
    boot_pair(world, pp, 0, 15, 12);
    RunReport rep = world.run();
    if (auto* pm = dynamic_cast<sim::ParallelMachine*>(&world.machine())) {
      *windows = pm->windows_run();
    }
    return fingerprint(world, tracer, rep.sim_time, rep.quanta);
  };
  std::uint64_t windows = 0;
  const RunFp serial = run_at(-1, &windows);
  // The set_peer packet plus 12 balls each way, each delivered to an idle
  // node (the first serve runs inside boot).
  EXPECT_GE(serial.quanta, 25u);
  for (int t : {1, 2, 8}) {
    windows = 0;
    EXPECT_EQ(run_at(t, &windows), serial) << "threads=" << t;
    // Every ball crosses the network to an idle node, so each bounce needs
    // a barrier of its own.
    EXPECT_GE(windows, 25u) << "threads=" << t;
  }
}

// run(max_time) slices with World::boot between them. Under the naive
// scheduling policy every local send goes through the scheduling queue, so
// a boot leaves the node runnable at its clock without any packet, and no
// notify_work announces it: run() must refresh its cached keys on entry.
// Slices without boots must equal one uninterrupted run; slices with boots
// must equal the serial Machine driving the same slices.
TEST(CachedKeys, RunSlicesWithBootsBetweenThemMatchSerial) {
  core::Program* prog = nullptr;
  const apps::PingPongProgram& pp = pingpong_program(&prog);
  auto run_at = [&](int host_threads, bool sliced, bool boots, Instr total) {
    WorldConfig cfg;
    cfg.with_nodes(16);
    cfg.with_host_threads(host_threads);
    cfg.node.policy = core::SchedPolicy::kNaive;
    World world(*prog, cfg);
    sim::Tracer tracer(1u << 16);
    world.attach_tracer(&tracer);
    boot_pair(world, pp, 0, 5, 16);
    RunReport rep;
    std::uint64_t quanta = 0;
    if (!sliced) {
      rep = world.run();
      quanta = rep.quanta;
    } else {
      for (int k = 1; k <= 3; ++k) {
        rep = world.run(total * static_cast<Instr>(k) / 4);
        quanta += rep.quanta;
        EXPECT_EQ(rep.stop_reason, StopReason::kMaxTime) << "slice " << k;
        // Wake two untouched nodes between slices: pure boot-time work
        // the driver never saw being created.
        if (boots) {
          boot_pair(world, pp, static_cast<NodeId>(8 + k),
                    static_cast<NodeId>(12 + k), 4);
        }
      }
      rep = world.run();
      quanta += rep.quanta;
    }
    EXPECT_EQ(rep.stop_reason, StopReason::kQuiesced);
    return fingerprint(world, tracer, rep.sim_time, quanta);
  };
  const RunFp whole = run_at(-1, false, false, 0);
  ASSERT_GT(whole.sim_time, 0u);
  const RunFp sliced_serial = run_at(-1, true, true, whole.sim_time);
  EXPECT_NE(sliced_serial.metrics, whole.metrics);  // the boots added work
  for (int t : {1, 2, 8}) {
    EXPECT_EQ(run_at(t, true, false, whole.sim_time), whole)
        << "threads=" << t;
    EXPECT_EQ(run_at(t, true, true, whole.sim_time), sliced_serial)
        << "threads=" << t;
  }
}

}  // namespace
