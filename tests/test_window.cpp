// Topology-aware lookahead + deterministic shard balancing: unit tests for
// HorizonMap's O(N) exclude-self min-plus relaxation against the O(N^2)
// brute force, the line transform it is built from, the ShardBalancer's
// deterministic LPT packing, and the ParallelMachine's worker-count-derived
// policies: byte-identity to serial at 1/2/8 workers, and the fault and
// null-network fallbacks to the flat window. The cached window keys are
// exercised where they can go stale: flush-time wakeups of idle nodes and
// work injected between run(max_time) slices.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "apps/nqueens.hpp"
#include "apps/pingpong.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/lookahead.hpp"
#include "sim/parallel_machine.hpp"
#include "sim/shard_balance.hpp"
#include "sim/trace.hpp"

namespace {

using namespace abcl;
using net::Topology;
using net::TopologyKind;
using sim::HorizonMap;
using sim::Instr;
using sim::kInstrInf;
using sim::sat_add;

// Deterministic key stream: SplitMix64 over an index, occasionally idle.
Instr key_at(std::uint64_t seed, std::uint64_t i, bool allow_inf = true) {
  std::uint64_t z = seed + (i + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  if (allow_inf && (z & 7) == 0) return kInstrInf;  // 1/8 idle
  return static_cast<Instr>(z % 100'000);
}

// ------------------------------------------------------------ sat_add -----

TEST(Lookahead, SatAddSaturatesAtInf) {
  EXPECT_EQ(sat_add(5, 7), 12u);
  EXPECT_EQ(sat_add(kInstrInf, 0), kInstrInf);
  EXPECT_EQ(sat_add(kInstrInf, 5), kInstrInf);
  EXPECT_EQ(sat_add(kInstrInf - 3, 5), kInstrInf);
  EXPECT_EQ(sat_add(0, kInstrInf), kInstrInf);
}

// -------------------------------------------------- line_min_plus_excl ----

// O(n^2) reference of the exclude-self line transform.
void line_ref(const std::vector<Instr>& a, Instr w, bool wrap,
              std::vector<Instr>* out) {
  const std::size_t n = a.size();
  out->assign(n, kInstrInf);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      std::size_t d = i > j ? i - j : j - i;
      if (wrap) d = std::min(d, n - d);
      Instr v = sat_add(a[j], w * static_cast<Instr>(d));
      (*out)[i] = std::min((*out)[i], v);
    }
  }
}

TEST(Lookahead, LineMinPlusExclMatchesReference) {
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 17u}) {
    for (Instr w : {Instr{0}, Instr{1}, Instr{7}}) {
      for (bool wrap : {false, true}) {
        std::vector<Instr> a(n), got(n), want;
        for (std::size_t i = 0; i < n; ++i) a[i] = key_at(42 * n + w, i);
        sim::line_min_plus_excl(a.data(), n, w, wrap, got.data());
        line_ref(a, w, wrap, &want);
        EXPECT_EQ(got, want) << "n=" << n << " w=" << w << " wrap=" << wrap;
      }
    }
  }
}

TEST(Lookahead, LineMinPlusExclAllIdleIsIdle) {
  std::vector<Instr> a(6, kInstrInf), got(6);
  sim::line_min_plus_excl(a.data(), a.size(), 3, true, got.data());
  for (Instr v : got) EXPECT_EQ(v, kInstrInf);
}

// ----------------------------------------------------------- HorizonMap ---

// relax() must equal brute_force() exactly on every topology with an exact
// transform. Sizes deliberately include 1 (no other node -> inf), primes
// (grids degrade to Nx1) and non-square factorizations (12 = 4x3, 30 = 6x5).
TEST(Lookahead, RelaxMatchesBruteForceOnExactTopologies) {
  const TopologyKind kinds[] = {TopologyKind::kTorus2D, TopologyKind::kMesh2D,
                                TopologyKind::kFullyConnected,
                                TopologyKind::kRing};
  const std::int32_t sizes[] = {1, 2, 3, 4, 5, 7, 12, 16, 30, 64};
  for (TopologyKind kind : kinds) {
    for (std::int32_t n : sizes) {
      Topology topo(kind, n);
      for (Instr per_hop : {Instr{0}, Instr{1}, Instr{3}}) {
        HorizonMap hmap(&topo, per_hop);
        std::vector<Instr> keys(static_cast<std::size_t>(n)), got;
        for (std::size_t i = 0; i < keys.size(); ++i) {
          keys[i] = key_at(static_cast<std::uint64_t>(n) * 31 + per_hop, i);
        }
        hmap.relax(keys, &got);
        ASSERT_EQ(got.size(), keys.size());
        for (std::int32_t i = 0; i < n; ++i) {
          EXPECT_EQ(got[static_cast<std::size_t>(i)],
                    HorizonMap::brute_force(topo, per_hop, keys, i))
              << "kind=" << static_cast<int>(kind) << " n=" << n
              << " per_hop=" << per_hop << " i=" << i;
        }
      }
    }
  }
}

// The hypercube pass is exact for every j != i and only over-conservative
// in the self echo key_i + 2 * per_hop (a valid, smaller bound): relax ==
// min(brute, key_i + 2 * per_hop) exactly.
TEST(Lookahead, RelaxHypercubeIsBruteForceModuloSelfEcho) {
  for (std::int32_t n : {1, 2, 4, 8, 16, 64}) {
    Topology topo(TopologyKind::kHypercube, n);
    for (Instr per_hop : {Instr{0}, Instr{1}, Instr{3}}) {
      HorizonMap hmap(&topo, per_hop);
      std::vector<Instr> keys(static_cast<std::size_t>(n)), got;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        keys[i] = key_at(static_cast<std::uint64_t>(n) * 977 + per_hop, i);
      }
      hmap.relax(keys, &got);
      ASSERT_EQ(got.size(), keys.size());
      for (std::int32_t i = 0; i < n; ++i) {
        Instr brute = HorizonMap::brute_force(topo, per_hop, keys, i);
        // The self echo key_i + 2 * per_hop needs a neighbour to bounce off;
        // a 0-cube has none, and the exact answer (inf) comes out instead.
        Instr echo = n > 1
                         ? sat_add(keys[static_cast<std::size_t>(i)], 2 * per_hop)
                         : kInstrInf;
        EXPECT_EQ(got[static_cast<std::size_t>(i)], std::min(brute, echo))
            << "n=" << n << " per_hop=" << per_hop << " i=" << i;
        EXPECT_LE(got[static_cast<std::size_t>(i)], brute);
      }
    }
  }
}

TEST(Lookahead, RelaxAllIdleOrSingletonIsInf) {
  Topology topo(TopologyKind::kTorus2D, 16);
  HorizonMap hmap(&topo, 1);
  std::vector<Instr> keys(16, kInstrInf), got;
  hmap.relax(keys, &got);
  for (Instr v : got) EXPECT_EQ(v, kInstrInf);

  // One busy node: every *other* node is bounded by it, the busy node
  // itself sees only idle peers and gets inf — the isolated-hot-node case
  // that lets a lone busy node drain in a single window.
  keys[5] = 1000;
  hmap.relax(keys, &got);
  EXPECT_EQ(got[5], kInstrInf);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i == 5) continue;
    EXPECT_EQ(got[i], 1000 + 1 * static_cast<Instr>(topo.hops(5,
                              static_cast<NodeId>(i))));
  }

  Topology one(TopologyKind::kRing, 1);
  HorizonMap hone(&one, 1);
  std::vector<Instr> k1{123};
  hone.relax(k1, &got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], kInstrInf);
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
        q[i] = key_at(salt + round, i, /*allow_inf=*/false) & 31;
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
    base[i] = key_at(11, i, /*allow_inf=*/false) & 63;
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

// ------------------------------------ ParallelMachine derived policies ----

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

TEST(WindowPolicy, OneWorkerRunsFlatWindowsWithoutBalancer) {
  const PolicyFp serial = run_policy(-1);
  EXPECT_EQ(serial.solutions, 4);  // 6-queens
  sim::ParallelMachine* pm = nullptr;
  EXPECT_EQ(run_policy(1, &pm), serial);
  ASSERT_NE(pm, nullptr);
  EXPECT_FALSE(pm->distance_horizons());
  EXPECT_FALSE(pm->balanced_shards());
  EXPECT_GT(pm->windows_run(), 0u);
  EXPECT_GT(pm->occupancy_sum(), 0u);
  EXPECT_EQ(pm->rebalances(), 0u);
  EXPECT_EQ(pm->shard_moves(), 0u);
}

TEST(WindowPolicy, SeveralWorkersRunDistanceHorizonsAndBalancer) {
  const PolicyFp serial = run_policy(-1);
  sim::ParallelMachine* pm = nullptr;
  run_policy(1, &pm);
  ASSERT_NE(pm, nullptr);
  const std::uint64_t flat_windows = pm->windows_run();
  for (int t : {2, 8}) {
    EXPECT_EQ(run_policy(t, &pm), serial) << "threads=" << t;
    ASSERT_NE(pm, nullptr);
    EXPECT_TRUE(pm->distance_horizons()) << "threads=" << t;
    EXPECT_TRUE(pm->balanced_shards()) << "threads=" << t;
    // Per-node horizons are >= the flat bound, so a window commits at least
    // as many quanta — the policy can only remove barriers, never add them.
    EXPECT_LE(pm->windows_run(), flat_windows) << "threads=" << t;
    // Occupancy counts node-window incidences: at most every node per window.
    EXPECT_GT(pm->occupancy_sum(), 0u);
    EXPECT_LE(pm->occupancy_sum(), pm->windows_run() * 16);
    EXPECT_GT(pm->rebalances(), 0u) << "threads=" << t;
  }
}

TEST(WindowPolicy, FaultInjectionKeepsFlatWindows) {
  // A conservative fallback, not a proven unsoundness: every fault-layer
  // copy still arrives at >= send time + the priced latency (net/fault.hpp),
  // but the distance bound was only ever validated fault-free. The shard
  // policy still follows the worker count.
  const PolicyFp serial = run_policy(-1, nullptr, /*faults=*/true);
  sim::ParallelMachine* pm = nullptr;
  EXPECT_EQ(run_policy(2, &pm, /*faults=*/true), serial);
  ASSERT_NE(pm, nullptr);
  EXPECT_FALSE(pm->distance_horizons());
  EXPECT_TRUE(pm->balanced_shards());
}

// Never runnable, never woken: enough to construct a driver.
class IdleNode final : public sim::NodeExec {
 public:
  explicit IdleNode(sim::NodeId id) : id_(id) {}
  sim::NodeId node_id() const override { return id_; }
  Instr clock() const override { return 0; }
  bool runnable() const override { return false; }
  Instr next_wake() const override { return sim::kInstrInf; }
  void advance_clock(Instr) override {}
  void step() override {}

 private:
  sim::NodeId id_;
};

TEST(WindowPolicy, NullNetworkKeepsFlatWindows) {
  // Distance bounds need the network's topology and cost model.
  std::vector<IdleNode> nodes{IdleNode(0), IdleNode(1), IdleNode(2)};
  std::vector<sim::NodeExec*> execs;
  for (IdleNode& n : nodes) execs.push_back(&n);
  sim::ParallelMachine pm(std::move(execs), /*net=*/nullptr, 2);
  EXPECT_FALSE(pm.distance_horizons());
  EXPECT_TRUE(pm.balanced_shards());
  EXPECT_EQ(pm.run().quanta, 0u);
}

TEST(WindowPolicy, DriverMetricsJsonSnapshotsTheCounters) {
  sim::ParallelMachine* pm = nullptr;
  run_policy(8, &pm);
  ASSERT_NE(pm, nullptr);
  const std::string js = obs::driver_metrics_json(*pm);
  std::string err;
  auto doc = obs::parse_json(js, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_TRUE(doc->find("distance_horizons")->boolean);
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
