// Live object migration: spec parsing, the pure shed policy, forwarding
// stubs + sender-side path compression, inbox carryover ordering across a
// move, migrate-while-waiting, a redirect chain that ends on the sender's
// own node, and a 6-node hot-spot scenario asserting the work-shedding
// balancer actually spreads load and sheds/gossips on the same quanta
// across a checkpoint restore (see DESIGN.md "Object migration").
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "abcl/abcl.hpp"
#include "ckpt/snapshot.hpp"
#include "core/object.hpp"
#include "fuzz/oracle.hpp"
#include "obs/metrics.hpp"
#include "remote/migration.hpp"

namespace {

using namespace abcl;
using remote::MigrationConfig;
using remote::ShedDecision;

// ----------------------------------------------------------- parsing -----

TEST(MigrationSpec, UnsetEmptyAndOffAllDisable) {
  std::string err;
  for (const char* t :
       {static_cast<const char*>(nullptr), "", "off", " off "}) {
    std::optional<MigrationConfig> cfg = remote::parse_migration_spec(t, &err);
    ASSERT_TRUE(cfg.has_value());
    EXPECT_FALSE(cfg->enabled);
  }
}

TEST(MigrationSpec, ParsesEveryKey) {
  std::string err;
  std::optional<MigrationConfig> cfg = remote::parse_migration_spec(
      "interval=32, hysteresis=2, max_batch=6, min_queue=5, seed=99", &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  EXPECT_TRUE(cfg->enabled);
  EXPECT_EQ(cfg->interval, 32u);
  EXPECT_EQ(cfg->hysteresis, 2u);
  EXPECT_EQ(cfg->max_batch, 6u);
  EXPECT_EQ(cfg->min_queue, 5u);
  EXPECT_EQ(cfg->seed, 99u);
}

TEST(MigrationSpec, PartialSpecKeepsDefaults) {
  std::string err;
  std::optional<MigrationConfig> cfg =
      remote::parse_migration_spec("interval=16", &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  EXPECT_TRUE(cfg->enabled);
  EXPECT_EQ(cfg->interval, 16u);
  EXPECT_EQ(cfg->hysteresis, MigrationConfig{}.hysteresis);
  EXPECT_EQ(cfg->min_queue, MigrationConfig{}.min_queue);
}

TEST(MigrationSpec, ToStringRoundTripsExactly) {
  std::string err;
  for (const char* t :
       {"off", "interval=1", "interval=8,hysteresis=0,max_batch=2,seed=7",
        "min_queue=1,seed=18446744073709551615"}) {
    std::optional<MigrationConfig> a = remote::parse_migration_spec(t, &err);
    ASSERT_TRUE(a.has_value()) << t << ": " << err;
    std::optional<MigrationConfig> b =
        remote::parse_migration_spec(remote::to_string(*a).c_str(), &err);
    ASSERT_TRUE(b.has_value()) << remote::to_string(*a) << ": " << err;
    EXPECT_EQ(*a, *b) << t;
  }
}

TEST(MigrationSpec, GarbageNeverFallsBackToOff) {
  // A typo in ABCLSIM_MIGRATION must be a hard error naming the raw text,
  // not a silent migration-free run.
  for (const char* t :
       {"bogus", "interval", "interval=", "interval=abc", "interval=-1",
        "interval=0x10", "interval=1,interval=2", "unknown_key=1",
        "interval=1,,seed=2", "seed=", "interval=0", "max_batch=0",
        "min_queue=0", "interval=4294967296"}) {
    std::string err;
    std::optional<MigrationConfig> cfg = remote::parse_migration_spec(t, &err);
    EXPECT_FALSE(cfg.has_value()) << t;
    EXPECT_NE(err.find(t), std::string::npos)
        << "diagnostic should quote the offending spec: " << err;
  }
}

// ------------------------------------------------------- shed policy -----

TEST(ShedRoll, PureAndCoordinateDependent) {
  EXPECT_EQ(remote::shed_roll(1, 3, 100), remote::shed_roll(1, 3, 100));
  int differ = 0;
  for (std::uint64_t q = 0; q < 64; ++q) {
    differ += remote::shed_roll(1, 3, q) != remote::shed_roll(2, 3, q);
    differ += remote::shed_roll(1, 3, q) != remote::shed_roll(1, 4, q);
    differ += remote::shed_roll(1, 3, q) != remote::shed_roll(1, 3, q + 1);
  }
  EXPECT_GT(differ, 150);  // the streams are genuinely distinct
}

MigrationConfig policy_cfg() {
  MigrationConfig cfg;
  cfg.enabled = true;
  cfg.hysteresis = 4;
  cfg.max_batch = 4;
  cfg.min_queue = 8;
  cfg.seed = 1;
  return cfg;
}

TEST(ShedPolicy, DisabledOrShallowQueueNeverSheds) {
  MigrationConfig cfg = policy_cfg();
  const std::vector<std::pair<std::int32_t, std::uint32_t>> idle = {{1, 0},
                                                                    {2, 0}};
  EXPECT_FALSE(remote::decide_shed(cfg, 0, 64, 7, idle).has_value());
  cfg.enabled = false;
  EXPECT_FALSE(remote::decide_shed(cfg, 0, 64, 100, idle).has_value());
}

TEST(ShedPolicy, NoFreshNeighborsMeansNoShed) {
  // Without gossip there is no safe target — a blind shed could dump on a
  // node even hotter than us.
  EXPECT_FALSE(remote::decide_shed(policy_cfg(), 0, 64, 100, {}).has_value());
}

TEST(ShedPolicy, HysteresisBandHolds) {
  const MigrationConfig cfg = policy_cfg();
  const std::vector<std::pair<std::int32_t, std::uint32_t>> loads = {
      {1, 10}, {2, 20}};
  // Lower median of {10, 20} is 10; depth must exceed 10 + hysteresis(4).
  EXPECT_FALSE(remote::decide_shed(cfg, 0, 64, 10, loads).has_value());
  EXPECT_FALSE(remote::decide_shed(cfg, 0, 64, 14, loads).has_value());
  auto d = remote::decide_shed(cfg, 0, 64, 15, loads);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->target, 1);  // least-loaded strictly-below neighbour
  EXPECT_EQ(d->quota, 2u);  // (15 - 10) / 2, under max_batch
}

TEST(ShedPolicy, QuotaIsCappedAtMaxBatch) {
  const MigrationConfig cfg = policy_cfg();
  const std::vector<std::pair<std::int32_t, std::uint32_t>> idle = {{1, 0},
                                                                    {2, 0}};
  auto d = remote::decide_shed(cfg, 0, 64, 100, idle);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->quota, cfg.max_batch);
}

TEST(ShedPolicy, TieBreakIsSeededAndDeterministic) {
  const MigrationConfig cfg = policy_cfg();
  const std::vector<std::pair<std::int32_t, std::uint32_t>> tied = {
      {1, 0}, {2, 0}, {3, 0}};
  // Same coordinates: always the same target (re-evaluation independence).
  auto first = remote::decide_shed(cfg, 0, 64, 40, tied);
  ASSERT_TRUE(first.has_value());
  for (int i = 0; i < 8; ++i) {
    auto again = remote::decide_shed(cfg, 0, 64, 40, tied);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->target, first->target);
  }
  // Across quanta the choice rotates: a symmetric neighbourhood must not
  // always dump on one node (that just moves the hot spot one hop over).
  bool saw_other = false;
  for (std::uint64_t q = 0; q < 64; ++q) {
    auto d = remote::decide_shed(cfg, 0, q, 40, tied);
    ASSERT_TRUE(d.has_value());
    saw_other |= d->target != first->target;
  }
  EXPECT_TRUE(saw_other);
}

// --------------------------------------------------------- mechanism -----

// Minimal migratable class: counts messages, folds their values in arrival
// order (order-sensitive), and remembers the node that ran the last
// dispatch. Trivially copyable/destructible by construction.
struct RecState {
  std::uint64_t count = 0;
  std::uint64_t order_hash = 0;
  std::uint64_t last_node = 0;
};

struct RecFrame : Frame {
  Word v = 0;
  static void init(RecFrame& f, const Msg& m) { f.v = m.at(0); }
  static Status run(Ctx& ctx, RecState& self, RecFrame& f) {
    ABCL_BEGIN(f);
    self.count += 1;
    self.order_hash = self.order_hash * 1099511628211ull + f.v;
    self.last_node = static_cast<std::uint64_t>(ctx.node_id());
    ABCL_END();
  }
};

struct RecProgram {
  PatternId rec = 0;
  const core::ClassInfo* cls = nullptr;
};

RecProgram register_rec(core::Program& prog) {
  RecProgram rp;
  rp.rec = prog.patterns().intern("mig.rec", 1);
  ClassDef<RecState> def(prog, "MigRec");
  def.migratable();
  def.method<RecFrame>(rp.rec);
  rp.cls = &def.info();
  return rp;
}

// Chases forwarding stubs to the object's current home.
MailAddr resolve(const World& w, MailAddr a) {
  for (int hops = 0; hops < 64; ++hops) {
    auto f = w.node(a.node).forward_target(a.ptr);
    if (!f.has_value()) return a;
    if (f->node == a.node && f->ptr == a.ptr) return a;
    a = *f;
  }
  ADD_FAILURE() << "forwarding chain exceeded 64 hops";
  return a;
}

std::uint64_t fold(std::initializer_list<std::uint64_t> vals) {
  std::uint64_t h = 0;
  for (std::uint64_t v : vals) h = h * 1099511628211ull + v;
  return h;
}

TEST(Migration, InboxCarriesOverInFifoOrder) {
  core::Program prog;
  RecProgram rp = register_rec(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(2);
  World world(prog, cfg);
  MailAddr a;
  world.boot(0, [&](Ctx& ctx) {
    a = ctx.create_local(*rp.cls, {});
    // Pre-move mail may dispatch at the old home or ride out the move in
    // the stub's queue; either way arrival ORDER is the contract.
    for (Word v = 1; v <= 3; ++v) ctx.send_past(a, rp.rec, {v});
    ctx.migrate_object_to(a.ptr, 1);
    // Post-move mail lands on the in-transit stub and must be flushed to
    // the new home after the state arrives, still in order.
    for (Word v = 4; v <= 6; ++v) ctx.send_past(a, rp.rec, {v});
  });
  world.run();

  MailAddr home = resolve(world, a);
  EXPECT_EQ(home.node, 1);
  const auto* st = home.ptr->state_as<const RecState>();
  EXPECT_EQ(st->count, 6u);
  EXPECT_EQ(st->order_hash, fold({1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(st->last_node, 1u);
  EXPECT_EQ(world.node(0).stats().migrations_out, 1u);
  EXPECT_EQ(world.node(1).stats().migrations_in, 1u);
  EXPECT_GT(world.total_stats().migration_mail, 0u);
}

TEST(Migration, ForwardingStubBouncesAndCompressesPerSender) {
  core::Program prog;
  RecProgram rp = register_rec(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(4);
  World world(prog, cfg);
  MailAddr a;
  world.boot(0, [&](Ctx& ctx) { a = ctx.create_local(*rp.cls, {}); });
  world.run();
  world.boot(0, [&](Ctx& ctx) { ctx.migrate_object_to(a.ptr, 1); });
  world.run();  // migration completes; node 0 now holds a forwarding stub

  // First message from node 2 to the OLD address bounces through the stub;
  // the stub's node notices the remote sender and mails back a kUpdateAddr.
  world.boot(2, [&](Ctx& ctx) { ctx.send_past(a, rp.rec, {41}); });
  world.run();
  const std::uint64_t forwards_after_first =
      world.total_stats().migration_forwards;
  EXPECT_GE(forwards_after_first, 1u);
  EXPECT_GT(world.total_stats().migration_updates, 0u);

  // Node 2 now routes straight to the new home: no further stub hops.
  world.boot(2, [&](Ctx& ctx) { ctx.send_past(a, rp.rec, {42}); });
  world.run();
  EXPECT_EQ(world.total_stats().migration_forwards, forwards_after_first);

  MailAddr home = resolve(world, a);
  EXPECT_EQ(home.node, 1);
  const auto* st = home.ptr->state_as<const RecState>();
  EXPECT_EQ(st->count, 2u);
  EXPECT_EQ(st->order_hash, fold({41, 42}));
}

TEST(Migration, SecondHopCollapsesOldStubChains) {
  // After 0 -> 1 -> 2, the kUpdateStub fan-out must point the node-0 stub
  // DIRECTLY at node 2: a message to the original address takes exactly one
  // forwarding hop, not two (the chain-length <= 1 bound from DESIGN.md).
  core::Program prog;
  RecProgram rp = register_rec(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(4);
  World world(prog, cfg);
  MailAddr a;
  world.boot(0, [&](Ctx& ctx) { a = ctx.create_local(*rp.cls, {}); });
  world.run();
  world.boot(0, [&](Ctx& ctx) { ctx.migrate_object_to(a.ptr, 1); });
  world.run();
  MailAddr hop1 = resolve(world, a);
  ASSERT_EQ(hop1.node, 1);
  world.boot(1, [&](Ctx& ctx) { ctx.migrate_object_to(hop1.ptr, 2); });
  world.run();

  auto direct = world.node(0).forward_target(a.ptr);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->node, 2);  // compressed, not 1

  const std::uint64_t forwards_before = world.total_stats().migration_forwards;
  world.boot(3, [&](Ctx& ctx) { ctx.send_past(a, rp.rec, {7}); });
  world.run();
  EXPECT_EQ(world.total_stats().migration_forwards, forwards_before + 1);
  const auto* st = resolve(world, a).ptr->state_as<const RecState>();
  EXPECT_EQ(st->count, 1u);
  EXPECT_EQ(st->last_node, 2u);
}

// Waits at a selective-reception site for mig.tok; the frame carries a
// marker that must survive serialization of the blocked context.
struct WaitState {
  std::uint64_t got = 0;
  std::uint64_t marker = 0;
  std::uint64_t resumed_node = 0;
};

struct WaitFrame : Frame {
  Word tok = 0;
  Word marker = 0;
  static void init(WaitFrame& f, const Msg& m) { f.marker = m.at(0); }
  static void copy_tok(WaitFrame& f, const Msg& m) { f.tok = m.at(0); }
  static Status run(Ctx& ctx, WaitState& self, WaitFrame& f) {
    ABCL_BEGIN(f);
    ABCL_SELECT(ctx, self, f, 0);
    case 1:
      self.got = f.tok;
      self.marker = f.marker;
      self.resumed_node = static_cast<std::uint64_t>(ctx.node_id());
    ABCL_END();
  }
};

struct WaitProgram {
  PatternId wait = 0;
  PatternId tok = 0;
  const core::ClassInfo* cls = nullptr;
};

WaitProgram register_wait(core::Program& prog) {
  WaitProgram wp;
  wp.wait = prog.patterns().intern("mig.wait", 1);
  wp.tok = prog.patterns().intern("mig.tok", 1);
  ClassDef<WaitState> def(prog, "MigWait");
  def.migratable();
  def.method<WaitFrame>(wp.wait);
  std::int32_t site = def.wait_site<WaitFrame>();
  def.accept<WaitFrame, &WaitFrame::copy_tok>(site, wp.tok, 1);
  EXPECT_EQ(site, 0);
  wp.cls = &def.info();
  return wp;
}

TEST(Migration, WaitingObjectMovesWithItsBlockedFrame) {
  core::Program prog;
  WaitProgram wp = register_wait(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(3);
  World world(prog, cfg);
  MailAddr a;
  world.boot(0, [&](Ctx& ctx) {
    a = ctx.create_local(*wp.cls, {});
    ctx.send_past(a, wp.wait, {777});  // runs, blocks at the select site
  });
  world.run();
  ASSERT_EQ(a.ptr->mode, core::Mode::kWaiting);

  world.boot(0, [&](Ctx& ctx) {
    ctx.migrate_object_to(a.ptr, 2);
    // Token sent to the old address while the object is in transit: it
    // must chase the move and resume the restored frame at the new home.
    ctx.send_past(a, wp.tok, {55});
  });
  world.run();

  MailAddr home = resolve(world, a);
  EXPECT_EQ(home.node, 2);
  EXPECT_EQ(home.ptr->mode, core::Mode::kDormant);  // resumed and finished
  const auto* st = home.ptr->state_as<const WaitState>();
  EXPECT_EQ(st->got, 55u);
  EXPECT_EQ(st->marker, 777u);  // frame contents survived the move
  EXPECT_EQ(st->resumed_node, 2u);
}

TEST(MigrationDeath, NonMigratableClassIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::Program prog;
  PatternId p = prog.patterns().intern("plain.msg", 1);
  struct PlainState {
    std::uint64_t x = 0;
  };
  struct PlainFrame : Frame {
    static void init(PlainFrame&, const Msg&) {}
    static Status run(Ctx&, PlainState&, PlainFrame& f) {
      ABCL_BEGIN(f);
      ABCL_END();
    }
  };
  ClassDef<PlainState> def(prog, "Plain");  // no .migratable()
  def.method<PlainFrame>(p);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(2);
  World world(prog, cfg);
  MailAddr a;
  world.boot(0, [&](Ctx& ctx) { a = ctx.create_local(def.info(), {}); });
  world.run();
  EXPECT_DEATH(
      world.boot(0, [&](Ctx& ctx) { ctx.migrate_object_to(a.ptr, 1); }),
      "not migratable");
}

// ------------------------------------------ redirect to the own node -----

// A fixed-seed World run that may stop at a checkpoint boundary and go on
// in a restored World: the record an uninterrupted run must reproduce.
struct RunRecord {
  std::string metrics;
  std::uint64_t trace_hash = 0;
  std::uint64_t trace_events = 0;
  sim::Instr sim_time = 0;
};

ckpt::CheckpointConfig boundary(std::uint64_t at) {
  ckpt::CheckpointConfig ck;
  ck.enabled = true;
  ck.at = at;
  return ck;
}

// Runs `world` to quiescence under `tracer`; with `at` != 0 the world must
// carry the matching checkpoint config, and the run is captured at the
// boundary and finished in a world restored (onto `restore_threads`) from
// the snapshot. `at_boundary` sees the world just before the capture;
// `out` receives the final world.
RunRecord run_record(core::Program& prog, std::unique_ptr<World> world,
                     std::uint64_t at, int restore_threads,
                     fuzz::HashTracer& tracer,
                     const std::function<void(World&)>& at_boundary = {},
                     std::unique_ptr<World>* out = nullptr) {
  world->attach_tracer(&tracer);
  RunReport rep = world->run();
  if (at != 0) {
    if (at_boundary) at_boundary(*world);
    ckpt::MemSink sink;
    world->checkpoint(sink);
    world.reset();  // restore maps the arenas at their recorded bases
    ckpt::MemSource src(sink.take());
    world = World::restore(prog, src, restore_threads);
    world->attach_tracer(&tracer);
    rep = world->run();
    rep.quanta += world->resumed_quanta();
  }
  RunRecord r{obs::metrics_json(*world, &rep), tracer.hash(), tracer.events(),
              rep.sim_time};
  if (out != nullptr) *out = std::move(world);
  return r;
}

// Sends `left` numbered messages to `target`, one per quantum: each tick
// re-kicks the (then active) pump through the scheduling queue.
struct PumpState {
  MailAddr target;
  Word rec = 0;
  void on_create(const Msg& m) {
    target = m.addr(0);
    rec = m.at(2);
  }
};

struct TickFrame : Frame {
  Word left = 0;
  Word v = 0;
  PatternId pat = 0;
  static void init(TickFrame& f, const Msg& m) {
    f.left = m.at(0);
    f.v = m.at(1);
    f.pat = m.pattern;
  }
  static Status run(Ctx& ctx, PumpState& self, TickFrame& f) {
    ABCL_BEGIN(f);
    ctx.charge(40);
    ctx.send_past(self.target, static_cast<PatternId>(self.rec), {f.v});
    if (f.left > 1) {
      ctx.send_past(ctx.self_addr(), f.pat, {f.left - 1, f.v + 1});
    }
    ABCL_END();
  }
};

TEST(Migration, RedirectEndingOnTheSendersNodeTakesTheLocalShortcut) {
  // The object moves 0 -> 2 while a pump on node 2 keeps mailing its OLD
  // address. The stub on node 0 bounces the first messages and sends node
  // 2 a kUpdateAddr whose destination is node 2 itself; during the flush
  // window node 2 holds new mail, the ack releases it locally, and every
  // later send resolves through the redirect to a local target. Arrival
  // order must survive all of it, every driver and every restore must
  // reproduce the uninterrupted serial run, and afterwards node 2 reaches
  // the object without a network send.
  constexpr Word kTicks = 60;
  core::Program prog;
  RecProgram rp = register_rec(prog);
  PatternId tick = prog.patterns().intern("mig.tick", 2);
  ClassDef<PumpState> pump(prog, "MigPump");
  pump.method<TickFrame>(tick);
  prog.finalize();

  MailAddr a;
  auto make = [&](int threads, std::uint64_t at) {
    WorldConfig cfg;
    cfg.with_nodes(4).with_host_threads(threads);
    if (at != 0) cfg.with_ckpt(boundary(at));
    auto w = std::make_unique<World>(prog, cfg);
    w->boot(0, [&](Ctx& ctx) {
      a = ctx.create_local(*rp.cls, {});
      ctx.migrate_object_to(a.ptr, 2);
    });
    w->boot(2, [&](Ctx& ctx) {
      MailAddr p = ctx.create_local(
          pump.info(), {a.word_node(), a.word_ptr(), static_cast<Word>(rp.rec)});
      ctx.send_past(p, tick, {kTicks, 1});
    });
    return w;
  };

  fuzz::HashTracer base_tracer;
  std::unique_ptr<World> base_world;
  const RunRecord base =
      run_record(prog, make(-1, 0), 0, 0, base_tracer, {}, &base_world);

  const MailAddr home = resolve(*base_world, a);
  ASSERT_EQ(home.node, 2);
  const auto* st = home.ptr->state_as<const RecState>();
  EXPECT_EQ(st->count, kTicks);
  std::uint64_t want = 0;
  for (Word v = 1; v <= kTicks; ++v) want = want * 1099511628211ull + v;
  EXPECT_EQ(st->order_hash, want);
  EXPECT_EQ(st->last_node, 2u);
  const core::NodeStats s2 = base_world->node(2).stats();
  EXPECT_GT(base_world->node(0).stats().migration_forwards, 0u);
  EXPECT_GT(s2.migration_holds, 0u);  // the flush window held some mail
  EXPECT_LT(base_world->node(0).stats().migration_forwards, kTicks);

  // Later sends to the old address resolve to a local target: no packet.
  base_world->boot(2, [&](Ctx& ctx) {
    for (Word v = 1; v <= 5; ++v) ctx.send_past(a, rp.rec, {v});
  });
  base_world->run();
  EXPECT_EQ(st->count, kTicks + 5);
  EXPECT_EQ(base_world->node(2).stats().remote_sends, s2.remote_sends);
  EXPECT_EQ(base_world->node(2).stats().local_sends, s2.local_sends + 5);

  for (int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    fuzz::HashTracer tracer;
    const RunRecord r = run_record(prog, make(threads, 0), 0, 0, tracer);
    EXPECT_EQ(r.metrics, base.metrics);
    EXPECT_EQ(r.trace_hash, base.trace_hash);
  }
  // Restores at boundaries spread over the run, so some land while the
  // redirect entry is flushing and holds mail.
  for (std::uint64_t k = 1; k < 8; ++k) {
    const std::uint64_t at = base.sim_time * k / 8 + 1;
    for (int threads : {-1, 1}) {
      SCOPED_TRACE("at=" + std::to_string(at) +
                   " threads=" + std::to_string(threads));
      fuzz::HashTracer tracer;
      const RunRecord r = run_record(prog, make(threads, at), at,
                                     threads == -1 ? 0 : 2, tracer);
      EXPECT_EQ(r.metrics, base.metrics);
      EXPECT_EQ(r.trace_hash, base.trace_hash);
      EXPECT_EQ(r.trace_events, base.trace_events);
    }
  }
}

// ----------------------------------------------------------- hot spot -----

// All actors are created on node 0 of a 6-node world and churn through
// self-chains. With migration off everything runs where it was born; with
// the shedding policy on, node 0 must export objects and real work must
// land elsewhere — and the whole run stays deterministic.
struct ChurnState {
  std::uint64_t steps = 0;
};

struct KickFrame : Frame {
  Word fuel = 0;
  PatternId pat = 0;
  static void init(KickFrame& f, const Msg& m) {
    f.fuel = m.at(0);
    f.pat = m.pattern;
  }
  static Status run(Ctx& ctx, ChurnState& self, KickFrame& f) {
    ABCL_BEGIN(f);
    self.steps += 1;
    ctx.charge(200);
    if (f.fuel > 0) {
      Word arg = f.fuel - 1;
      ctx.send_past(ctx.self_addr(), f.pat, &arg, 1);
    }
    ABCL_END();
  }
};

struct HotSpotResult {
  std::vector<int> objects_per_node;
  std::uint64_t shed_out = 0;
  std::uint64_t shed_in_elsewhere = 0;
  std::uint64_t total_steps = 0;
  std::string metrics;
};

TEST(MigrationHotSpot, SixNodeShedSpreadsLoadDeterministically) {
  constexpr int kNodes = 6;
  constexpr int kActors = 40;
  constexpr Word kFuel = 60;

  auto run_once = [&](bool migrate) {
    core::Program prog;
    PatternId kick = prog.patterns().intern("churn.kick", 1);
    ClassDef<ChurnState> def(prog, "Churn");
    def.migratable();
    def.method<KickFrame>(kick);
    prog.finalize();

    WorldConfig cfg;
    cfg.with_nodes(kNodes);
    if (migrate) {
      MigrationConfig mc;
      mc.enabled = true;
      mc.interval = 8;
      mc.hysteresis = 2;
      mc.max_batch = 4;
      mc.min_queue = 6;
      mc.seed = 5;
      cfg.with_migration(mc);
    }
    World world(prog, cfg);
    std::vector<MailAddr> actors;
    world.boot(0, [&](Ctx& ctx) {
      for (int i = 0; i < kActors; ++i) {
        actors.push_back(ctx.create_local(def.info(), {}));
      }
    });
    world.boot(0, [&](Ctx& ctx) {
      for (const MailAddr& a : actors) ctx.send_past(a, kick, {kFuel});
    });
    world.run();

    HotSpotResult r;
    r.objects_per_node.assign(kNodes, 0);
    for (const MailAddr& a : actors) {
      MailAddr home = resolve(world, a);
      r.objects_per_node[static_cast<std::size_t>(home.node)] += 1;
      r.total_steps += home.ptr->state_as<const ChurnState>()->steps;
    }
    r.shed_out = world.node(0).stats().migrations_out;
    for (int n = 1; n < kNodes; ++n) {
      r.shed_in_elsewhere += world.node(n).stats().migrations_in;
    }
    r.metrics = obs::metrics_json(world);
    return r;
  };

  HotSpotResult off = run_once(false);
  // Exactly-once dispatch: every actor ran its whole chain, nothing lost
  // or duplicated, migration or not.
  const std::uint64_t kExpectedSteps =
      static_cast<std::uint64_t>(kActors) * (kFuel + 1);
  EXPECT_EQ(off.total_steps, kExpectedSteps);
  EXPECT_EQ(off.objects_per_node[0], kActors);  // no migration: all home
  EXPECT_EQ(off.shed_out, 0u);

  HotSpotResult on = run_once(true);
  EXPECT_EQ(on.total_steps, kExpectedSteps);
  EXPECT_GT(on.shed_out, 0u);  // the hot node really shed
  EXPECT_GT(on.shed_in_elsewhere, 0u);
  // Post-migration spread: node 0 no longer owns everything, and at least
  // one other node ended the run owning migrated objects.
  EXPECT_LT(on.objects_per_node[0], kActors);
  int nodes_with_objects = 0;
  for (int n : on.objects_per_node) nodes_with_objects += n > 0;
  EXPECT_GE(nodes_with_objects, 2);

  // Determinism: the same configuration replays to the byte.
  HotSpotResult again = run_once(true);
  EXPECT_EQ(again.metrics, on.metrics);
  EXPECT_EQ(again.objects_per_node, on.objects_per_node);
}

TEST(MigrationHotSpot, RestoreMidIntervalShedsAndGossipsOnTheSameQuanta) {
  // Shed checks every 8 quanta, gossip every 5. A node's next shed and
  // gossip quanta are not in the snapshot: a restored node re-derives them
  // from its quantum count, so a boundary that falls between two due
  // quanta must still shed and gossip exactly where the uninterrupted run
  // does — the trace fingerprint pins every send to its quantum.
  constexpr int kNodes = 6;
  constexpr int kActors = 40;
  constexpr Word kFuel = 60;
  constexpr std::uint32_t kShedEvery = 8;
  constexpr std::uint32_t kGossipEvery = 5;
  core::Program prog;
  PatternId kick = prog.patterns().intern("churn.kick", 1);
  ClassDef<ChurnState> def(prog, "Churn");
  def.migratable();
  def.method<KickFrame>(kick);
  prog.finalize();

  auto make = [&](int threads, std::uint64_t at) {
    WorldConfig cfg;
    cfg.with_nodes(kNodes).with_host_threads(threads);
    MigrationConfig mc;
    mc.enabled = true;
    mc.interval = kShedEvery;
    mc.hysteresis = 2;
    mc.max_batch = 4;
    mc.min_queue = 6;
    mc.seed = 5;
    cfg.with_migration(mc);
    core::NodeRuntime::Config nc;
    nc.gossip_interval = kGossipEvery;
    cfg.with_node(nc);
    if (at != 0) cfg.with_ckpt(boundary(at));
    auto w = std::make_unique<World>(prog, cfg);
    std::vector<MailAddr> actors;
    w->boot(0, [&](Ctx& ctx) {
      for (int i = 0; i < kActors; ++i) {
        actors.push_back(ctx.create_local(def.info(), {}));
      }
    });
    w->boot(0, [&](Ctx& ctx) {
      for (const MailAddr& a : actors) ctx.send_past(a, kick, {kFuel});
    });
    return w;
  };
  auto service_packets = [](const World& w) {
    return w.network().stats().per_category[static_cast<int>(
        net::AmCategory::kService)];
  };

  fuzz::HashTracer base_tracer;
  std::unique_ptr<World> base_world;
  const RunRecord base =
      run_record(prog, make(-1, 0), 0, 0, base_tracer, {}, &base_world);
  ASSERT_GT(base_world->total_stats().migrations_out, 0u);

  for (std::uint64_t k = 1; k < 5; ++k) {
    const std::uint64_t at = base.sim_time * k / 5 + 1;
    for (int threads : {-1, 1}) {
      SCOPED_TRACE("at=" + std::to_string(at) +
                   " threads=" + std::to_string(threads));
      std::uint64_t shed_before = 0;
      std::uint64_t service_before = 0;
      bool mid_interval = false;
      auto note = [&](World& w) {
        shed_before = w.total_stats().migrations_out;
        service_before = service_packets(w);
        for (int n = 0; n < kNodes; ++n) {
          const std::uint64_t q = w.node(n).stats().sched_depth.count();
          mid_interval |= q % kShedEvery != 0 && q % kGossipEvery != 0;
        }
      };
      fuzz::HashTracer tracer;
      std::unique_ptr<World> restored;
      const RunRecord r = run_record(prog, make(threads, at), at,
                                     threads == -1 ? 0 : 2, tracer, note,
                                     &restored);
      EXPECT_TRUE(mid_interval);
      // The restored world really shed and gossiped again...
      EXPECT_GT(restored->total_stats().migrations_out, shed_before);
      EXPECT_GT(service_packets(*restored), service_before);
      // ...on exactly the uninterrupted run's quanta.
      EXPECT_EQ(r.metrics, base.metrics);
      EXPECT_EQ(r.trace_hash, base.trace_hash);
      EXPECT_EQ(r.trace_events, base.trace_events);
    }
  }
}

// ----------------------------------------------- ABCLSIM_MIGRATION env -----

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

TEST(MigrationEnv, UnsetMeansDisabled) {
  ScopedEnv e("ABCLSIM_MIGRATION", nullptr);
  EXPECT_FALSE(WorldConfig::from_env().migration.enabled);
}

TEST(MigrationEnv, ReadsFullSpec) {
  ScopedEnv e("ABCLSIM_MIGRATION", "interval=16,min_queue=3,seed=11");
  WorldConfig cfg = WorldConfig::from_env();
  EXPECT_TRUE(cfg.migration.enabled);
  EXPECT_EQ(cfg.migration.interval, 16u);
  EXPECT_EQ(cfg.migration.min_queue, 3u);
  EXPECT_EQ(cfg.migration.seed, 11u);
}

TEST(MigrationEnvDeath, GarbageAbortsWithDiagnostic) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScopedEnv e("ABCLSIM_MIGRATION", "interval=lots");
  EXPECT_DEATH({ WorldConfig::from_env(); }, "ABCLSIM_MIGRATION");
}

}  // namespace
