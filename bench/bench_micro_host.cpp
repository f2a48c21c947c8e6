// Host-nanosecond microbenchmarks of the runtime primitives themselves —
// separate from the paper tables (which report modeled machine time). These
// demonstrate the implementation is genuinely lightweight: the scheduling
// paths the paper counts in SPARC instructions cost a few host nanoseconds.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "apps/counters.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/machine.hpp"
#include "sim/shard_balance.hpp"
#include "util/arena.hpp"
#include "util/intrusive_list.hpp"
#include "util/slab.hpp"
#include "util/sorted_queue.hpp"

namespace {

using namespace abcl;

// ---- allocators -------------------------------------------------------------

void BM_SlabAllocFree(benchmark::State& state) {
  util::Arena arena;
  util::SlabAllocator pool(arena);
  for (auto _ : state) {
    void* p = pool.allocate(128);
    benchmark::DoNotOptimize(p);
    pool.deallocate(p, 128);
  }
}
BENCHMARK(BM_SlabAllocFree);

// Frame-churn shape: a burst of live frames across classes, then release —
// the pattern a dispatch cascade produces (the single-slot ping-pong above
// flatters any allocator).
void BM_SlabChurn(benchmark::State& state) {
  util::Arena arena;
  util::SlabAllocator pool(arena);
  void* live[64];
  const std::size_t sizes[4] = {48, 96, 160, 320};
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) live[i] = pool.allocate(sizes[i & 3]);
    for (int i = 63; i >= 0; --i) pool.deallocate(live[i], sizes[i & 3]);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SlabChurn);

void BM_ArenaBump(benchmark::State& state) {
  util::Arena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arena.allocate(64));
  }
}
BENCHMARK(BM_ArenaBump);

// ---- message queue ----------------------------------------------------------

void BM_MsgQueuePushPop(benchmark::State& state) {
  core::MsgFrame frames[8];
  util::IntrusiveFifo<core::MsgFrame, &core::MsgFrame::next> q;
  for (auto _ : state) {
    for (auto& f : frames) q.push_back(&f);
    while (core::MsgFrame* f = q.pop_front()) benchmark::DoNotOptimize(f);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_MsgQueuePushPop);

// ---- network ----------------------------------------------------------------

void BM_NetworkSendPoll(benchmark::State& state) {
  sim::CostModel cm = sim::CostModel::ap1000();
  net::Network net(net::Topology(net::TopologyKind::kTorus2D, 64), &cm);
  sim::Instr t = 0;
  for (auto _ : state) {
    net::Packet p;
    p.handler = 0;
    p.src = 0;
    p.dst = 37;
    p.send_time = t++;
    p.push(42);
    net.send(std::move(p), net::AmCategory::kObjectMessage);
    net::Packet out;
    bool got = net.poll(37, sim::kInstrInf, out);
    benchmark::DoNotOptimize(got);
  }
}
BENCHMARK(BM_NetworkSendPoll);

// Same, but against a standing queue of 256 in-flight packets: queue moves
// shift 24-byte slot refs instead of whole Packets.
void BM_NetworkSendPollDeep(benchmark::State& state) {
  sim::CostModel cm = sim::CostModel::ap1000();
  net::Network net(net::Topology(net::TopologyKind::kTorus2D, 64), &cm);
  sim::Instr t = 0;
  auto send_one = [&](std::int32_t src) {
    net::Packet p;
    p.handler = 0;
    p.src = src;
    p.dst = 37;
    p.send_time = t;
    p.push(42);
    net.send(std::move(p), net::AmCategory::kObjectMessage);
  };
  for (std::int32_t s = 0; s < 64; ++s) {
    for (int i = 0; i < 4; ++i) send_one(s);
  }
  ++t;
  for (auto _ : state) {
    send_one(static_cast<std::int32_t>(t % 64));
    ++t;
    net::Packet out;
    bool got = net.poll(37, sim::kInstrInf, out);
    benchmark::DoNotOptimize(got);
  }
}
BENCHMARK(BM_NetworkSendPollDeep);

// ---- time queues ------------------------------------------------------------

struct QEntry {
  sim::Instr key;
  std::int32_t id;
};
struct QLess {
  bool operator()(const QEntry& a, const QEntry& b) const {
    return a.key != b.key ? a.key < b.key : a.id < b.id;
  }
};

// Standing-depth push/pop ping-pong: pop the min, reinsert it a pseudo-random
// small stride later — the machine's ready set, which re-pushes a node
// anywhere among up to P entries. state.range(0) = depth. Q is any
// min-first queue of QEntry with push/top/pop.
template <class Q>
void queue_push_pop(benchmark::State& state) {
  const auto depth = static_cast<int>(state.range(0));
  Q q;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  sim::Instr t = 0;
  for (int i = 0; i < depth; ++i) {
    t += static_cast<sim::Instr>(next() % 64);
    q.push({t, i});
  }
  for (auto _ : state) {
    QEntry e = q.top();
    q.pop();
    benchmark::DoNotOptimize(e);
    e.key += 1 + static_cast<sim::Instr>(next() % 512);
    q.push(e);
  }
}

// std::priority_queue pops the max, so invert.
struct QGreater {
  bool operator()(const QEntry& a, const QEntry& b) const {
    return QLess{}(b, a);
  }
};
using BinaryHeap = std::priority_queue<QEntry, std::vector<QEntry>, QGreater>;
using SortedRun = util::SortedQueue<QEntry, QLess>;

void BM_BinaryHeapPushPop(benchmark::State& state) {
  queue_push_pop<BinaryHeap>(state);
}
BENCHMARK(BM_BinaryHeapPushPop)->Arg(16)->Arg(256)->Arg(4096);

// Shallow-sparse delivery traffic: most per-destination delivery queues
// hold one to three packets, and the queue empties before the next burst
// of arrivals. Each iteration pushes a burst of 1..state.range(0) entries
// spread over up to 1024 keys (wider than a ring of 64 width-1 buckets)
// and pops it to empty; the clock then moves on by 64..575 keys. Items are
// pushed entries.
template <class Q>
void queue_shallow_sparse(benchmark::State& state) {
  const auto max_depth = static_cast<std::uint64_t>(state.range(0));
  Q q;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  sim::Instr t = 0;
  std::int32_t id = 0;
  std::int64_t items = 0;
  for (auto _ : state) {
    const auto depth = static_cast<int>(1 + next() % max_depth);
    t += 64 + static_cast<sim::Instr>(next() % 512);
    q.push({t, id++});
    for (int i = 1; i < depth; ++i) {
      q.push({t + static_cast<sim::Instr>(next() % 1024), id++});
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.top());
      q.pop();
    }
    items += depth;
  }
  state.SetItemsProcessed(items);
}

void BM_SortedQueueShallowSparse(benchmark::State& state) {
  queue_shallow_sparse<SortedRun>(state);
}
BENCHMARK(BM_SortedQueueShallowSparse)->Arg(1)->Arg(2)->Arg(3);

void BM_BinaryHeapShallowSparse(benchmark::State& state) {
  queue_shallow_sparse<BinaryHeap>(state);
}
BENCHMARK(BM_BinaryHeapShallowSparse)->Arg(1)->Arg(2)->Arg(3);

// Deep delivery queue under reorder delays: state.range(0) packets stay
// queued, keys 8 apart; each iteration pops the earliest and pushes one
// that lands about 7 entries before the tail, the insert distance measured
// on recovery_faults' deep queues.
template <class Q>
void queue_deep_near_tail(benchmark::State& state) {
  const auto depth = static_cast<int>(state.range(0));
  Q q;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  sim::Instr t = 64;
  std::int32_t id = 0;
  for (int i = 0; i < depth; ++i) q.push({t += 8, id++});
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.top());
    q.pop();
    t += 8;
    q.push({t - 56 - static_cast<sim::Instr>(next() % 8), id++});
  }
}

void BM_SortedQueueDeepNearTail(benchmark::State& state) {
  queue_deep_near_tail<SortedRun>(state);
}
BENCHMARK(BM_SortedQueueDeepNearTail)->Arg(1000);

void BM_BinaryHeapDeepNearTail(benchmark::State& state) {
  queue_deep_near_tail<BinaryHeap>(state);
}
BENCHMARK(BM_BinaryHeapDeepNearTail)->Arg(1000);

// ---- barrier flush ----------------------------------------------------------

// The coordinator-side cost of committing a window's sends from 8 worker
// outboxes. state.range(0) = packets per box; state.range(1): 1 = the
// production k-way merge over pre-sorted runs (the pre-sort itself is
// excluded, as in production it runs inside the parallel region), 0 = a
// global std::stable_sort baseline that gathers every box's sends, sorts
// them into canonical (key, src) order and commits them directly. Fill and
// drain run under PauseTiming.
void BM_FlushOutboxesMerge(benchmark::State& state) {
  const auto per_box = static_cast<int>(state.range(0));
  const bool merge = state.range(1) != 0;
  constexpr int kBoxes = 8;
  constexpr std::int32_t kNodes = 64;
  struct Item {
    net::Packet pkt;
    sim::Instr key;
  };
  sim::CostModel cm = sim::CostModel::ap1000();
  net::Network net(net::Topology(net::TopologyKind::kTorus2D, kNodes), &cm);
  net::Network::Outbox boxes[kBoxes];
  net::Network::Outbox* ptrs[kBoxes];
  for (int b = 0; b < kBoxes; ++b) ptrs[b] = &boxes[b];
  if (merge) {
    for (std::int32_t src = 0; src < kNodes; ++src) {
      net.set_outbox(src, &boxes[src % kBoxes]);  // round-robin shard, as in
                                                  // ParallelMachine
    }
  }
  std::vector<Item> runs[kBoxes];  // sort side: the same sends, per box
  std::vector<Item> gathered;
  sim::Instr t = 1;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < per_box; ++i) {
      for (int b = 0; b < kBoxes; ++b) {
        auto src = static_cast<std::int32_t>(
            (b + kBoxes * (i % (kNodes / kBoxes))) % kNodes);
        const sim::Instr key =
            t + static_cast<sim::Instr>((i * 7 + b * 3) % 64);
        net::Packet p;
        p.handler = 0;
        p.src = src;
        p.dst = (src + 17) % kNodes;
        p.send_time = key + cm.send_setup;  // as every send path stamps it
        p.push(42);
        if (merge) {
          boxes[b].set_current_key(key);
          net.send(std::move(p), net::AmCategory::kObjectMessage);
        } else {
          runs[b].push_back({p, key});
        }
      }
    }
    if (merge) {
      for (auto& b : boxes) b.sort_canonical();
    }
    state.ResumeTiming();
    if (merge) {
      net.flush_outboxes(ptrs, kBoxes);
    } else {
      gathered.clear();
      for (auto& r : runs) {
        gathered.insert(gathered.end(), r.begin(), r.end());
        r.clear();
      }
      // Canonical order: (key, src); stability keeps each source's program
      // order, since one source lives in exactly one box.
      std::stable_sort(gathered.begin(), gathered.end(),
                       [](const Item& a, const Item& b) {
                         if (a.key != b.key) return a.key < b.key;
                         return a.pkt.src < b.pkt.src;
                       });
      for (Item& it : gathered) {
        net.send(std::move(it.pkt), net::AmCategory::kObjectMessage);
      }
    }
    state.PauseTiming();
    net::Packet out;
    for (std::int32_t d = 0; d < kNodes; ++d) {
      while (net.poll(d, sim::kInstrInf, out)) {
      }
    }
    t += 128;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * per_box * kBoxes);
}
BENCHMARK(BM_FlushOutboxesMerge)
    ->Args({16, 1})
    ->Args({16, 0})
    ->Args({256, 1})
    ->Args({256, 0})
    ->Args({4096, 1})
    ->Args({4096, 0});

// ---- end-to-end dispatch ------------------------------------------------------

struct Env {
  core::Program prog;
  apps::CounterProgram cp;
  Env() {
    cp = apps::register_counter(prog);
    prog.finalize();
  }
};

void BM_DormantDispatch(benchmark::State& state) {
  Env env;
  WorldConfig cfg;
  cfg.with_nodes(1);
  cfg.with_cost(sim::CostModel::zero());  // isolate host cost from model math
  World world(env.prog, cfg);
  world.boot(0, [&](Ctx& ctx) {
    MailAddr c = ctx.create_local(*env.cp.cls, nullptr, 0);
    ctx.send_past(c, env.cp.noop, nullptr, 0);
    for (auto _ : state) ctx.send_past(c, env.cp.noop, nullptr, 0);
  });
}
BENCHMARK(BM_DormantDispatch);

void BM_ActivePathPerMessage(benchmark::State& state) {
  Env env;
  WorldConfig cfg;
  cfg.with_nodes(1);
  World world(env.prog, cfg);
  MailAddr c;
  world.boot(0, [&](Ctx& ctx) {
    c = ctx.create_local(*env.cp.cls, nullptr, 0);
    ctx.send_past(c, env.cp.noop, nullptr, 0);
  });
  std::int64_t msgs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    world.boot(0, [&](Ctx& ctx) {
      Word args[2] = {1024, env.cp.noop};
      ctx.send_past(c, env.cp.fill, args, 2);
    });
    state.ResumeTiming();
    world.run();
    msgs += 1024;
  }
  state.SetItemsProcessed(msgs);
}
BENCHMARK(BM_ActivePathPerMessage);

void BM_MachineQuantumOverhead(benchmark::State& state) {
  // Pure driver cost: a world whose only work is self-refilling noops.
  Env env;
  WorldConfig cfg;
  cfg.with_nodes(16);
  World world(env.prog, cfg);
  std::vector<MailAddr> cs(16);
  for (NodeId nid = 0; nid < 16; ++nid) {
    world.boot(nid, [&](Ctx& ctx) {
      cs[static_cast<std::size_t>(nid)] = ctx.create_local(*env.cp.cls, nullptr, 0);
    });
  }
  std::int64_t quanta = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (NodeId nid = 0; nid < 16; ++nid) {
      world.boot(nid, [&](Ctx& ctx) {
        Word args[2] = {256, env.cp.noop};
        ctx.send_past(cs[static_cast<std::size_t>(nid)], env.cp.fill, args, 2);
      });
    }
    state.ResumeTiming();
    quanta += static_cast<std::int64_t>(world.run().quanta);
  }
  state.SetItemsProcessed(quanta);
}
BENCHMARK(BM_MachineQuantumOverhead)->Unit(benchmark::kMicrosecond);

// ---- parallel-driver window machinery ---------------------------------------

// Per-barrier cost of the deterministic shard rebalance: EWMA fold plus the
// LPT repack over state.range(0) nodes onto 8 workers.
void BM_ShardRebalance(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  sim::ShardBalancer bal(n, /*workers=*/8, /*seed=*/1);
  std::vector<std::uint64_t> quanta(static_cast<std::size_t>(n));
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto _ : state) {
    for (auto& q : quanta) {
      x ^= x >> 12;
      x ^= x << 25;
      x ^= x >> 27;
      q = x & 31;  // skewed small loads, some zero
    }
    benchmark::DoNotOptimize(bal.rebalance(quanta.data()));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ShardRebalance)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
