// Host-parallel conservative PDES driver.
//
// Bounded-window synchronization. Under the flat policy each round computes
//   horizon = min(effective key over all nodes) + lookahead
// where lookahead is the minimum positive latency any packet can have
// (net::Network::min_packet_latency). Every quantum with key < horizon is
// independent of every send issued inside the window — such a send arrives
// at >= min_key + lookahead = horizon — so a fixed pool of worker threads
// executes all of them concurrently.
//
// Distance-aware horizons: the flat bound ignores that a packet from j to i
// is priced at >= lookahead + per_hop * hops(j, i), so node i may instead
// run to the per-node horizon
//   H_i = lookahead + min(key_i, min_{j != i} (key_j + per_hop * hops(j, i)))
// computed each window in O(N): sim::HorizonMap supplies the exclude-self
// hop term (see lookahead.hpp for its transforms) and compute_horizons()
// folds the node's own key back in at hops = 0. The self term is needed:
// the runtime does send packets to its own node (a remote-create whose
// placement picks the caller's node), and without it a node could run past
// the arrival of a packet it has not sent yet. Windows get wider the
// farther a node sits from the global minimum, which only changes *when*
// barriers happen, never what executes: any conservative window executes
// the same quanta with the same inputs as the serial driver.
//
// Cached window keys: node_key_[i] holds node i's effective key and is
// exact at every window start. Between runs anything may move a key
// (World::boot), so run() entry rescans every node; inside a run only the
// node's own quanta and flush-time deliveries move it, so run_shard stores
// the key at each node's break and notify_work refreshes every delivery's
// destination. A node whose cached key is outside its window (>= its
// horizon, or > max_time) would not execute a quantum, so run_shard skips
// it with one compare and no virtual call: a window costs O(nodes) array
// reads plus the work it actually runs. Debug builds audit the cache at
// every window start.
//
// Determinism: workers never touch the shared network state. Sends are
// buffered into per-worker outboxes, stamped with the issuing quantum's
// key, and committed at the window barrier in canonical order — ascending
// (quantum key, src), preserving per-node program order. Seq numbers and
// channel floors are per-src/per-channel, so they only need each source's
// program order, which any window shape preserves. The two *globally*
// order-sensitive observables — the network's Welford wire-latency stat and
// trace replay — are reordered behind the global key frontier: each barrier
// computes the next window's floor key F (no later quantum, hence no later
// send or trace event, can carry a key < F), drains the network's deferred
// stat samples below F (Network::drain_deferred_wire_stats) and replays
// buffered trace events below F sorted by (key, node), carrying the rest.
// Under the flat policy every window drains completely (all keys < horizon
// <= F), so consecutive flushes are already in global key order: the wire
// stat takes its samples directly at commit and only distance horizons turn
// the network's reorder buffer on. Under distance horizons the carry
// reconstructs the serial global order across windows. Either way the
// results are bit-identical to a serial run at any thread count.
//
// Shard policy: nodes map statically to workers (node id mod thread count)
// or, with more than one worker, are reassigned at window barriers (at
// most once per N committed quanta) by sim::ShardBalancer from per-node
// committed-quantum EWMAs — a pure function of simulated state and the
// worker count, so the assignment history never depends on host timing.
// Reassignment happens only between windows, when outboxes and trace
// buffers are drained, so each source still lives in exactly one outbox
// per window and the canonical commit order (and with it every simulated
// result) is untouched.
//
// Thread-safety partition during a window: a worker touches only its own
// nodes' state, those nodes' destination queues (poll side), its own outbox,
// trace buffer and packet-pool magazine, plus its nodes' slots in the
// per-node key/quanta arrays (disjoint indices). The one shared mutable
// structure is the packet pool's depot, which a worker only reaches
// through its magazine's overflow path
// (mutex-guarded, amortized one trip per kMagazineCap frees). Window
// parameters — horizon, per-node horizon vector, shard vectors — are
// written by the coordinator between windows and published by the
// release/acquire pair on epoch_.
//
// Threads: with T > 1 workers the coordinator runs workers_[0]'s shard
// itself between publishing an epoch and waiting at the barrier, and T - 1
// spawned threads run the rest, so a run occupies T threads, not T + 1.
// Epoch waits are spin-then-park: a bounded busy-wait burst (skipped
// entirely on single-core hosts, where spinning only steals cycles from
// the thread being waited on), then a condvar park. The atomics still
// carry the synchronization; the mutex/condvar pair only prevents lost
// wakeups around the park.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/network.hpp"
#include "sim/lookahead.hpp"
#include "sim/machine.hpp"
#include "sim/shard_balance.hpp"
#include "sim/trace.hpp"

namespace abcl::sim {

class ParallelMachine : public Driver {
 public:
  // `num_threads` is clamped to >= 1; `seed` feeds the shard balancer's
  // tie-break stream (the world seed). Both policies follow from the worker
  // count, since neither changes a simulated result:
  //  - With one worker the barrier is an inline call, so the per-node
  //    horizon relaxation and the shard balancer would be pure overhead:
  //    flat windows, static shard.
  //  - With several workers every barrier is a cross-thread handshake,
  //    which is what distance horizons (fewer windows) and the balancer
  //    (load-aware shards) exist to save.
  // Distance horizons additionally need the network's topology and cost
  // model, so `net == nullptr` (driver-only unit tests; lookahead falls
  // back to 1 and sends are not redirected) keeps flat windows. Fault
  // injection keeps them too. That is a conservative choice, not a known
  // unsoundness: every fault-layer copy still arrives at >= send time + the
  // priced latency (net/fault.hpp), but the distance bound was only ever
  // validated on fault-free runs.
  ParallelMachine(std::vector<NodeExec*> nodes, net::Network* net,
                  int num_threads, std::uint64_t seed = 1);
  ~ParallelMachine() override;

  // Only ever invoked on the coordinator thread (commits happen at window
  // barriers or outside run()); refreshes the destination's cached key and
  // folds it into the running minimum for the next window. Arrivals only
  // lower next_wake, so min over notification-time keys equals the
  // post-flush key.
  void notify_work(NodeId dst) override;
  RunReport run(Instr max_time = kInstrInf) override;

  int num_threads() const { return static_cast<int>(workers_.size()); }
  std::uint64_t windows_run() const { return windows_; }
  // Sum over windows of nodes that executed >= 1 quantum: occupancy_sum /
  // windows_run is the mean window occupancy. Both are functions of
  // simulated state and the horizon policy only, so they are identical at
  // every worker count above one.
  std::uint64_t occupancy_sum() const { return occupancy_sum_; }
  // Barrier-time reassignments applied / individual node moves. Zero on
  // single-worker runs; depends on the worker count (but never on anything
  // simulated-observable).
  std::uint64_t rebalances() const { return rebalances_; }
  std::uint64_t shard_moves() const { return shard_moves_; }
  // The policies the ctor derived (see there).
  bool distance_horizons() const { return distance_; }
  bool balanced_shards() const { return balancer_ != nullptr; }

 private:
  // Tracer interposer: tags each event with the key of the quantum that
  // produced it so the barrier replay can reconstruct serial order.
  class WindowTraceBuffer final : public Tracer {
   public:
    WindowTraceBuffer() : Tracer(1) {}
    void set_current_key(Instr k) { key_ = k; }
    void record(Instr t, NodeId node, TraceEv kind,
                std::uint64_t payload) override {
      items_.push_back({key_, Event{t, node, kind, payload}});
    }

    struct Tagged {
      Instr key;
      Event ev;
    };
    std::vector<Tagged> items_;

   private:
    Instr key_ = 0;
  };

  struct Worker {
    std::vector<NodeId> shard;
    net::Network::Outbox outbox;
    // Thread-local cache of free packet slots; polls on this shard release
    // into it, touching the shared depot only on overflow.
    net::PacketPool::Magazine magazine;
    WindowTraceBuffer traces;
    std::uint64_t quanta = 0;
    // Nodes of this shard that executed >= 1 quantum in the last window.
    std::uint64_t active = 0;
    // Min effective key across the shard after the window's execution
    // (published to the coordinator by the release-store on `done`).
    Instr shard_min = kInstrInf;
    std::atomic<std::uint64_t> done{0};
  };

  Instr effective_key(NodeExec& n) const;
  // Debug builds: every cached key equals the node's effective key.
  void audit_keys() const;
  void run_shard(Worker& w);
  void worker_main(Worker& w);
  void compute_horizons();
  void flush_commits();
  void replay_traces(Instr frontier);
  void install_node(NodeId id, Worker& w);
  void apply_rebalance();

  net::Network* net_;
  Instr lookahead_;
  std::vector<Worker> workers_;
  bool distance_;  // derived horizon policy (see ctor)

  // Window parameters, written by the coordinator before it releases an
  // epoch; the release/acquire pair on epoch_ publishes them (along with
  // horizons_ and any shard reassignment).
  Instr window_horizon_ = 0;
  Instr window_max_time_ = kInstrInf;

  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> stop_{false};

  // Park support for the epoch handshake (see file header). wake_mu_ is
  // only ever held for empty critical sections or around a cv wait; the
  // epoch_/done atomics remain the published state.
  int spin_limit_;  // busy-wait iterations before parking; 0 = park at once
  std::mutex wake_mu_;
  std::condition_variable epoch_cv_;  // workers park here between windows
  std::condition_variable done_cv_;   // coordinator parks here at barriers

  // Per-node window-start keys under both policies (see file header): each
  // worker writes only its shard's slots; the coordinator folds flush-time
  // deliveries in via notify_work.
  std::vector<Instr> node_key_;

  // Distance-horizon state: the per-node horizons derived from node_key_.
  std::unique_ptr<HorizonMap> hmap_;
  // Unclamped wire floor for the per-pair bound (see ctor); the clamped
  // lookahead_ stays the flat policy's window width.
  Instr dist_base_ = 1;
  std::vector<Instr> node_bound_;  // relax() scratch
  std::vector<Instr> horizons_;

  // Balanced-shard state: per-node quanta since the last rebalance (worker-
  // written, disjoint slots) feeding the balancer's EWMAs.
  std::unique_ptr<ShardBalancer> balancer_;
  std::vector<std::uint64_t> window_quanta_;

  // Replay scratch + original tracers saved across a run() while buffers
  // are interposed (index = node id; nullptr = node had no tracer).
  // trace_merge_ persists across windows under distance horizons: the
  // (key, node)-sorted suffix at or beyond the key frontier carries over
  // until the frontier passes it.
  std::vector<net::Network::Outbox*> outbox_ptrs_;
  std::vector<WindowTraceBuffer::Tagged> trace_merge_;
  std::vector<Tracer*> saved_tracers_;
  Instr notified_min_ = kInstrInf;  // min key among flush-time deliveries
  std::uint64_t windows_ = 0;
  std::uint64_t occupancy_sum_ = 0;
  std::uint64_t rebalances_ = 0;
  std::uint64_t shard_moves_ = 0;
  std::uint64_t quanta_ = 0;
};

}  // namespace abcl::sim
