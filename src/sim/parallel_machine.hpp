// Host-parallel conservative PDES driver.
//
// Bounded-window synchronization, one policy at every worker count. Each
// round computes
//   horizon = min(effective key over all nodes) + lookahead
// where lookahead is net::Network::lookahead(): the wire floor plus the
// sender's send_setup, the least distance from a sending quantum's key to
// that packet's arrival (see there for why it holds, fault layer
// included). Every quantum with key < horizon is independent of every send
// issued inside the window — such a send arrives at >= min_key + lookahead
// = horizon — so a fixed pool of worker threads executes all of them
// concurrently. Without a network (driver-only unit tests) the lookahead
// is 1 and sends are not redirected.
//
// Cached window keys: node_key_[i] holds node i's effective key and is
// exact at every window start. Between runs anything may move a key
// (World::boot), so run() entry rescans every node; inside a run only the
// node's own quanta and flush-time deliveries move it, so run_shard stores
// the key at each node's break and notify_work refreshes every delivery's
// destination. A node whose cached key is outside the window (>= the
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
// trace replay — need the serial driver's global key order across
// barriers, and flat windows give it for free: every delivery a flush
// makes arrives at >= the horizon, so the next window's floor key is >=
// every key this window executed. The wire stat therefore takes its
// samples directly at commit, and each barrier replays its window's trace
// events sorted by (key, node) and drains them completely. The results
// are bit-identical to a serial run at any thread count.
//
// Shard policy: nodes map statically to workers (node id mod thread count)
// and, with more than one worker, are reassigned at window barriers (at
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
// parameters — horizon, max time, shard vectors — are written by the
// coordinator between windows and published by the release/acquire pair on
// epoch_.
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
#include "sim/machine.hpp"
#include "sim/shard_balance.hpp"
#include "sim/trace.hpp"

namespace abcl::sim {

class ParallelMachine : public Driver {
 public:
  // `num_threads` is clamped to >= 1; `seed` feeds the shard balancer's
  // tie-break stream (the world seed). The shard balancer runs only with
  // more than one worker: with one the barrier is an inline call and there
  // is no shard to balance.
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
  // simulated state only, so they are identical at every worker count.
  std::uint64_t occupancy_sum() const { return occupancy_sum_; }
  // Barrier-time reassignments applied / individual node moves. Zero on
  // single-worker runs; depends on the worker count (but never on anything
  // simulated-observable).
  std::uint64_t rebalances() const { return rebalances_; }
  std::uint64_t shard_moves() const { return shard_moves_; }
  // Whether the ctor turned the shard balancer on (see there).
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
  void flush_commits();
  void replay_traces();
  void install_node(NodeId id, Worker& w);
  void apply_rebalance();

  net::Network* net_;
  Instr lookahead_;
  std::vector<Worker> workers_;

  // Window parameters, written by the coordinator before it releases an
  // epoch; the release/acquire pair on epoch_ publishes them (along with
  // any shard reassignment).
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

  // Per-node window-start keys (see file header): each worker writes only
  // its shard's slots; the coordinator folds flush-time deliveries in via
  // notify_work.
  std::vector<Instr> node_key_;

  // Balanced-shard state: per-node quanta since the last rebalance (worker-
  // written, disjoint slots) feeding the balancer's EWMAs.
  std::unique_ptr<ShardBalancer> balancer_;
  std::vector<std::uint64_t> window_quanta_;

  // Replay scratch + original tracers saved across a run() while buffers
  // are interposed (index = node id; nullptr = node had no tracer).
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
