#include "sim/parallel_machine.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace abcl::sim {

namespace {
// Busy-wait burst before a parked wait. Long enough that a window whose
// work is already in flight completes without a futex round-trip, short
// enough that an idle or oversubscribed thread yields the core quickly.
constexpr int kSpinIters = 2048;
}  // namespace

ParallelMachine::ParallelMachine(std::vector<NodeExec*> nodes,
                                 net::Network* net, int num_threads,
                                 std::uint64_t seed)
    : Driver(std::move(nodes)),
      net_(net),
      lookahead_(net != nullptr ? net->lookahead() : 1),
      workers_(static_cast<std::size_t>(num_threads < 1 ? 1 : num_threads)),
      // On a single hardware thread, every spin cycle is stolen from the
      // thread being waited on — park immediately instead.
      spin_limit_(std::thread::hardware_concurrency() > 1 ? kSpinIters : 0) {
  ABCL_CHECK(lookahead_ > 0);
  // Static round-robin shard: node i -> worker i mod T. Any fixed
  // assignment preserves determinism; round-robin balances the common case
  // where load correlates with id ranges.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    workers_[i % workers_.size()].shard.push_back(static_cast<NodeId>(i));
  }
  node_key_.assign(nodes_.size(), kInstrInf);
  if (workers_.size() > 1) {
    balancer_ = std::make_unique<ShardBalancer>(
        static_cast<std::int32_t>(nodes_.size()),
        static_cast<int>(workers_.size()), seed);
    window_quanta_.assign(nodes_.size(), 0);
  }
}

ParallelMachine::~ParallelMachine() {
  ABCL_CHECK(threads_.empty());  // threads only live inside run()
}

Instr ParallelMachine::effective_key(NodeExec& n) const {
  if (n.runnable()) return n.clock();
  return n.next_wake();  // kInstrInf when idle with nothing in flight
}

void ParallelMachine::run_shard(Worker& w) {
  const Instr horizon = window_horizon_;
  const Instr max_time = window_max_time_;
  const bool balanced = balancer_ != nullptr;
  Instr shard_min = kInstrInf;
  std::uint64_t active = 0;
  for (NodeId id : w.shard) {
    const auto idx = static_cast<std::size_t>(id);
    // The cached key is exact at window start (see node_key_), so a node
    // outside the window is skipped without touching it.
    Instr key = node_key_[idx];
    if (key < horizon && key <= max_time) {
      NodeExec& n = *nodes_[idx];
      const std::uint64_t before = w.quanta;
      do {
        if (n.clock() < key) n.advance_clock(key);
        w.outbox.set_current_key(key);
        w.traces.set_current_key(key);
        n.step();
        ++w.quanta;
        key = effective_key(n);
      } while (key < horizon && key <= max_time);
      ++active;
      if (balanced) window_quanta_[idx] += w.quanta - before;
      // The break-time key is the node's final key for this window: nothing
      // else touches the node until the flush, whose deliveries are folded
      // in via notify_work.
      node_key_[idx] = key;
    }
    if (key < shard_min) shard_min = key;
  }
  w.shard_min = shard_min;
  w.active = active;
  // Pre-sort this worker's run inside the parallel region so the barrier
  // flush only has to merge.
  w.outbox.sort_canonical();
}

void ParallelMachine::worker_main(Worker& w) {
  std::uint64_t seen = 0;
  while (true) {
    std::uint64_t e;
    int spins = 0;
    while ((e = epoch_.load(std::memory_order_acquire)) == seen) {
      if (++spins >= spin_limit_) {
        std::unique_lock<std::mutex> lk(wake_mu_);
        epoch_cv_.wait(lk, [&] {
          return epoch_.load(std::memory_order_acquire) != seen;
        });
        break;
      }
    }
    e = epoch_.load(std::memory_order_acquire);
    seen = e;
    if (stop_.load(std::memory_order_acquire)) return;
    run_shard(w);
    w.done.store(e, std::memory_order_release);
    // Empty critical section: orders the store above before the notify so
    // a coordinator observing an old `done` under wake_mu_ cannot miss it.
    { std::lock_guard<std::mutex> lk(wake_mu_); }
    done_cv_.notify_one();
  }
}

void ParallelMachine::flush_commits() {
  if (net_ == nullptr) return;
  // Commit every buffered send in canonical (quantum key, src) order —
  // the exact order the serial driver would have issued them.
  if (outbox_ptrs_.empty()) {
    for (auto& w : workers_) outbox_ptrs_.push_back(&w.outbox);
  }
  net_->flush_outboxes(outbox_ptrs_.data(), outbox_ptrs_.size());
}

void ParallelMachine::replay_traces() {
  for (auto& w : workers_) {
    trace_merge_.insert(trace_merge_.end(), w.traces.items_.begin(),
                        w.traces.items_.end());
    w.traces.items_.clear();
  }
  if (trace_merge_.empty()) return;
  // Serial execution order is ascending (quantum key, node); each node's
  // events live in one worker's buffer in program order, which the stable
  // sort preserves. Every later window runs at keys >= this window's (see
  // file header), so the whole buffer replays now.
  std::stable_sort(trace_merge_.begin(), trace_merge_.end(),
                   [](const WindowTraceBuffer::Tagged& a,
                      const WindowTraceBuffer::Tagged& b) {
                     if (a.key != b.key) return a.key < b.key;
                     return a.ev.node < b.ev.node;
                   });
  for (const auto& t : trace_merge_) {
    Tracer* dst = saved_tracers_[static_cast<std::size_t>(t.ev.node)];
    if (dst != nullptr) dst->record(t.ev.t, t.ev.node, t.ev.kind, t.ev.payload);
  }
  trace_merge_.clear();
}

void ParallelMachine::install_node(NodeId id, Worker& w) {
  if (saved_tracers_[static_cast<std::size_t>(id)] != nullptr) {
    nodes_[static_cast<std::size_t>(id)]->swap_tracer(&w.traces);
  }
  if (net_ != nullptr) {
    net_->set_outbox(id, &w.outbox);
    net_->set_poll_magazine(id, &w.magazine);
  }
}

void ParallelMachine::apply_rebalance() {
  const int moved = balancer_->rebalance(window_quanta_.data());
  if (moved == 0) return;
  rebalances_ += 1;
  shard_moves_ += static_cast<std::uint64_t>(moved);
  // Rebuild every shard from the new assignment and reinstall the per-node
  // redirection pointers (outbox, poll magazine, trace buffer). Outboxes
  // and trace buffers are drained at this point — the barrier's flush and
  // replay just ran — so moving a node never splits its program order
  // across two buffers within one window. Reinstalling unmoved nodes
  // rewrites the same pointers; cheaper than tracking the diff.
  const auto& asg = balancer_->assignment();
  for (auto& w : workers_) w.shard.clear();
  for (std::size_t i = 0; i < asg.size(); ++i) {
    Worker& w = workers_[static_cast<std::size_t>(asg[i])];
    w.shard.push_back(static_cast<NodeId>(i));
    install_node(static_cast<NodeId>(i), w);
  }
}

void ParallelMachine::notify_work(NodeId dst) {
  Instr k = effective_key(*nodes_[static_cast<std::size_t>(dst)]);
  if (k < notified_min_) notified_min_ = k;
  node_key_[static_cast<std::size_t>(dst)] = k;
}

void ParallelMachine::audit_keys() const {
#ifndef NDEBUG
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    ABCL_DCHECK(node_key_[i] == effective_key(*nodes_[i]));
  }
#endif
}

Driver::RunReport ParallelMachine::run(Instr max_time) {
  // Interpose per-worker outboxes and trace buffers. Nodes without a tracer
  // keep none (recording into a buffer nobody replays would cost time).
  saved_tracers_.assign(nodes_.size(), nullptr);
  for (auto& w : workers_) {
    w.quanta = 0;
    for (NodeId id : w.shard) {
      NodeExec& n = *nodes_[static_cast<std::size_t>(id)];
      Tracer* old = n.swap_tracer(&w.traces);
      if (old == nullptr) {
        n.swap_tracer(nullptr);
      } else {
        saved_tracers_[static_cast<std::size_t>(id)] = old;
      }
      if (net_ != nullptr) {
        net_->set_outbox(id, &w.outbox);
        net_->set_poll_magazine(id, &w.magazine);
      }
    }
  }
  const bool threaded = workers_.size() > 1;
  if (threaded) {
    epoch_.store(0, std::memory_order_relaxed);
    stop_.store(false, std::memory_order_relaxed);
    for (auto& w : workers_) w.done.store(0, std::memory_order_relaxed);
    // The coordinator executes workers_[0]'s shard itself, so a T-worker
    // run occupies T threads, not T + 1.
    threads_.reserve(workers_.size() - 1);
    for (std::size_t i = 1; i < workers_.size(); ++i) {
      Worker& w = workers_[i];
      threads_.emplace_back([this, &w] { worker_main(w); });
    }
  }

  // One full scan seeds the window loop and the cached key array (work
  // injected between runs, e.g. World::boot, changes keys behind the
  // driver's back); afterwards both are maintained incrementally — each
  // worker reports its shard's keys and flush-time deliveries fold in
  // through notify_work.
  Instr min_key = kInstrInf;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    node_key_[i] = effective_key(*nodes_[i]);
    if (node_key_[i] < min_key) min_key = node_key_[i];
  }

  // Repack the shards at most once per N committed quanta. A repack costs
  // an O(N log N) sort plus an O(N) reinstall; sparse windows (a handful of
  // quanta each, as in saturated N-queens) would otherwise reshuffle most
  // of the shard map at every barrier.
  std::uint64_t rebalance_at = nodes_.size();
  while (min_key != kInstrInf && min_key <= max_time) {
    audit_keys();
    window_horizon_ = sat_add(min_key, lookahead_);
    window_max_time_ = max_time;

    std::uint64_t e = 0;
    if (threaded) {
      e = epoch_.fetch_add(1, std::memory_order_release) + 1;
      { std::lock_guard<std::mutex> lk(wake_mu_); }
      epoch_cv_.notify_all();
    }
    run_shard(workers_[0]);
    for (std::size_t i = 1; i < workers_.size(); ++i) {
      Worker& w = workers_[i];
      int spins = 0;
      while (w.done.load(std::memory_order_acquire) != e) {
        if (++spins >= spin_limit_) {
          std::unique_lock<std::mutex> lk(wake_mu_);
          done_cv_.wait(lk, [&] {
            return w.done.load(std::memory_order_acquire) == e;
          });
          break;
        }
      }
    }

    notified_min_ = kInstrInf;
    flush_commits();
    min_key = notified_min_;
    std::uint64_t run_quanta = 0;
    for (auto& w : workers_) {
      if (w.shard_min < min_key) min_key = w.shard_min;
      occupancy_sum_ += w.active;
      run_quanta += w.quanta;
    }
    replay_traces();
    ++windows_;
    if (balancer_ != nullptr && run_quanta >= rebalance_at) {
      apply_rebalance();
      rebalance_at = run_quanta + nodes_.size();
    }
  }

  if (threaded) {
    stop_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    { std::lock_guard<std::mutex> lk(wake_mu_); }
    epoch_cv_.notify_all();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  ABCL_CHECK(trace_merge_.empty());

  // Restore tracers and the direct send/release paths. Worker threads are
  // joined (or never existed), so draining their magazines back to the
  // depot from this thread is race-free.
  for (auto& w : workers_) {
    for (NodeId id : w.shard) {
      NodeExec& n = *nodes_[static_cast<std::size_t>(id)];
      if (Tracer* orig = saved_tracers_[static_cast<std::size_t>(id)]) {
        n.swap_tracer(orig);
      }
      if (net_ != nullptr) {
        net_->set_outbox(id, nullptr);
        net_->set_poll_magazine(id, nullptr);
      }
    }
    if (net_ != nullptr) net_->packet_pool().flush(w.magazine);
  }

  RunReport rep;
  for (auto& w : workers_) {
    rep.quanta += w.quanta;
  }
  quanta_ += rep.quanta;
  for (NodeExec* n : nodes_) {
    if (n->clock() > rep.end_time) rep.end_time = n->clock();
  }
  return rep;
}

}  // namespace abcl::sim
