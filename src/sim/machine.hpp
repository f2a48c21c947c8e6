// Conservative discrete-event drivers for the simulated multicomputer.
//
// Each node is a single-threaded processor with its own instruction clock.
// The serial `Machine` always executes the runnable node with the globally
// smallest clock (ties broken by node id), which is safe because every
// packet has strictly positive latency (lookahead): no node with a larger
// clock can retroactively deliver work into the past of the node being run.
// Idle nodes' clocks jump forward to their next packet arrival. The run
// ends at quiescence: no node runnable and no packet in flight.
//
// `ParallelMachine` (parallel_machine.hpp) is a drop-in `Driver` that runs
// whole time windows of nodes concurrently on host threads while producing
// bit-identical results.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/time.hpp"

namespace abcl::sim {

using NodeId = std::int32_t;

class Tracer;

// Implemented by core::NodeRuntime. One step() executes one scheduling
// quantum (drain arrived packets, then run one scheduling-queue item or one
// freshly delivered message cascade) and advances the node's clock.
class NodeExec {
 public:
  virtual ~NodeExec() = default;

  virtual NodeId node_id() const = 0;
  virtual Instr clock() const = 0;

  // True if the node has local work it could run right now (scheduling
  // queue nonempty or packets already arrived at or before clock()).
  virtual bool runnable() const = 0;

  // Earliest future instant at which the node becomes runnable because of a
  // pending packet, or kInstrInf if none is in flight toward it.
  virtual Instr next_wake() const = 0;

  // Advance the local clock to `t` (only ever forward).
  virtual void advance_clock(Instr t) = 0;

  // Run one quantum. Precondition: runnable().
  virtual void step() = 0;

  // Replace the node's attached tracer, returning the previous one. The
  // host-parallel driver uses this to interpose per-worker trace buffers.
  // Default: no tracing support.
  virtual Tracer* swap_tracer(Tracer*) { return nullptr; }
};

// Common driver interface: the abcl::World runs its nodes through one of
// these. The network's on_deliverable callback must call notify_work.
class Driver {
 public:
  struct RunReport {
    Instr end_time = 0;        // max node clock at quiescence
    std::uint64_t quanta = 0;  // total step() invocations
  };

  explicit Driver(std::vector<NodeExec*> nodes);
  virtual ~Driver() = default;

  // Must be called (e.g. by the network) whenever new work is scheduled for
  // `dst` — a packet enqueued or a cross-layer wakeup — so the driver can
  // re-evaluate the node's readiness.
  virtual void notify_work(NodeId dst) = 0;

  // Runs until quiescence (or until `max_time` if given). Returns a report.
  virtual RunReport run(Instr max_time = kInstrInf) = 0;

  NodeExec* node(NodeId id) const { return nodes_[static_cast<std::size_t>(id)]; }
  std::size_t num_nodes() const { return nodes_.size(); }

 protected:
  std::vector<NodeExec*> nodes_;
};

class Machine : public Driver {
 public:
  explicit Machine(std::vector<NodeExec*> nodes);

  void notify_work(NodeId dst) override;
  RunReport run(Instr max_time = kInstrInf) override;

  // Single-step variant for tests: runs at most `max_quanta` quanta.
  RunReport run_quanta(std::uint64_t max_quanta);

 private:
  struct HeapEntry {
    Instr key;
    NodeId node;
  };
  // std::priority_queue pops its greatest entry, so "greater" here means
  // "runs later": the heap pops ascending (key, node), the serial
  // execution order. Entries that tie on both are identical (a stale
  // duplicate of a re-pushed node), so the pop order is fully determined.
  struct RunsLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a.key != b.key ? a.key > b.key : a.node > b.node;
    }
  };

  Instr effective_key(NodeExec& n) const;
  void push_node(NodeId id);
  RunReport run_impl(Instr max_time, std::uint64_t max_quanta);

  // best key currently present in the queue per node; kInstrInf = absent.
  std::vector<Instr> heap_key_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, RunsLater> heap_;
  std::uint64_t quanta_ = 0;
};

}  // namespace abcl::sim
