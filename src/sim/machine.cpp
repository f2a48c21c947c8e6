#include "sim/machine.hpp"

#include "util/assert.hpp"

namespace abcl::sim {

Driver::Driver(std::vector<NodeExec*> nodes) : nodes_(std::move(nodes)) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    ABCL_CHECK(nodes_[i] != nullptr);
    ABCL_CHECK(nodes_[i]->node_id() == static_cast<NodeId>(i));
  }
}

Machine::Machine(std::vector<NodeExec*> nodes) : Driver(std::move(nodes)) {
  heap_key_.assign(nodes_.size(), kInstrInf);
}

Instr Machine::effective_key(NodeExec& n) const {
  if (n.runnable()) return n.clock();
  return n.next_wake();  // kInstrInf when idle with nothing in flight
}

void Machine::push_node(NodeId id) {
  NodeExec& n = *nodes_[static_cast<std::size_t>(id)];
  Instr key = effective_key(n);
  if (key == kInstrInf) return;
  auto& best = heap_key_[static_cast<std::size_t>(id)];
  if (key < best) {
    best = key;
    heap_.push(HeapEntry{key, id});
  }
}

void Machine::notify_work(NodeId dst) { push_node(dst); }

Machine::RunReport Machine::run(Instr max_time) { return run_impl(max_time, ~0ull); }

Machine::RunReport Machine::run_quanta(std::uint64_t max_quanta) {
  return run_impl(kInstrInf, max_quanta);
}

Machine::RunReport Machine::run_impl(Instr max_time, std::uint64_t max_quanta) {
  // Seed: all nodes with work.
  for (std::size_t i = 0; i < nodes_.size(); ++i) push_node(static_cast<NodeId>(i));

  std::uint64_t ran = 0;
  while (!heap_.empty() && ran < max_quanta) {
    HeapEntry e = heap_.top();
    heap_.pop();
    auto idx = static_cast<std::size_t>(e.node);
    if (heap_key_[idx] != e.key) continue;  // stale duplicate
    heap_key_[idx] = kInstrInf;

    NodeExec& n = *nodes_[idx];
    Instr key = effective_key(n);
    if (key == kInstrInf) continue;  // became idle since insertion
    if (key > e.key) {
      // The node's earliest work moved later; re-queue at the new key.
      push_node(e.node);
      continue;
    }
    if (key > max_time) continue;

    if (n.clock() < key) n.advance_clock(key);
    ABCL_DCHECK(n.runnable());
    n.step();
    ++ran;
    push_node(e.node);  // re-insert if it still has (or regained) work
  }

  RunReport rep;
  rep.quanta = (quanta_ += ran, ran);
  for (NodeExec* n : nodes_) {
    if (n->clock() > rep.end_time) rep.end_time = n->clock();
  }
  return rep;
}

}  // namespace abcl::sim
