// Deterministic node->worker rebalancing for the host-parallel driver.
//
// The static round-robin shard (node i -> worker i mod T) idles most of the
// host when load concentrates on a few nodes (the hot-spot workloads). At
// window barriers (at most once per N committed quanta) the driver instead
// recomputes the assignment from a pure function of *simulated* state: each node's committed-quantum EWMA,
// greedily packed largest-first onto the least-loaded worker, with SplitMix
// hash tie-breaks (decide_shed-style) so equal loads still order
// deterministically. Nothing host-dependent feeds the decision — the window
// sequence and per-window quantum counts are functions of the simulated
// keys alone — so the assignment history is bit-identical at any thread
// count, and because reassignment happens only at barriers (outboxes and
// trace buffers drained), each source still lives in exactly one outbox per
// window and the canonical (key, src) commit order is untouched. Simulated
// results therefore do not depend on the assignment at all; the balancer
// only decides which host thread does the work.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/machine.hpp"

namespace abcl::sim {

class ShardBalancer {
 public:
  // `seed` feeds the tie-break hash stream (the world seed, so equal-load
  // orderings differ across worlds but never across runs of one world).
  ShardBalancer(std::int32_t nodes, int workers, std::uint64_t seed);

  // Folds the per-node quantum counts since the previous call into the
  // load EWMAs and recomputes the assignment. `window_quanta` must have
  // num-nodes entries; they are consumed (zeroed for the next interval).
  // Returns how many nodes changed worker (0 = assignment unchanged,
  // nothing to reinstall).
  int rebalance(std::uint64_t* window_quanta);

  // Current node -> worker map (seeded round-robin, like the static shard).
  const std::vector<std::int32_t>& assignment() const { return assignment_; }

 private:
  int workers_;
  std::uint64_t seed_;
  std::vector<std::int32_t> assignment_;
  // Fixed-point (<< 8) exponentially weighted quantum count per node.
  std::vector<std::uint64_t> ewma_;
  std::vector<std::uint64_t> tiebreak_;  // per-node SplitMix roll (cached)
  std::vector<std::int32_t> order_;      // sort scratch
  std::vector<std::uint64_t> load_;      // per-worker packed load scratch
};

}  // namespace abcl::sim
