// Interconnect topologies for the simulated multicomputer.
//
// The AP1000 is a 2-D torus (T-net, 25 MB/s); the network model only needs
// the hop count between two nodes to price a packet, so a topology is a hop
// function plus a neighbour enumeration (used by the neighbour placement
// policy and the load-gossip service).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/machine.hpp"

namespace abcl::net {

using sim::NodeId;

enum class TopologyKind : std::uint8_t {
  kTorus2D,        // AP1000-style wrap-around mesh
  kMesh2D,         // no wrap-around
  kFullyConnected, // 1 hop between any two distinct nodes
  kRing,           // 1-D wrap-around (pipeline machines)
  kHypercube,      // hops = popcount(a ^ b); n rounded meanings: see ctor
};

class Topology {
 public:
  // Builds a topology over `n` nodes. For the 2-D kinds, the grid is chosen
  // as close to square as possible (X * Y == n, X >= Y).
  Topology(TopologyKind kind, std::int32_t n);

  TopologyKind kind() const { return kind_; }
  std::int32_t num_nodes() const { return n_; }
  std::int32_t dim_x() const { return x_; }
  std::int32_t dim_y() const { return y_; }

  // Minimal routing distance in hops; 0 iff src == dst.
  std::int32_t hops(NodeId src, NodeId dst) const;

  // Direct neighbours (4 for torus/mesh interior; all others for
  // fully-connected, capped at 8 for gossip fan-out sanity; log2(n) for the
  // hypercube). Computed once at construction, so the gossip and shed paths
  // read it without allocating; the view lives as long as the Topology.
  std::span<const NodeId> neighbors(NodeId id) const {
    const auto i = static_cast<std::size_t>(id);
    return {adj_.data() + adj_off_[i], adj_off_[i + 1] - adj_off_[i]};
  }
  // Upper bound on neighbors(id).size() for every kind and size: a
  // hypercube has log2(n) <= 31 neighbours, every other kind at most 8.
  // Fixed-capacity buffers on the shed path are sized by it.
  static constexpr std::size_t kMaxNeighbors = 32;

  std::int32_t diameter() const;

 private:
  std::int32_t coord_x(NodeId id) const { return static_cast<std::int32_t>(id) % x_; }
  std::int32_t coord_y(NodeId id) const { return static_cast<std::int32_t>(id) / x_; }
  void build_neighbors(NodeId id);

  TopologyKind kind_;
  std::int32_t n_;
  std::int32_t x_ = 1;
  std::int32_t y_ = 1;
  // Adjacency in CSR form: node i's neighbours are
  // adj_[adj_off_[i] .. adj_off_[i + 1]).
  std::vector<NodeId> adj_;
  std::vector<std::size_t> adj_off_;
};

}  // namespace abcl::net
