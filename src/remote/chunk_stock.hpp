// Predelivered chunk stocks (Section 5.2).
//
// Each node keeps, per (peer node, chunk size class), a stack of addresses
// of memory chunks that the peer has already allocated and formatted with
// the generic fault table. A remote creation draws the new object's mail
// address from this stock *locally*, hiding the allocation round trip; the
// Category-3 replenish message keeps the stock at its steady depth. Only
// when the stock is empty does the creator fall back to split-phase
// allocation (and hence context switching).
//
// Layout: one 32-byte cell per (peer, size class in use), in a flat
// row-per-peer array indexed by peer * columns + column, where a size
// class gets its column the first time it is stocked or requested. A cell
// holds the stack depth, the in-flight replenish count and the bottom
// kInline chunks, so the steady-state stock (chunk_stock_target, default
// 2) is one cell and a pop or a planned-depth check touches one cache line
// and hashes nothing. Deeper stacks (a seeded warm start) keep the rest in
// a per-(peer, class) spill vector.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "util/assert.hpp"
#include "util/slab.hpp"

namespace abcl::ckpt {
struct WorldIo;
}

namespace abcl::remote {

class ChunkStock {
 public:
  // Size classes are the slab allocator's.
  static constexpr std::size_t kSizeClasses = util::SlabAllocator::kNumClasses;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t pushes = 0;
  };

  // Pops a predelivered chunk on `peer` of the given size class, if any.
  std::optional<core::ObjectHeader*> try_pop(core::NodeId peer,
                                             std::uint16_t size_class) {
    Cell* c = find(peer, size_class);
    if (c == nullptr || c->depth == 0) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    if (c->depth > kInline) return pop_spill(peer, size_class, *c);
    return c->chunks[--c->depth];
  }

  void push(core::NodeId peer, std::uint16_t size_class,
            core::ObjectHeader* chunk) {
    ABCL_CHECK(chunk != nullptr);
    ++stats_.pushes;
    stack(peer, size_class, chunk);
  }

  std::size_t depth(core::NodeId peer, std::uint16_t size_class) const {
    const Cell* c = find(peer, size_class);
    return c == nullptr ? 0 : c->depth;
  }

  // Replenish-in-flight bookkeeping. A creator that requests a replenish
  // with every create packet overshoots the steady-state target as soon as
  // the stock is drained and then bursts back up; tracking requests that
  // have not yet arrived lets the creator cap depth + pending at the
  // target. note_replenish_arrived clamps at zero so a replenish that
  // predates the bookkeeping (e.g. seeded mid-flight) cannot underflow.
  void note_replenish_requested(core::NodeId peer, std::uint16_t size_class) {
    Cell& c = cell(peer, size_class);
    c.requested = true;
    c.pending += 1;
  }

  void note_replenish_arrived(core::NodeId peer, std::uint16_t size_class) {
    Cell* c = find(peer, size_class);
    if (c != nullptr && c->pending > 0) c->pending -= 1;
  }

  std::size_t pending_replenish(core::NodeId peer,
                                std::uint16_t size_class) const {
    const Cell* c = find(peer, size_class);
    return c == nullptr ? 0 : c->pending;
  }

  // Chunks usable without further wire traffic: on hand plus in flight.
  std::size_t planned_depth(core::NodeId peer, std::uint16_t size_class) const {
    const Cell* c = find(peer, size_class);
    return c == nullptr ? 0 : std::size_t{c->depth} + c->pending;
  }

  std::size_t total_chunks() const {
    std::size_t n = 0;
    for (const Cell& c : cells_) n += c.depth;
    return n;
  }

  const Stats& stats() const { return stats_; }

 private:
  friend struct abcl::ckpt::WorldIo;  // checkpoint serializer

  static constexpr std::uint32_t kInline = 2;

  struct alignas(32) Cell {
    std::uint32_t depth = 0;    // chunks on hand
    std::uint32_t pending = 0;  // replenishes requested, not yet arrived
    // Presence, kept for the checkpoint: a cell ever pushed to is written
    // as a stock (even when empty), one ever requested as a pending entry.
    bool stocked = false;
    bool requested = false;
    core::ObjectHeader* chunks[kInline] = {};  // stack slots [0, kInline)
  };
  static_assert(sizeof(Cell) == 32);

  static std::uint64_t key(core::NodeId peer, std::uint16_t size_class) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer)) << 16) |
           size_class;
  }

  Cell* find(core::NodeId peer, std::uint16_t size_class) {
    return const_cast<Cell*>(std::as_const(*this).find(peer, size_class));
  }
  const Cell* find(core::NodeId peer, std::uint16_t size_class) const {
    ABCL_DCHECK(size_class < kSizeClasses);
    const std::size_t col1 = col1_[size_class];
    const auto p = static_cast<std::size_t>(peer);
    if (col1 == 0 || p >= peers_) return nullptr;
    return &cells_[p * ncols_ + col1 - 1];
  }
  // The cell for (peer, size_class), growing the layout to hold it.
  Cell& cell(core::NodeId peer, std::uint16_t size_class) {
    Cell* c = find(peer, size_class);
    return c != nullptr ? *c : grow(peer, size_class);
  }
  Cell& grow(core::NodeId peer, std::uint16_t size_class);

  // push() without the statistics (the checkpoint restores those as saved).
  void stack(core::NodeId peer, std::uint16_t size_class,
             core::ObjectHeader* chunk) {
    Cell& c = cell(peer, size_class);
    c.stocked = true;
    if (c.depth < kInline) {
      c.chunks[c.depth++] = chunk;
    } else {
      push_spill(peer, size_class, c, chunk);
    }
  }

  core::ObjectHeader* pop_spill(core::NodeId peer, std::uint16_t size_class,
                                Cell& c);
  void push_spill(core::NodeId peer, std::uint16_t size_class, Cell& c,
                  core::ObjectHeader* chunk);

  std::vector<Cell> cells_;  // [peer][column], peers_ * ncols_ cells
  std::size_t peers_ = 0;
  std::size_t ncols_ = 0;
  std::uint8_t col1_[kSizeClasses] = {};  // column + 1; 0 = no column yet
  // Stack slots [kInline, depth) of deeper stacks, keyed by key(peer, class).
  std::map<std::uint64_t, std::vector<core::ObjectHeader*>> spill_;
  Stats stats_;
};

}  // namespace abcl::remote
