#include "remote/chunk_stock.hpp"

namespace abcl::remote {

ChunkStock::Cell& ChunkStock::grow(core::NodeId peer,
                                   std::uint16_t size_class) {
  ABCL_CHECK(peer >= 0 && size_class < kSizeClasses);
  if (col1_[size_class] == 0) {
    // A new size class: re-lay every row out one column wider. At most
    // kSizeClasses times per stock.
    std::vector<Cell> wider(peers_ * (ncols_ + 1));
    for (std::size_t p = 0; p < peers_; ++p) {
      for (std::size_t c = 0; c < ncols_; ++c) {
        wider[p * (ncols_ + 1) + c] = cells_[p * ncols_ + c];
      }
    }
    cells_ = std::move(wider);
    ++ncols_;
    col1_[size_class] = static_cast<std::uint8_t>(ncols_);
  }
  const auto p = static_cast<std::size_t>(peer);
  if (p >= peers_) {
    peers_ = p + 1;
    cells_.resize(peers_ * ncols_);
  }
  return cells_[p * ncols_ + col1_[size_class] - 1];
}

core::ObjectHeader* ChunkStock::pop_spill(core::NodeId peer,
                                          std::uint16_t size_class, Cell& c) {
  auto it = spill_.find(key(peer, size_class));
  ABCL_DCHECK(it != spill_.end() &&
              it->second.size() == c.depth - kInline);
  core::ObjectHeader* chunk = it->second.back();
  it->second.pop_back();
  if (it->second.empty()) spill_.erase(it);
  --c.depth;
  return chunk;
}

void ChunkStock::push_spill(core::NodeId peer, std::uint16_t size_class,
                            Cell& c, core::ObjectHeader* chunk) {
  spill_[key(peer, size_class)].push_back(chunk);
  ++c.depth;
}

}  // namespace abcl::remote
