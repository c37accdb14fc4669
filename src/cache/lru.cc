#include "cache/lru.hh"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace sdbp
{

LruPolicy::LruPolicy(std::uint32_t num_sets, std::uint32_t assoc)
    : ReplacementPolicy(num_sets, assoc), scratch_(assoc),
      high_(num_sets, 0),
      low_(num_sets, -static_cast<std::int64_t>(assoc - 1))
{
    // Initial order: way w sits at stack position w, i.e. way 0 is
    // MRU.  Stamps within a set must be distinct.  Each set's stamps
    // are written once, by copy: the LLC's lane is the largest a run
    // builds, and constructing it runs once per sweep cell.
    std::vector<std::int64_t> order(assoc);
    for (std::uint32_t w = 0; w < assoc; ++w)
        order[w] = -static_cast<std::int64_t>(w);
    stamp_.reserve(static_cast<std::size_t>(num_sets) * assoc);
    for (std::uint32_t s = 0; s < num_sets; ++s)
        stamp_.insert(stamp_.end(), order.begin(), order.end());
}

void
LruPolicy::moveTo(std::uint32_t set, std::uint32_t way,
                  std::uint32_t target_pos)
{
    auto *base = &stamp_[set * assoc_];
    if (target_pos == 0) {
        base[way] = ++high_[set];
        return;
    }
    if (target_pos == assoc_ - 1) {
        base[way] = --low_[set];
        return;
    }

    // Interior insertion: rebuild the set's order with `way` at
    // `target_pos` and re-stamp every frame.  Uses the ctor-allocated
    // scratch buffer — the hot path must not allocate.
    assert(target_pos < assoc_);
    auto &order = scratch_;
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return base[a] > base[b];
              });
    std::uint32_t next = 0;
    for (std::uint32_t r = 0; r < assoc_; ++r) {
        std::uint32_t w;
        if (r == target_pos) {
            w = way;
        } else {
            while (order[next] == way)
                ++next;
            w = order[next++];
        }
        base[w] = high_[set] - static_cast<std::int64_t>(r);
    }
    low_[set] = std::min(low_[set],
                         high_[set] - static_cast<std::int64_t>(assoc_));
}

} // namespace sdbp
