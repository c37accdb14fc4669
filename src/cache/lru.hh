/**
 * @file
 * True-LRU replacement, the paper's baseline policy.
 *
 * The hooks are defined inline: LRU runs on every L1/L2 access, so
 * the devirtualized BasicCache<LruPolicy> instantiation inlines the
 * whole recency update into the access loop.
 *
 * Recency is kept as per-frame timestamps drawn from two per-set
 * clocks (one counting up for MRU insertions, one counting down for
 * LRU insertions), so the hot hooks — hit promotion and fill — are a
 * single store instead of an O(assoc) stack shift.  Stamps within a
 * set are always distinct, so the induced order is a total recency
 * order identical to an explicit-position LRU stack; the stack view
 * (rank / stackPosition / victim) is recovered by comparing stamps.
 */

#ifndef SDBP_CACHE_LRU_HH
#define SDBP_CACHE_LRU_HH

#include <cstdint>
#include <vector>

#include "cache/policy.hh"
#include "util/hotpath.hh"

namespace sdbp
{

/**
 * True LRU: rank 0 is MRU, rank assoc-1 is LRU.
 */
class LruPolicy final : public ReplacementPolicy
{
  public:
    LruPolicy(std::uint32_t num_sets, std::uint32_t assoc);

    SDBP_HOT_PATH void
    onAccess(std::uint32_t set, int hit_way, SetView frames,
             const Access &a) override
    {
        (void)frames;
        (void)a;
        if (hit_way >= 0)
            stamp_[set * assoc_ + static_cast<std::uint32_t>(hit_way)] =
                ++high_[set];
    }

    SDBP_HOT_PATH std::uint32_t
    victim(std::uint32_t set, SetView frames, const Access &a) override
    {
        (void)frames;
        (void)a;
        // The first minimum stamp; stamps within a set are distinct,
        // so it is the unique least recently used way.
        const auto *base = &stamp_[set * assoc_];
        std::uint32_t lru = 0;
        for (std::uint32_t w = 1; w < assoc_; ++w)
            if (base[w] < base[lru])
                lru = w;
        return lru;
    }

    SDBP_HOT_PATH void
    onFill(std::uint32_t set, std::uint32_t way, SetView frames,
           const Access &a) override
    {
        (void)frames;
        (void)a;
        stamp_[set * assoc_ + way] = ++high_[set];
    }

    SDBP_HOT_PATH std::uint32_t
    rank(std::uint32_t set, std::uint32_t way) const override
    {
        const auto *base = &stamp_[set * assoc_];
        const std::int64_t mine = base[way];
        std::uint32_t r = 0;
        for (std::uint32_t w = 0; w < assoc_; ++w)
            r += base[w] > mine;
        return r;
    }

    std::string name() const override { return "lru"; }

    /** Current stack position of a way (0 = MRU). */
    std::uint32_t
    stackPosition(std::uint32_t set, std::uint32_t way) const
    {
        return rank(set, way);
    }

    /**
     * Promote a way to a given stack position (0 = MRU); used by the
     * insertion-policy variants (LIP/BIP) that install at LRU.  The
     * two positions insertion policies use — MRU and LRU — are O(1);
     * an interior position rebuilds the set's order.
     */
    void moveTo(std::uint32_t set, std::uint32_t way,
                std::uint32_t target_pos);

  private:
    /** stamp_[set * assoc + way]: larger = more recently used. */
    std::vector<std::int64_t> stamp_;
    /** Scratch way ordering for interior moveTo, allocated once so
     *  the hot path never touches the heap. */
    std::vector<std::uint32_t> scratch_;
    /** Per-set MRU clock (counts up). */
    std::vector<std::int64_t> high_;
    /** Per-set LRU clock (counts down). */
    std::vector<std::int64_t> low_;
};

} // namespace sdbp

#endif // SDBP_CACHE_LRU_HH
