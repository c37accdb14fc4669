/**
 * @file
 * Set-associative cache model with pluggable replacement/bypass
 * policy, writeback handling and live/dead-time accounting.
 *
 * Block storage is structure-of-arrays: a contiguous tag lane (the
 * sentinel SetView::kNoBlock encodes "invalid") and a packed
 * valid/dirty/predicted-dead state lane are the only data the
 * per-access path touches, so a set probe is one cache-line scan;
 * the cold lanes (owner, fill/last-touch ticks, per-frame efficiency
 * accounting) live in separate arrays that only the miss path and
 * end-of-run reporting read.
 *
 * The class splits into a non-template CacheBase (geometry, stats,
 * cold operations) and BasicCache<P>, which binds the policy type at
 * compile time: with a final policy class (the private levels'
 * LruPolicy) the per-access hook calls devirtualize and inline.
 * `Cache` is BasicCache<ReplacementPolicy>, the LLC's composition:
 * any policy plugs in through the virtual interface (DESIGN.md §12).
 */

#ifndef SDBP_CACHE_CACHE_HH
#define SDBP_CACHE_CACHE_HH

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/block.hh"
#include "cache/policy.hh"
#include "obs/trace_sink.hh"
#include "trace/access.hh"
#include "util/hotpath.hh"
#include "util/logging.hh"

namespace sdbp
{

namespace obs
{
class StatRegistry;
} // namespace obs

/** Static geometry of one cache. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint32_t numSets = 64;
    std::uint32_t assoc = 8;
    /** Hit latency in cycles (used by the timing model). */
    Cycle latency = 1;
    /** Collect per-frame live/dead time statistics (Fig. 1). */
    bool trackEfficiency = false;

    std::uint64_t sizeBytes() const;
};

/** Aggregate counters of one cache. */
struct CacheStats
{
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t writebackAccesses = 0;
    std::uint64_t writebackHits = 0;
    std::uint64_t fills = 0;
    std::uint64_t bypasses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;

    /** Summed live time of completed block generations (ticks). */
    double liveTime = 0;
    /** Summed resident time of completed block generations. */
    double totalTime = 0;

    /** Live-time ratio: the cache "efficiency" of Fig. 1. */
    double efficiency() const;

    /**
     * Register every counter under @p prefix ("llc" ->
     * "llc.demand_misses", ...).  The stats object must outlive the
     * registry; the registry pulls at snapshot time, so registration
     * adds no per-access cost.
     */
    void registerStats(obs::StatRegistry &reg,
                       const std::string &prefix) const;
};

/**
 * Per-frame miss-path metadata, interleaved so a fill (which writes
 * all three fields) and an eviction (which reads them) touch one
 * host cache line instead of three parallel lanes.  Kept out of the
 * hit-path lanes: a demand hit only stores lastTouchTick.
 */
struct FrameMeta
{
    std::uint64_t fillTick = 0;
    std::uint64_t lastTouchTick = 0;
    ThreadId owner = 0;
};

/** What fell out of the cache during a fill or writeback allocate. */
struct EvictedBlock
{
    bool valid = false;
    bool dirty = false;
    Addr blockAddr = 0;
    ThreadId owner = 0;
};

/**
 * Policy-type-erased part of the cache: storage lanes, statistics
 * and every operation off the per-access path.  The hierarchy and
 * tools hold CacheBase references when they only need geometry,
 * stats or probes; driving accesses requires the typed BasicCache.
 */
class CacheBase
{
  public:
    virtual ~CacheBase() = default;

    CacheBase(const CacheBase &) = delete;
    CacheBase &operator=(const CacheBase &) = delete;

    /** True if the block is present (no state change). */
    bool probe(Addr block_addr) const;

    /** Invalidate a block if present (no writeback; test hook). */
    void invalidate(Addr block_addr);

    /** Account still-resident blocks' live/dead time at end of run. */
    void finalizeEfficiency(std::uint64_t now);

    /**
     * Per-frame efficiency (live-time ratio) of frame (set, way);
     * only meaningful with trackEfficiency (Fig. 1 heat map).
     */
    double frameEfficiency(std::uint32_t set, std::uint32_t way) const;

    SDBP_HOT_PATH std::uint32_t
    setIndex(Addr block_addr) const
    {
        return static_cast<std::uint32_t>(block_addr &
                                          (cfg_.numSets - 1));
    }

    const CacheConfig &config() const { return cfg_; }
    const CacheStats &stats() const { return stats_; }

    /** Register counters + an efficiency gauge under @p prefix. */
    void registerStats(obs::StatRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Attach an event-trace sink (nullptr detaches).  Fill, bypass
     * and eviction events on the miss path are recorded; the hit
     * path is never touched.
     */
    void setTraceSink(obs::TraceSink *sink) { trace_ = sink; }

    ReplacementPolicy &policy() { return *policyBase_; }
    const ReplacementPolicy &policy() const { return *policyBase_; }

    /** Hot-lane view of one set (what the policy hooks receive). */
    SDBP_HOT_PATH SetView
    frames(std::uint32_t set)
    {
        const std::size_t base =
            static_cast<std::size_t>(set) * cfg_.assoc;
        return {&tags_[base], &state_[base], cfg_.assoc};
    }

    /** Materialized snapshot of frame (set, way) for inspection. */
    CacheBlock blockAt(std::uint32_t set, std::uint32_t way) const;

    /** Reset all content and statistics (policy state persists). */
    void clearStats();

    /**
     * Panic (via SDBP_DCHECK) unless every valid block maps to the
     * set that holds it, no set holds the same block twice, no
     * block's generation timestamps are inverted, and the tag
     * sentinel agrees with the valid bit in every frame (the SoA
     * layout invariant).
     */
    void auditInvariants() const;

    /**
     * Probe of one set; -1 when absent.  One branchless pass over the
     * tag lane: the sentinel encoding makes invalid frames compare
     * unequal for free, and the no-duplicate-tag invariant makes
     * "last match wins" the only match.
     */
    SDBP_HOT_PATH int
    findWay(std::uint32_t set, Addr block_addr) const
    {
        const Addr *tags =
            &tags_[static_cast<std::size_t>(set) * cfg_.assoc];
        int way = -1;
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w)
            way = tags[w] == block_addr ? static_cast<int>(w) : way;
        return way;
    }

  protected:
    CacheBase(const CacheConfig &cfg, ReplacementPolicy *policy_base);

    /** Close the live/dead generation of a frame about to turn over. */
    SDBP_HOT_PATH void
    retireGeneration(std::uint32_t set, std::uint32_t way,
                     std::uint64_t now)
    {
        const std::size_t idx =
            static_cast<std::size_t>(set) * cfg_.assoc + way;
        const FrameMeta &m = meta_[idx];
        if (!(state_[idx] & SetView::kValid) || now < m.fillTick)
            return;
        const double live =
            static_cast<double>(m.lastTouchTick - m.fillTick);
        const double total =
            static_cast<double>(now - m.fillTick);
        stats_.liveTime += live;
        stats_.totalTime += total;
        if (cfg_.trackEfficiency) {
            frameLive_[idx] += live;
            frameTotal_[idx] += total;
        }
    }

    CacheConfig cfg_;
    CacheStats stats_;
    /** Hot lanes: tag (kNoBlock = invalid) and packed state bits. */
    std::vector<Addr> tags_;
    std::vector<std::uint8_t> state_;
    /** Cold lane: miss-path / reporting data only. */
    std::vector<FrameMeta> meta_;
    obs::TraceSink *trace_ = nullptr;
    /** Per-frame accumulated live/total time (trackEfficiency). */
    std::vector<double> frameLive_;
    std::vector<double> frameTotal_;

  private:
    /** The policy as seen through the virtual interface (cold ops). */
    ReplacementPolicy *policyBase_;
};

/**
 * The cache, with the policy type bound at compile time.  The caller
 * (the hierarchy) drives it with the protocol:
 *
 *   if (!cache.access(a, now))          // miss
 *       ... service miss below ...
 *       evicted = cache.fill(a, now);   // may bypass
 *       ... write back evicted.dirty ...
 */
template <class P>
class BasicCache final : public CacheBase
{
  public:
    BasicCache(const CacheConfig &cfg, std::unique_ptr<P> policy)
        : CacheBase(cfg, policy.get()), policy_(std::move(policy))
    {
    }

    P &typedPolicy() { return *policy_; }
    const P &typedPolicy() const { return *policy_; }

    /**
     * Demand or writeback lookup; updates policy and stats.
     *
     * @param now a monotonically increasing tick used for live/dead
     *        accounting (the driver passes the instruction count)
     * @return true on hit
     */
    SDBP_HOT_PATH SDBP_ALWAYS_INLINE bool
    access(const Access &a, std::uint64_t now)
    {
        const Addr block = a.blockAddr();
        const std::uint32_t set = setIndex(block);
        const std::size_t base =
            static_cast<std::size_t>(set) * cfg_.assoc;
        const int way = findWay(set, block);

        if (a.isWriteback)
            ++stats_.writebackAccesses;
        else
            ++stats_.demandAccesses;

        if (way >= 0) {
            const std::size_t idx =
                base + static_cast<std::uint32_t>(way);
            if (a.isWriteback) {
                ++stats_.writebackHits;
                state_[idx] =
                    static_cast<std::uint8_t>(state_[idx] |
                                              SetView::kDirty);
            } else {
                ++stats_.demandHits;
                meta_[idx].lastTouchTick = now;
                if (a.isWrite)
                    state_[idx] =
                        static_cast<std::uint8_t>(state_[idx] |
                                                  SetView::kDirty);
            }
        } else if (!a.isWriteback) {
            ++stats_.demandMisses;
        }

        policy_->onAccess(set, way, frames(set), a);
        return way >= 0;
    }

    /**
     * Install the block after a miss was serviced.  The policy may
     * decline the fill (bypass).
     *
     * @return the block that was evicted to make room (valid=false
     *         if an empty way was used or the fill was bypassed)
     */
    SDBP_HOT_PATH EvictedBlock
    fill(const Access &a, std::uint64_t now)
    {
        EvictedBlock evicted;
        const Addr block = a.blockAddr();
        const std::uint32_t set = setIndex(block);
        assert(findWay(set, block) < 0 && "fill of resident block");
        assert(block != SetView::kNoBlock && "fill of sentinel tag");

        if (policy_->shouldBypass(set, a)) {
            ++stats_.bypasses;
            SDBP_TRACE_EVENT(trace_, now, obs::TraceEventKind::Bypass,
                             set, block, a.pc, true);
            return evicted;
        }

        const std::size_t base =
            static_cast<std::size_t>(set) * cfg_.assoc;

        // Prefer an invalid frame.  Steady-state fills find none, so
        // test eight state bytes per step instead of branching on
        // each: a zero kValid bit anywhere in the chunk lights up in
        // one mask test, and the byte-by-byte walk only runs for the
        // chunk that contains the first invalid frame.
        std::uint32_t way = cfg_.assoc;
        {
            constexpr std::uint64_t kValidMask =
                0x0101010101010101ULL *
                static_cast<std::uint64_t>(SetView::kValid);
            std::uint32_t w = 0;
            for (; w + 8 <= cfg_.assoc; w += 8) {
                std::uint64_t chunk;
                __builtin_memcpy(&chunk, &state_[base + w],
                                 sizeof(chunk));
                if ((chunk & kValidMask) != kValidMask)
                    break;
            }
            for (; w < cfg_.assoc; ++w) {
                if (!(state_[base + w] & SetView::kValid)) {
                    way = w;
                    break;
                }
            }
        }
        if (way == cfg_.assoc) {
            way = policy_->victim(set, frames(set), a);
            assert(way < cfg_.assoc);
            const std::size_t idx = base + way;
            retireGeneration(set, way, now);
            evicted.valid = true;
            evicted.dirty = (state_[idx] & SetView::kDirty) != 0;
            evicted.blockAddr = tags_[idx];
            evicted.owner = meta_[idx].owner;
            ++stats_.evictions;
            if (evicted.dirty)
                ++stats_.dirtyEvictions;
            SDBP_TRACE_EVENT(trace_, now,
                             obs::TraceEventKind::Eviction, set,
                             tags_[idx], 0,
                             (state_[idx] & SetView::kDead) != 0);
            policy_->onEvict(set, way, frames(set));
        }

        const std::size_t idx = base + way;
        tags_[idx] = block;
        state_[idx] = static_cast<std::uint8_t>(
            SetView::kValid |
            ((a.isWrite || a.isWriteback) ? SetView::kDirty : 0));
        meta_[idx] = {now, now, a.thread};
        ++stats_.fills;
        SDBP_TRACE_EVENT(trace_, now, obs::TraceEventKind::Fill, set,
                         block, a.pc, false);
        policy_->onFill(set, way, frames(set), a);

#if SDBP_DCHECK_ENABLED
        // Periodic full audit in debug builds (amortized over 64K
        // fills).
        if ((stats_.fills & 0xFFFFu) == 0)
            auditInvariants();
#endif
        return evicted;
    }

  private:
    std::unique_ptr<P> policy_;
};

/** The type-erased cache: virtual policy dispatch per access. */
using Cache = BasicCache<ReplacementPolicy>;

} // namespace sdbp

#endif // SDBP_CACHE_CACHE_HH
