/**
 * @file
 * Unit tests for the cache model and the hierarchy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <memory>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/lru.hh"
#include "trace/access.hh"
#include "util/rng.hh"

namespace sdbp
{
namespace
{

Access
demand(Addr block_addr, PC pc = 0x400000, bool write = false,
       ThreadId thread = 0)
{
    Access a = Access::atBlock(block_addr, pc, thread);
    a.isWrite = write;
    return a;
}

Access
writeback(Addr block_addr, ThreadId thread = 0)
{
    return Access::writebackOf(block_addr, thread);
}

std::unique_ptr<Cache>
makeLruCache(std::uint32_t sets, std::uint32_t assoc,
             bool track_eff = false)
{
    CacheConfig cfg;
    cfg.name = "test";
    cfg.numSets = sets;
    cfg.assoc = assoc;
    cfg.trackEfficiency = track_eff;
    return std::make_unique<Cache>(
        cfg, std::make_unique<LruPolicy>(sets, assoc));
}

/** A policy that bypasses everything; victim is way 0. */
class BypassAllPolicy : public ReplacementPolicy
{
  public:
    using ReplacementPolicy::ReplacementPolicy;
    void
    onAccess(std::uint32_t, int, SetView, const Access &) override
    {
    }
    bool
    shouldBypass(std::uint32_t, const Access &a) override
    {
        return !a.isWriteback;
    }
    std::uint32_t
    victim(std::uint32_t, SetView, const Access &) override
    {
        return 0;
    }
    void
    onFill(std::uint32_t, std::uint32_t, SetView,
           const Access &) override
    {
    }
    std::string name() const override { return "bypass-all"; }
};

TEST(CacheTest, MissThenHit)
{
    auto cache = makeLruCache(4, 2);
    EXPECT_FALSE(cache->access(demand(0x10), 0));
    cache->fill(demand(0x10), 0);
    EXPECT_TRUE(cache->access(demand(0x10), 1));
    EXPECT_EQ(cache->stats().demandAccesses, 2u);
    EXPECT_EQ(cache->stats().demandMisses, 1u);
    EXPECT_EQ(cache->stats().demandHits, 1u);
}

TEST(CacheTest, SetIndexUsesLowBits)
{
    auto cache = makeLruCache(8, 1);
    EXPECT_EQ(cache->setIndex(0x10), 0x10u & 7);
    EXPECT_EQ(cache->setIndex(0xff), 7u);
    // Blocks mapping to different sets never conflict.
    cache->access(demand(0x00), 0);
    cache->fill(demand(0x00), 0);
    cache->access(demand(0x01), 0);
    cache->fill(demand(0x01), 0);
    EXPECT_TRUE(cache->probe(0x00));
    EXPECT_TRUE(cache->probe(0x01));
}

TEST(CacheTest, LruEvictionOrder)
{
    auto cache = makeLruCache(1, 2);
    for (Addr a : {0x10, 0x20}) {
        cache->access(demand(a), 0);
        cache->fill(demand(a), 0);
    }
    // Touch 0x10 so 0x20 becomes LRU.
    cache->access(demand(0x10), 1);
    cache->access(demand(0x30), 2);
    const EvictedBlock ev = cache->fill(demand(0x30), 2);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.blockAddr, 0x20u);
    EXPECT_TRUE(cache->probe(0x10));
    EXPECT_FALSE(cache->probe(0x20));
}

TEST(CacheTest, DirtyEvictionReported)
{
    auto cache = makeLruCache(1, 1);
    cache->access(demand(0x10, 0, true), 0);
    cache->fill(demand(0x10, 0, true), 0);
    cache->access(demand(0x20), 1);
    const EvictedBlock ev = cache->fill(demand(0x20), 1);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(cache->stats().dirtyEvictions, 1u);
}

TEST(CacheTest, WriteHitSetsDirty)
{
    auto cache = makeLruCache(1, 1);
    cache->access(demand(0x10), 0);
    cache->fill(demand(0x10), 0);
    cache->access(demand(0x10, 0, true), 1);
    cache->access(demand(0x20), 2);
    EXPECT_TRUE(cache->fill(demand(0x20), 2).dirty);
}

TEST(CacheTest, WritebackHitMarksDirtyWithoutDemandStats)
{
    auto cache = makeLruCache(1, 1);
    cache->access(demand(0x10), 0);
    cache->fill(demand(0x10), 0);
    EXPECT_TRUE(cache->access(writeback(0x10), 1));
    EXPECT_EQ(cache->stats().writebackAccesses, 1u);
    EXPECT_EQ(cache->stats().writebackHits, 1u);
    EXPECT_EQ(cache->stats().demandAccesses, 1u);
    cache->access(demand(0x20), 2);
    EXPECT_TRUE(cache->fill(demand(0x20), 2).dirty);
}

TEST(CacheTest, BypassPolicyKeepsCacheEmpty)
{
    CacheConfig cfg;
    cfg.numSets = 2;
    cfg.assoc = 2;
    Cache cache(cfg, std::make_unique<BypassAllPolicy>(2, 2));
    for (Addr a = 0; a < 10; ++a) {
        EXPECT_FALSE(cache.access(demand(a), a));
        cache.fill(demand(a), a);
        EXPECT_FALSE(cache.probe(a));
    }
    EXPECT_EQ(cache.stats().bypasses, 10u);
    EXPECT_EQ(cache.stats().fills, 0u);
}

TEST(CacheTest, InvalidFramesFillBeforeEviction)
{
    auto cache = makeLruCache(1, 4);
    for (Addr a = 0x10; a < 0x14; ++a) {
        cache->access(demand(a), 0);
        EXPECT_FALSE(cache->fill(demand(a), 0).valid);
    }
    EXPECT_EQ(cache->stats().evictions, 0u);
    cache->access(demand(0x20), 1);
    EXPECT_TRUE(cache->fill(demand(0x20), 1).valid);
    EXPECT_EQ(cache->stats().evictions, 1u);
}

TEST(CacheTest, InvalidateRemovesBlock)
{
    auto cache = makeLruCache(2, 2);
    cache->access(demand(0x10), 0);
    cache->fill(demand(0x10), 0);
    EXPECT_TRUE(cache->probe(0x10));
    cache->invalidate(0x10);
    EXPECT_FALSE(cache->probe(0x10));
    cache->invalidate(0x10); // idempotent
}

TEST(CacheTest, EfficiencyAccountsLiveAndDeadTime)
{
    auto cache = makeLruCache(1, 1, true);
    // Fill at t=0, last touch at t=40, evict at t=100:
    // live = 40, total = 100 -> efficiency 0.4.
    cache->access(demand(0x10), 0);
    cache->fill(demand(0x10), 0);
    cache->access(demand(0x10), 40);
    cache->access(demand(0x20), 100);
    cache->fill(demand(0x20), 100);
    EXPECT_NEAR(cache->stats().efficiency(), 0.4, 1e-9);
    EXPECT_NEAR(cache->frameEfficiency(0, 0), 0.4, 1e-9);
}

TEST(CacheTest, FinalizeEfficiencyCountsResidentBlocks)
{
    auto cache = makeLruCache(1, 1, true);
    cache->access(demand(0x10), 0);
    cache->fill(demand(0x10), 0);
    cache->access(demand(0x10), 10);
    cache->finalizeEfficiency(100);
    EXPECT_NEAR(cache->stats().efficiency(), 0.1, 1e-9);
}

TEST(CacheTest, ClearStatsPreservesContent)
{
    auto cache = makeLruCache(2, 2);
    cache->access(demand(0x10), 0);
    cache->fill(demand(0x10), 0);
    cache->clearStats();
    EXPECT_EQ(cache->stats().demandAccesses, 0u);
    EXPECT_TRUE(cache->probe(0x10));
}

TEST(CacheTest, ConfigSizeBytes)
{
    CacheConfig cfg;
    cfg.numSets = 2048;
    cfg.assoc = 16;
    EXPECT_EQ(cfg.sizeBytes(), 2u * 1024 * 1024);
}

/** Associativities covering tiny, power-of-two and odd widths. */
const std::uint32_t kWidths[] = {1, 2, 3, 4, 6, 8, 12, 16, 17};

TEST(CacheTest, InvalidFrameNeverMatchesAProbe)
{
    // An invalid frame holds the all-ones kNoBlock tag.  No legal
    // key may match it — not even the keys adjacent to the sentinel —
    // whether the frame was never filled or was invalidated.
    for (const std::uint32_t assoc : kWidths) {
        auto cache = makeLruCache(4, assoc);
        const Addr keys[] = {0, 1, SetView::kNoBlock - 1};
        for (const Addr key : keys) {
            EXPECT_EQ(cache->findWay(cache->setIndex(key), key), -1)
                << "assoc=" << assoc << " key=" << key;
            EXPECT_FALSE(cache->probe(key));
        }
        cache->fill(demand(8), 0);
        ASSERT_TRUE(cache->probe(8));
        cache->invalidate(8);
        EXPECT_EQ(cache->findWay(cache->setIndex(8), 8), -1);
        EXPECT_FALSE(cache->probe(8));
    }
}

TEST(CacheTest, LruVictimIsTheFirstMinimumStamp)
{
    // The victim scan returns the first way holding the set's
    // minimum stamp.  Stamps within a set are distinct, so that is
    // the bottom of an explicit recency stack driven by the same
    // promotions, fills and insertion-policy moves.
    Rng rng(0x51D1);
    for (const std::uint32_t assoc : kWidths) {
        LruPolicy lru(1, assoc);
        const SetView frames(nullptr, nullptr, assoc);
        const Access a = demand(0);
        std::list<std::uint32_t> stack; // front = MRU
        for (std::uint32_t w = 0; w < assoc; ++w)
            stack.push_back(w);
        for (int iter = 0; iter < 2000; ++iter) {
            const auto way =
                static_cast<std::uint32_t>(rng.below(assoc));
            const auto pos =
                static_cast<std::uint32_t>(rng.below(assoc));
            stack.remove(way);
            switch (rng.below(3)) {
              case 0:
                lru.onAccess(0, static_cast<int>(way), frames, a);
                stack.push_front(way);
                break;
              case 1:
                lru.onFill(0, way, frames, a);
                stack.push_front(way);
                break;
              default:
                lru.moveTo(0, way, pos);
                stack.insert(std::next(stack.begin(), pos), way);
                break;
            }
            ASSERT_EQ(lru.victim(0, frames, a), stack.back())
                << "assoc=" << assoc << " iter=" << iter;
        }
    }
}

// ---- Structure-of-arrays layout ----

TEST(SoaLayoutTest, TagSentinelAgreesWithValidBit)
{
    CacheConfig cfg;
    cfg.numSets = 16;
    cfg.assoc = 4;
    Cache cache(cfg, std::make_unique<LruPolicy>(16, 4));

    Rng rng(42);
    for (int i = 0; i < 5000; ++i) {
        const Access a = Access::atBlock(rng.below(256), 0x400000);
        if (!cache.access(a, static_cast<std::uint64_t>(i)))
            cache.fill(a, static_cast<std::uint64_t>(i));
        if (rng.chance(1, 50))
            cache.invalidate(rng.below(256));
    }

    for (std::uint32_t set = 0; set < cfg.numSets; ++set) {
        SetView frames = cache.frames(set);
        for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
            if (frames.valid(w))
                EXPECT_NE(frames.blockAddr(w), SetView::kNoBlock);
            else
                EXPECT_EQ(frames.blockAddr(w), SetView::kNoBlock);
        }
    }
    cache.auditInvariants();
}

TEST(SoaLayoutTest, SetViewAgreesWithMaterializedBlocks)
{
    CacheConfig cfg;
    cfg.numSets = 8;
    cfg.assoc = 4;
    Cache cache(cfg, std::make_unique<LruPolicy>(8, 4));

    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        Access a = Access::atBlock(rng.below(96), 0x400000);
        a.isWrite = rng.chance(1, 4);
        if (!cache.access(a, static_cast<std::uint64_t>(i)))
            cache.fill(a, static_cast<std::uint64_t>(i));
    }

    for (std::uint32_t set = 0; set < cfg.numSets; ++set) {
        SetView frames = cache.frames(set);
        for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
            const CacheBlock blk = cache.blockAt(set, w);
            EXPECT_EQ(frames.valid(w), blk.valid);
            if (!blk.valid)
                continue;
            EXPECT_EQ(frames.blockAddr(w), blk.blockAddr);
            EXPECT_EQ(frames.dirty(w), blk.dirty);
            EXPECT_EQ(frames.predictedDead(w), blk.predictedDead);
            EXPECT_EQ(cache.findWay(set, blk.blockAddr),
                      static_cast<int>(w));
            EXPECT_TRUE(cache.probe(blk.blockAddr));
        }
    }
    cache.auditInvariants();
}

TEST(SoaLayoutTest, PredictedDeadBitRoundTripsThroughTheLane)
{
    CacheConfig cfg;
    cfg.numSets = 4;
    cfg.assoc = 2;
    Cache cache(cfg, std::make_unique<LruPolicy>(4, 2));

    const Access a = Access::atBlock(0x10);
    cache.access(a, 0);
    cache.fill(a, 0);
    const std::uint32_t set = cache.setIndex(a.blockAddr());
    SetView frames = cache.frames(set);
    const int way = cache.findWay(set, a.blockAddr());
    ASSERT_GE(way, 0);

    frames.setPredictedDead(static_cast<std::uint32_t>(way), true);
    EXPECT_TRUE(cache.blockAt(set, static_cast<std::uint32_t>(way))
                    .predictedDead);
    frames.setPredictedDead(static_cast<std::uint32_t>(way), false);
    EXPECT_FALSE(cache.blockAt(set, static_cast<std::uint32_t>(way))
                     .predictedDead);
    cache.auditInvariants();
}

// ---- Hierarchy ----

HierarchyConfig
tinyHierarchy(std::uint32_t cores = 1)
{
    HierarchyConfig cfg;
    cfg.l1 = {.name = "L1", .numSets = 4, .assoc = 2, .latency = 3};
    cfg.l2 = {.name = "L2", .numSets = 8, .assoc = 2, .latency = 12};
    cfg.llc = {.name = "LLC", .numSets = 16, .assoc = 4, .latency = 30};
    cfg.memLatency = 200;
    cfg.numCores = cores;
    return cfg;
}

Access
load(Addr addr, PC pc = 0x400000, ThreadId thread = 0)
{
    Access a;
    a.pc = pc;
    a.addr = addr;
    a.thread = thread;
    return a;
}

TEST(HierarchyTest, LatencyAccumulatesDownTheLevels)
{
    const HierarchyConfig cfg = tinyHierarchy();
    Hierarchy h(cfg, std::make_unique<LruPolicy>(16, 4));
    const auto first = h.access(load(0x1000), 0);
    EXPECT_EQ(first.level, ServiceLevel::Memory);
    EXPECT_EQ(first.latency, 3u + 12 + 30 + 200);
    const auto second = h.access(load(0x1000), 1);
    EXPECT_EQ(second.level, ServiceLevel::L1);
    EXPECT_EQ(second.latency, 3u);
}

TEST(HierarchyTest, L2HitAfterL1Eviction)
{
    const HierarchyConfig cfg = tinyHierarchy();
    Hierarchy h(cfg, std::make_unique<LruPolicy>(16, 4));
    // L1 set 0 holds 2 ways; the third block evicts the first.
    // Blocks map to L1 set 0 with stride 4 blocks (4 sets).
    h.access(load(0 << 6), 0);
    h.access(load(4 << 6), 1);
    h.access(load(8 << 6), 2);
    const auto res = h.access(load(0 << 6), 3);
    EXPECT_EQ(res.level, ServiceLevel::L2);
    EXPECT_EQ(res.latency, 3u + 12);
}

TEST(HierarchyTest, LlcSeesOnlyL2Misses)
{
    const HierarchyConfig cfg = tinyHierarchy();
    Hierarchy h(cfg, std::make_unique<LruPolicy>(16, 4));
    for (int rep = 0; rep < 10; ++rep)
        h.access(load(0x40), rep);
    EXPECT_EQ(h.llc().stats().demandAccesses, 1u);
}

TEST(HierarchyTest, DirtyEvictionWritesBackToMemory)
{
    const HierarchyConfig cfg = tinyHierarchy();
    Hierarchy h(cfg, std::make_unique<LruPolicy>(16, 4));
    Access store = load(0x40);
    store.isWrite = true;
    h.access(store, 0);
    // Push enough conflicting blocks through to evict it everywhere.
    for (Addr i = 1; i <= 128; ++i)
        h.access(load(0x40 + (i << 12)), i);
    EXPECT_GT(h.memWrites(), 0u);
}

TEST(HierarchyTest, PerCoreL1sAreprivate)
{
    const HierarchyConfig cfg = tinyHierarchy(2);
    Hierarchy h(cfg, std::make_unique<LruPolicy>(16, 4));
    h.access(load(0x1000), 0);
    const auto res = h.access(load(0x1000, 0x400000, 1), 1);
    // Core 1 misses its private L1/L2 but hits the shared LLC.
    EXPECT_EQ(res.level, ServiceLevel::Llc);
}

TEST(HierarchyTest, TraceRecordsLlcDemandStream)
{
    const HierarchyConfig cfg = tinyHierarchy();
    Hierarchy h(cfg, std::make_unique<LruPolicy>(16, 4));
    std::vector<LlcRef> trace;
    h.recordLlcTrace(&trace);
    h.access(load(0x1000, 0x400abc), 0);
    h.access(load(0x1000), 1); // L1 hit: not recorded
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace[0].blockAddr, 0x1000u >> 6);
    EXPECT_EQ(trace[0].pc, 0x400abcu);
}

TEST(HierarchyTest, WritebackMissForwardsWithoutAllocating)
{
    const HierarchyConfig cfg = tinyHierarchy();
    Hierarchy h(cfg, std::make_unique<LruPolicy>(16, 4));
    // Dirty a block, then evict it from L1 while it is absent from
    // L2 and the LLC: the writeback must cascade to memory without
    // allocating along the way.
    Access store = load(0x40);
    store.isWrite = true;
    h.access(store, 0);
    // Evict it from L2 and the LLC using conflicting DEMAND traffic
    // that maps to their sets but not to L1 set 1.
    h.llc().invalidate(0x1);
    h.l2(0).invalidate(0x1);
    const auto wb_before = h.memWrites();
    // Now force the dirty block out of L1 (set 1, 2 ways).
    h.access(load(0x40 + (4 << 6)), 1);
    h.access(load(0x40 + (8 << 6)), 2);
    EXPECT_EQ(h.memWrites(), wb_before + 1);
    // Not allocated in L2 or LLC on the way out.
    EXPECT_FALSE(h.l2(0).probe(0x1));
    EXPECT_FALSE(h.llc().probe(0x1));
}

TEST(HierarchyTest, WritebackHitUpdatesLowerLevelCopy)
{
    const HierarchyConfig cfg = tinyHierarchy();
    Hierarchy h(cfg, std::make_unique<LruPolicy>(16, 4));
    Access store = load(0x40);
    store.isWrite = true;
    h.access(store, 0); // fills L1/L2/LLC; dirty in L1
    // Evict from L1 only: L2 still holds the block -> wb hits L2.
    h.access(load(0x40 + (4 << 6)), 1);
    h.access(load(0x40 + (8 << 6)), 2);
    EXPECT_EQ(h.memWrites(), 0u);
    EXPECT_TRUE(h.l2(0).probe(0x1));
}

TEST(HierarchyTest, ClearStatsResetsCounters)
{
    const HierarchyConfig cfg = tinyHierarchy();
    Hierarchy h(cfg, std::make_unique<LruPolicy>(16, 4));
    h.access(load(0x1000), 0);
    h.clearStats();
    EXPECT_EQ(h.llc().stats().demandAccesses, 0u);
    EXPECT_EQ(h.memReads(), 0u);
    // Content is preserved: re-access hits in L1.
    EXPECT_EQ(h.access(load(0x1000), 1).level, ServiceLevel::L1);
}

} // anonymous namespace
} // namespace sdbp
