/**
 * @file
 * Unit tests for the sim layer: policy factory, run configs, and
 * metric plumbing.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cache/dip.hh"
#include "cache/lru.hh"
#include "cache/random_repl.hh"
#include "cache/rrip.hh"
#include "fault/fault_injector.hh"
#include "sim/engine.hh"
#include "sim/runner.hh"
#include "trace/trace_source.hh"
#include "util/stats.hh"

namespace sdbp
{
namespace
{

TEST(PolicyFactory, BuildsEveryKindWithCorrectGeometry)
{
    const std::vector<PolicyKind> kinds = {
        PolicyKind::Lru,         PolicyKind::Random,
        PolicyKind::Dip,         PolicyKind::Tadip,
        PolicyKind::Rrip,        PolicyKind::Sampler,
        PolicyKind::Tdbp,        PolicyKind::Cdbp,
        PolicyKind::RandomSampler, PolicyKind::RandomCdbp,
        PolicyKind::SamplingCounting,
    };
    for (const auto kind : kinds) {
        PolicyOptions opts;
        opts.numThreads = kind == PolicyKind::Tadip ? 4 : 1;
        auto policy = makePolicy(kind, 2048, 16, opts);
        ASSERT_NE(policy, nullptr) << policyName(kind);
        EXPECT_EQ(policy->numSets(), 2048u);
        EXPECT_EQ(policy->assoc(), 16u);
        EXPECT_FALSE(policyName(kind).empty());
    }
}

TEST(PolicyFactory, DbrbKindsExposePredictors)
{
    auto sampler = makePolicy(PolicyKind::Sampler, 2048, 16);
    auto *dbrb = dynamic_cast<DeadBlockPolicy *>(sampler.get());
    ASSERT_NE(dbrb, nullptr);
    EXPECT_EQ(dbrb->predictor().name(), "sampler");
    EXPECT_EQ(dbrb->inner().name(), "lru");

    auto rc = makePolicy(PolicyKind::RandomCdbp, 2048, 16);
    auto *dbrb2 = dynamic_cast<DeadBlockPolicy *>(rc.get());
    ASSERT_NE(dbrb2, nullptr);
    EXPECT_EQ(dbrb2->predictor().name(), "counting");
    EXPECT_EQ(dbrb2->inner().name(), "random");
}

TEST(PolicyFactory, SdbpOverrideIsHonored)
{
    PolicyOptions opts;
    opts.sdbp = SdbpConfig::singleTable();
    opts.sdbp->useSampler = false;
    auto policy = makePolicy(PolicyKind::Sampler, 2048, 16, opts);
    auto *dbrb = dynamic_cast<DeadBlockPolicy *>(policy.get());
    ASSERT_NE(dbrb, nullptr);
    const auto &pred = dynamic_cast<const SamplingDeadBlockPredictor &>(
        dbrb->predictor());
    EXPECT_FALSE(pred.config().useSampler);
    EXPECT_EQ(pred.config().table.numTables, 1u);
    // llcSets is always patched to the real geometry.
    EXPECT_EQ(pred.config().llcSets, 2048u);
}

TEST(PolicyFactory, BypassDisableFlagPropagates)
{
    PolicyOptions opts;
    opts.dbrb.enableBypass = false;
    auto policy = makePolicy(PolicyKind::Sampler, 64, 4, opts);
    auto *dbrb = dynamic_cast<DeadBlockPolicyBase *>(policy.get());
    ASSERT_NE(dbrb, nullptr);
    EXPECT_FALSE(dbrb->shouldBypass(1, Access::atBlock(1)));
}

TEST(PolicyFactory, PolicyLists)
{
    EXPECT_EQ(lruDefaultPolicies().size(), 5u);
    EXPECT_EQ(randomDefaultPolicies().size(), 3u);
    EXPECT_EQ(multicoreLruPolicies().size(), 5u);
    EXPECT_EQ(multicoreRandomPolicies().size(), 3u);
}

TEST(RunConfigTest, SingleCoreDefaultsMatchPaperGeometry)
{
    const RunConfig cfg = RunConfig::singleCore();
    EXPECT_EQ(cfg.hierarchy.l1.sizeBytes(), 32u * 1024);
    EXPECT_EQ(cfg.hierarchy.l2.sizeBytes(), 256u * 1024);
    EXPECT_EQ(cfg.hierarchy.llc.sizeBytes(), 2u * 1024 * 1024);
    EXPECT_EQ(cfg.hierarchy.llc.assoc, 16u);
    EXPECT_EQ(cfg.core.width, 4u);
    EXPECT_EQ(cfg.core.robSize, 128u);
}

TEST(RunConfigTest, QuadCoreUsesSharedEightMegLlc)
{
    const RunConfig cfg = RunConfig::quadCore();
    EXPECT_EQ(cfg.hierarchy.numCores, 4u);
    EXPECT_EQ(cfg.hierarchy.llc.sizeBytes(), 8u * 1024 * 1024);
    EXPECT_EQ(cfg.policy.numThreads, 4u);
}

TEST(RunConfigTest, EnvironmentOverridesInstructionCounts)
{
    setenv("SDBP_INSTRUCTIONS", "123456", 1);
    setenv("SDBP_WARMUP", "7890", 1);
    const RunConfig cfg = RunConfig::singleCore();
    EXPECT_EQ(cfg.measureInstructions, 123456u);
    EXPECT_EQ(cfg.warmupInstructions, 7890u);
    unsetenv("SDBP_INSTRUCTIONS");
    unsetenv("SDBP_WARMUP");
}

TEST(RunConfigDeathTest, InvalidEnvironmentIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A malformed knob is a one-line fatal diagnostic, never a
    // silent fallback (README environment-variable table).
    setenv("SDBP_INSTRUCTIONS", "not-a-number", 1);
    EXPECT_EXIT(RunConfig::singleCore(), testing::ExitedWithCode(1),
                "not an unsigned integer");
    unsetenv("SDBP_INSTRUCTIONS");
}

TEST(Runner, ResultCarriesBenchmarkAndPolicyNames)
{
    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = 20000;
    cfg.measureInstructions = 50000;
    const RunResult r = runSingleCore("416.gamess", PolicyKind::Dip,
                                      cfg);
    EXPECT_EQ(r.benchmark, "416.gamess");
    EXPECT_EQ(r.policy, "DIP");
    EXPECT_GE(r.instructions, 50000u);
    EXPECT_FALSE(r.hasDbrb);
}

TEST(Runner, TraceRecordingMarksMeasureBoundary)
{
    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = 50000;
    cfg.measureInstructions = 50000;
    cfg.recordLlcTrace = true;
    const RunResult r = runSingleCore("462.libquantum",
                                      PolicyKind::Lru, cfg);
    EXPECT_GT(r.llcTrace.size(), 0u);
    EXPECT_GT(r.llcTraceMeasureStart, 0u);
    EXPECT_LT(r.llcTraceMeasureStart, r.llcTrace.size());
}

TEST(Runner, MulticoreResultHasPerThreadData)
{
    RunConfig cfg = RunConfig::quadCore();
    cfg.warmupInstructions = 20000;
    cfg.measureInstructions = 50000;
    MixProfile mix{"t", {"416.gamess", "453.povray", "444.namd",
                         "454.calculix"}};
    const auto r = runMulticore(mix, PolicyKind::Tadip, cfg);
    EXPECT_EQ(r.policy, "TADIP");
    EXPECT_EQ(r.ipc.size(), 4u);
    EXPECT_EQ(r.benchmarks.size(), 4u);
    EXPECT_GT(r.totalInstructions, 4u * 50000u - 1);
}

TEST(EngineTest, DbrbViewsPointIntoTheLlcStack)
{
    HierarchyConfig hcfg;
    const Engine sampler =
        makeEngine(PolicyKind::Sampler, hcfg, CoreConfig{});
    ASSERT_NE(sampler.system, nullptr);
    ASSERT_NE(sampler.dbrb, nullptr);
    EXPECT_NE(sampler.predictor, nullptr);
    EXPECT_EQ(&sampler.system->hierarchy().llc().policy(),
              static_cast<const ReplacementPolicy *>(sampler.dbrb));

    const Engine plru =
        makeEngine(PolicyKind::TreePlru, hcfg, CoreConfig{});
    ASSERT_NE(plru.system, nullptr);
    EXPECT_EQ(plru.dbrb, nullptr);
    EXPECT_EQ(plru.predictor, nullptr);
}

TEST(Runner, MulticoreMpkiCountsEveryMeasuredInstruction)
{
    // Unequal speeds: the fast programs finish first, restart and
    // keep missing in the LLC until the slowest one completes.
    RunConfig cfg = RunConfig::quadCore();
    cfg.warmupInstructions = 20000;
    cfg.measureInstructions = 50000;
    MixProfile mix{"t", {"462.libquantum", "429.mcf", "416.gamess",
                         "453.povray"}};
    const auto r = runMulticore(mix, PolicyKind::Sampler, cfg);

    // The same mix driven directly; the heartbeat fires at the start
    // and at the end of the measured phase, so the difference of its
    // ticks is every instruction the LLC misses were counted over.
    Engine eng = makeEngine(PolicyKind::Sampler, cfg.hierarchy,
                            cfg.core, cfg.policy);
    std::vector<std::unique_ptr<AccessGenerator>> sources;
    std::vector<AccessGenerator *> gens;
    for (std::uint32_t c = 0; c < 4; ++c) {
        sources.push_back(
            makeTraceSource(cfg.trace, mix.benchmarks[c], c));
        gens.push_back(sources.back().get());
    }
    std::vector<std::uint64_t> beats;
    eng.system->setHeartbeat(
        std::uint64_t{1} << 62,
        [&beats](std::uint64_t tick) { beats.push_back(tick); });
    eng.system->run(gens, cfg.warmupInstructions,
                    cfg.measureInstructions);
    ASSERT_EQ(beats.size(), 2u);
    const std::uint64_t measured = beats.back() - beats.front();

    EXPECT_EQ(r.llcMisses,
              eng.system->hierarchy().llc().stats().demandMisses);
    EXPECT_GT(measured, r.totalInstructions);
    EXPECT_DOUBLE_EQ(r.mpki, 1000.0 * static_cast<double>(r.llcMisses) /
                                 static_cast<double>(measured));
}

// ---- Runner path vs. a hand-composed stack ----
//
// runSingleCore wraps the engine in its run-time wiring: the
// observability harness, the span profiler, the cell timeout and the
// end-of-run predictor audit.  None of it may change a simulated
// outcome.  The "fast" side is that full runner path with artifact
// collection on; the "virtual" side is a bare System over the
// ReplacementPolicy stack from makeBundle, driven directly with no
// observer attached.  Every headline metric and the whole dbrb.*
// accounting must be bit-identical, for every policy kind on two
// benchmarks.

using FastpathParam = std::tuple<PolicyKind, std::string>;

class FastpathEquivalence
    : public ::testing::TestWithParam<FastpathParam>
{
};

TEST_P(FastpathEquivalence, FastAndVirtualPathsAreBitIdentical)
{
    const auto [kind, benchmark] = GetParam();

    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = 20'000;
    cfg.measureInstructions = 60'000;
    cfg.obs.collect = true;
    cfg.obs.intervalInstructions = 20'000;

    const RunResult fast = runSingleCore(benchmark, kind, cfg);
    ASSERT_TRUE(fast.artifacts);

    HierarchyConfig hcfg = cfg.hierarchy;
    hcfg.numCores = 1;
    hcfg.llc.trackEfficiency = cfg.trackEfficiency;
    PolicyOptions popts = cfg.policy;
    popts.numThreads = 1;
    PolicyBundle b =
        makeBundle(kind, hcfg.llc.numSets, hcfg.llc.assoc, popts);
    DeadBlockPolicyBase *const dbrb = b.dbrb;
    const fault::FaultInjector *const faults = b.faultInjector;
    System sys(hcfg, cfg.core, std::move(b.policy));
    const auto gen = makeTraceSource(cfg.trace, benchmark);
    const std::vector<AccessGenerator *> gens = {gen.get()};
    const auto threads = sys.run(gens, cfg.warmupInstructions,
                                 cfg.measureInstructions);
    ASSERT_EQ(threads.size(), 1u);
    const CacheBase &llc = sys.hierarchy().llc();
    sys.hierarchy().llc().finalizeEfficiency(sys.tick());

    EXPECT_EQ(fast.instructions, threads[0].instructions);
    EXPECT_EQ(fast.cycles, threads[0].cycles);
    EXPECT_EQ(fast.ipc, threads[0].ipc);
    EXPECT_EQ(fast.llcAccesses, llc.stats().demandAccesses);
    EXPECT_EQ(fast.llcMisses, llc.stats().demandMisses);
    EXPECT_EQ(fast.llcBypasses, llc.stats().bypasses);
    EXPECT_EQ(fast.mpki, mpki(llc.stats().demandMisses,
                              threads[0].instructions));
    EXPECT_EQ(fast.llcEfficiency, llc.stats().efficiency());

    ASSERT_EQ(fast.hasDbrb, dbrb != nullptr);
    if (dbrb) {
        const DbrbStats virt = dbrb->dbrbStats();
        EXPECT_EQ(fast.dbrb.predictions, virt.predictions);
        EXPECT_EQ(fast.dbrb.positives, virt.positives);
        EXPECT_EQ(fast.dbrb.falsePositiveHits, virt.falsePositiveHits);
        EXPECT_EQ(fast.dbrb.bypassReuses, virt.bypassReuses);
        EXPECT_EQ(fast.dbrb.deadEvictions, virt.deadEvictions);
        EXPECT_EQ(fast.dbrb.bypasses, virt.bypasses);
        EXPECT_EQ(fast.faultsInjected,
                  faults ? faults->injected() : 0u);
    }
}

std::string
fastpathParamName(const ::testing::TestParamInfo<FastpathParam> &info)
{
    std::string name = policyName(std::get<0>(info.param)) + "_" +
                       std::get<1>(info.param);
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, FastpathEquivalence,
    ::testing::Combine(::testing::ValuesIn(allPolicyKinds()),
                       ::testing::Values("456.hmmer", "429.mcf")),
    fastpathParamName);

} // anonymous namespace
} // namespace sdbp
