/**
 * @file
 * The simulator benchmark: workload definitions, the evidence each
 * workload run leaves behind, the correctness checks applied to it,
 * and the layer ladder of the traced run.  See README.md in this
 * directory for the workloads, metrics and reference figures.
 */

#ifndef SDBP_SIMBENCH_SIMBENCH_HH
#define SDBP_SIMBENCH_SIMBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "obs/profiler.hh"
#include "sim/policy_factory.hh"
#include "sim/runner.hh"
#include "trace/workload.hh"

namespace simbench
{

using namespace sdbp;

enum class Shape
{
    SingleCore, ///< one profile, one core, driven through makeEngine
    Quad,       ///< one Table IV mix on four cores, shared LLC
    Sweep,      ///< a profiles x policies grid through sweep::runGrid
};

/** One benchmark workload, with its inputs already derived from the
 *  seed. */
struct Workload
{
    std::string name;
    Shape shape = Shape::SingleCore;
    /** Profiles (Quad: the mix, one per core; Sweep: grid rows). */
    std::vector<std::string> benchmarks;
    /** Sweep: grid columns; otherwise the single policy. */
    std::vector<PolicyKind> policies;
    /** Mix name (Quad). */
    std::string mix;
    /** Geometry and instruction budgets of every simulation. */
    RunConfig cfg;
    /** Generator seed override; nullopt keeps each profile's own. */
    std::optional<std::uint64_t> seed;
    /** In-process sweep jobs (Sweep). */
    unsigned jobs = 1;
    /**
     * Quantile of the repetitions' host and CPU times a run reports.
     * On a shared host a memory-contention state lasting tens of
     * seconds slows every repetition by up to 1.5x; the slow state
     * is the usual one, so the upper decile reads it in nearly every
     * run where the median flips between states (README.md, "Reading
     * host time").
     */
    double timingQuantile = 0.9;

    /** The profile of @p benchmark with the workload's seed. */
    WorkloadProfile profile(const std::string &benchmark) const;
};

/**
 * Build a workload by name ("sdbp-llc", "cache-resident",
 * "quad-shared", "sweep-fanout").  @p small selects the self-test's
 * reduced budgets.  Returns nullopt for an unknown name.
 */
std::optional<Workload> makeWorkload(const std::string &name,
                                     std::optional<std::uint64_t> seed,
                                     bool small = false);

/** Counters of one cache level (summed over cores for L1/L2). */
struct LevelCounts
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t bypasses = 0;
    std::uint64_t evictions = 0;

    bool operator==(const LevelCounts &) const = default;
};

/** Simulated outcome of one simulation (one cell). */
struct Outcome
{
    std::string label;
    /** Measured-phase instructions and cycles, per core. */
    std::vector<InstCount> instructions;
    std::vector<Cycle> cycles;
    /** Instructions simulated in warm-up plus measurement, all
     *  cores (restarted programs included). */
    std::uint64_t ticksTotal = 0;
    /** Instructions simulated in the measurement phase, all cores. */
    std::uint64_t ticksMeasured = 0;
    /** Measured-phase counters; L1/L2 stay zero where the library
     *  call does not report them (sweep cells). */
    LevelCounts l1, l2, llc;
    bool hasDbrb = false;
    DbrbStats dbrb;

    double ipcSum() const;
    double llcMpki() const;

    bool operator==(const Outcome &o) const;
};

/** Everything the correctness checks look at. */
struct Evidence
{
    unsigned issueWidth = 0;
    InstCount measureBudget = 0;
    /** One entry per repetition; each holds every cell of it (one
     *  for engine-driven workloads, the whole grid for Sweep). */
    std::vector<std::vector<Outcome>> reps;

    /** LLC stream checks (the recorded stream of one Sampler run). */
    std::vector<bool> naiveLruHits;
    std::vector<bool> cacheLruHits;
    std::uint64_t lruMisses = 0;     ///< Cache + LRU, measured part
    std::uint64_t samplerMisses = 0; ///< the run that made the stream
    std::uint64_t optMisses = 0;     ///< optimalMisses, measured part

    /** Sweep only: serial runSingleCore of every cell, grid errors,
     *  and cells the manifest lists completed. */
    std::vector<Outcome> serialCells;
    std::size_t gridErrors = 0;
    std::size_t manifestCompleted = 0;
};

/** Names of the checks, in the order checkAll applies them. */
enum class Check
{
    HitsPlusMisses,
    BypassesWithinMisses,
    IpcInRange,
    MeasuredBudget,
    Repeatable,
    NaiveLru,
    OptimalBound,
    SweepMatchesSerial,
    SweepComplete,
};

const char *checkName(Check c);

/** Failures found in @p ev, one line each; empty when correct. */
std::vector<std::pair<Check, std::string>> checkAll(const Evidence &ev);

/** Hit/miss sequence of a plain per-set LRU list model. */
std::vector<bool> naiveLruHits(const std::vector<LlcRef> &stream,
                               std::uint32_t num_sets,
                               std::uint32_t assoc);

/** Outcome of a RunResult (a sweep cell). */
Outcome outcomeOf(const RunResult &r, InstCount warmup);

using Clock = std::chrono::steady_clock;

/** Wall-clock budget of one simulation before it counts as failed. */
constexpr int kOpTimeoutSeconds = 60;
/** Fewest timed repetitions of a run, however short --seconds is. */
constexpr std::size_t kMinReps = 3;
/** Set-up repetitions of sweep-fanout (one-instruction grids). */
constexpr int kSweepSetupReps = 41;

/** One engine-driven simulation of a single-core or quad workload. */
struct EngineRun
{
    Outcome outcome;
    /** Workload start to the first simulated instruction: engine,
     *  arena lanes, predictor tables and generators. */
    double setupSeconds = 0;
    /** Warm-up plus measurement, wall clock and process CPU. */
    double hostSeconds = 0;
    double cpuSeconds = 0;
    /** Where the measurement phase starts in a recorded stream. */
    std::size_t llcStreamMark = 0;
    /** Share of LLC frames valid when measurement starts (recorded
     *  runs only). */
    double llcFullAtMeasure = 0;
};

/**
 * Simulate @p w under @p kind through makeEngine + SystemBase::run
 * with the workload's seeded generators.  @p stream, when given,
 * receives the LLC demand stream (and the LLC occupancy at the start
 * of measurement is taken); @p profiler is attached to the
 * system.  Throws SimulationTimeout after kOpTimeoutSeconds.
 */
EngineRun runEngine(const Workload &w, PolicyKind kind,
                    std::vector<LlcRef> *stream = nullptr,
                    obs::Profiler *profiler = nullptr);

/** One sweep::runGrid call over the workload's grid. */
struct GridRun
{
    std::vector<Outcome> cells;
    double hostSeconds = 0;
    double cpuSeconds = 0;
    /** Warm-up plus measured instructions over every cell. */
    std::uint64_t ticks = 0;
    /** Sum of the cells' own wall clocks. */
    double cellSeconds = 0;
    std::size_t errors = 0;
    unsigned jobs = 1;
};

/** Run the workload's grid with @p cfg, checkpointing to a fresh
 *  manifest at @p manifest (none when empty). */
GridRun runSweep(const Workload &w, const RunConfig &cfg,
                 const std::string &manifest);

/** Per-reference outcome of a Cache replay. */
struct ReplayEvent
{
    bool hit = false;
    bool evicted = false;
    Addr victim = 0;
};

struct ReplayResult
{
    std::vector<ReplayEvent> events; ///< when asked for
    std::uint64_t measuredMisses = 0;
    double seconds = 0;
};

/** Demand accesses of a recorded LLC stream. */
std::vector<Access> accessesOf(const std::vector<LlcRef> &stream);

/**
 * Replay @p refs through a `Cache` of @p geometry with
 * makePolicy(@p kind); misses are counted from @p measure_from on.
 */
ReplayResult replayLlc(const std::vector<Access> &refs,
                       std::size_t measure_from, PolicyKind kind,
                       const CacheConfig &geometry,
                       const PolicyOptions &opts, bool keep_events);

/** Evidence of @p w with nothing observed yet. */
Evidence evidenceFor(const Workload &w);

/** The recorded Sampler run the stream checks and rungs work on. */
struct Recording
{
    EngineRun run;
    std::vector<LlcRef> stream;
};

/**
 * One recorded Sampler run (on sweep-fanout, of the grid's first
 * row) and the stream checks over its LLC stream; on the other
 * workloads its outcome joins the repetitions.
 */
Recording recordSampler(const Workload &w, Evidence &ev);

/** Sweep checks: the cells the grid's last manifest at @p manifest
 *  lists completed, and a serial runSingleCore of every cell. */
void checkGrid(const Workload &w, Evidence &ev,
               const std::string &manifest);

/** Where the workload's sweep manifest lives under @p out_dir. */
std::string manifestPath(const Workload &w, const std::string &out_dir);

std::vector<std::string> policyNames(const std::vector<PolicyKind> &k);

/** Timings and evidence of one untraced run of a workload. */
struct Measurement
{
    Evidence evidence;
    std::vector<double> hostNsPerInstr;
    std::vector<double> cpuNsPerInstr;
    std::vector<double> setupSeconds;
    double peakRssMb = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * Run @p w repeatedly for @p seconds (at least kMinReps times), then
 * gather the evidence of the correctness checks.  Sweep manifests go
 * to @p out_dir.
 */
Measurement measure(const Workload &w, double seconds,
                    const std::string &out_dir);

/** Result of the traced run. */
struct Ladder
{
    Evidence evidence;
    std::map<std::string, double> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * The traced run: the layer ladder on @p w, repeated for
 * @p seconds, with one span per rung exported as Chrome-trace JSON
 * to @p trace_path.  Reports every per-layer metric by name.
 */
Ladder traceLadder(const Workload &w, double seconds,
                   const std::string &out_dir,
                   const std::string &trace_path);

double seconds(Clock::time_point a, Clock::time_point b);
/** Linear-interpolated quantile @p q of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

} // namespace simbench

#endif // SDBP_SIMBENCH_SIMBENCH_HH
