/**
 * @file
 * The four workloads and the untraced run that measures them.
 *
 * Single-core and quad-core workloads drive makeEngine +
 * SystemBase::run directly, so the generators can take the
 * benchmark's seed; sweep-fanout runs sweep::runGrid exactly as the
 * figure binaries do.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "opt/belady.hh"
#include "sim/engine.hh"
#include "sim/sweep.hh"
#include "sim/sweep_manifest.hh"
#include "trace/spec_profiles.hh"
#include "simbench.hh"

namespace simbench
{

namespace
{

/** splitmix64 finalizer: derives generator seeds from --seed. */
std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        1e-9 * static_cast<double>(ts.tv_nsec);
}

LevelCounts
levelOf(const CacheStats &s)
{
    return {s.demandAccesses, s.demandHits, s.demandMisses, s.bypasses,
            s.evictions};
}

void
addLevel(LevelCounts &sum, const CacheStats &s)
{
    const LevelCounts l = levelOf(s);
    sum.accesses += l.accesses;
    sum.hits += l.hits;
    sum.misses += l.misses;
    sum.bypasses += l.bypasses;
    sum.evictions += l.evictions;
}

/** Share of the cache's frames holding a valid block. */
double
llcFillShare(const CacheBase &llc)
{
    const CacheConfig &g = llc.config();
    std::uint64_t valid = 0;
    for (std::uint32_t s = 0; s < g.numSets; ++s)
        for (std::uint32_t way = 0; way < g.assoc; ++way)
            valid += llc.blockAt(s, way).valid ? 1 : 0;
    return static_cast<double>(valid) /
        (static_cast<double>(g.numSets) * g.assoc);
}

/**
 * High-water resident set of this process in MB.  VmHWM belongs to
 * the address space exec created; getrusage's ru_maxrss would also
 * count the parent's memory inherited through fork.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // anonymous namespace

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

WorkloadProfile
Workload::profile(const std::string &benchmark) const
{
    WorkloadProfile p = specProfile(benchmark);
    if (seed && shape != Shape::Sweep)
        p.seed = mixSeed(p.seed ^ mixSeed(*seed));
    return p;
}

std::optional<Workload>
makeWorkload(const std::string &name, std::optional<std::uint64_t> seed,
             bool small)
{
    // Budgets: one simulation (or one grid) lasts 0.3-1 s on a 4-core
    // Xeon host, so a run repeats it tens of times and reports the
    // median.  The self-test divides them by ten.
    const InstCount scale = small ? 10 : 1;
    Workload w;
    w.name = name;
    w.seed = seed;
    if (name == "sdbp-llc" || name == "cache-resident") {
        w.benchmarks = {name == "sdbp-llc" ? "456.hmmer" : "458.sjeng"};
        w.policies = {PolicyKind::Sampler};
        w.cfg = RunConfig::singleCore();
        w.cfg.warmupInstructions = 2'000'000 / scale;
        w.cfg.measureInstructions =
            (name == "sdbp-llc" ? 4'000'000 : 8'000'000) / scale;
    } else if (name == "quad-shared") {
        w.shape = Shape::Quad;
        for (const MixProfile &m : multicoreMixes())
            if (m.name == "mix8")
                w.benchmarks = m.benchmarks;
        w.mix = "mix8";
        w.policies = {PolicyKind::Sampler};
        w.cfg = RunConfig::quadCore();
        w.cfg.warmupInstructions = 250'000 / scale;
        w.cfg.measureInstructions = 1'000'000 / scale;
    } else if (name == "sweep-fanout") {
        w.shape = Shape::Sweep;
        w.benchmarks = {"456.hmmer", "429.mcf", "462.libquantum",
                        "471.omnetpp"};
        w.policies = {PolicyKind::Lru};
        for (const PolicyKind k : lruDefaultPolicies())
            w.policies.push_back(k);
        w.cfg = RunConfig::singleCore();
        // runGrid builds each cell's generator from the profile name,
        // so the profile's own generator seed always applies; the
        // seed moves the measured window instead, by lengthening the
        // warm-up in 4 Ki-instruction steps.
        const InstCount shift =
            seed ? (mixSeed(*seed) % 64 + 1) * 4096 : 0;
        w.cfg.warmupInstructions = 250'000 / scale + shift;
        w.cfg.measureInstructions = 750'000 / scale;
        w.jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
        // A grid repetition already spreads 24 cells over the jobs;
        // its slow tail is straggling cells, so the median is steadier.
        w.timingQuantile = 0.5;
    } else {
        return std::nullopt;
    }
    return w;
}

EngineRun
runEngine(const Workload &w, PolicyKind kind,
          std::vector<LlcRef> *stream, obs::Profiler *profiler)
{
    const RunConfig &cfg = w.cfg;
    const auto start = Clock::now();
    Engine eng = makeEngine(kind, cfg.hierarchy, cfg.core, cfg.policy);
    SystemBase &sys = *eng.system;
    const std::uint32_t cores = cfg.hierarchy.numCores;
    std::vector<std::unique_ptr<AccessGenerator>> owned;
    std::vector<AccessGenerator *> gens;
    for (std::uint32_t c = 0; c < cores; ++c) {
        owned.push_back(std::make_unique<SyntheticWorkload>(
            w.profile(w.benchmarks[c]), c));
        gens.push_back(owned.back().get());
    }
    if (stream)
        sys.hierarchy().recordLlcTrace(stream);
    if (profiler)
        sys.setProfiler(profiler);
    // The heartbeat fires at the start and end of the measurement
    // phase only; the first call gives the tick where it starts.
    EngineRun r;
    std::uint64_t measure_start = 0;
    bool started = false;
    sys.setHeartbeat(std::uint64_t{1} << 62, [&](std::uint64_t tick) {
        if (started)
            return;
        started = true;
        measure_start = tick;
        if (stream)
            r.llcFullAtMeasure = llcFillShare(sys.hierarchy().llc());
    });
    sys.setDeadline(start + std::chrono::seconds(kOpTimeoutSeconds));

    const auto sim_start = Clock::now();
    const double cpu_start = cpuSeconds();
    r.setupSeconds = seconds(start, sim_start);
    const auto threads =
        sys.run(gens, cfg.warmupInstructions, cfg.measureInstructions);
    r.cpuSeconds = cpuSeconds() - cpu_start;
    r.hostSeconds = seconds(sim_start, Clock::now());

    Outcome &o = r.outcome;
    o.label = (w.shape == Shape::Quad ? w.mix : w.benchmarks[0]) + "/" +
        policyName(kind);
    for (const ThreadRunResult &t : threads) {
        o.instructions.push_back(t.instructions);
        o.cycles.push_back(t.cycles);
    }
    o.ticksTotal = sys.tick();
    o.ticksMeasured = sys.tick() - measure_start;
    HierarchyBase &h = sys.hierarchy();
    for (std::uint32_t c = 0; c < cores; ++c) {
        addLevel(o.l1, h.l1(static_cast<ThreadId>(c)).stats());
        addLevel(o.l2, h.l2(static_cast<ThreadId>(c)).stats());
    }
    o.llc = levelOf(h.llc().stats());
    if (eng.dbrb) {
        o.hasDbrb = true;
        o.dbrb = eng.dbrb->dbrbStats();
    }
    r.llcStreamMark = h.llcTraceMark();
    return r;
}

GridRun
runSweep(const Workload &w, const RunConfig &cfg,
         const std::string &manifest)
{
    if (!manifest.empty())
        std::filesystem::remove(manifest);
    sweep::SweepOptions opts;
    opts.jobs = w.jobs;
    opts.manifestPath = manifest;

    GridRun g;
    const auto start = Clock::now();
    const double cpu_start = cpuSeconds();
    const sweep::Grid grid =
        sweep::runGrid(w.benchmarks, w.policies, cfg, opts);
    g.cpuSeconds = cpuSeconds() - cpu_start;
    g.hostSeconds = seconds(start, Clock::now());
    g.errors = grid.errors.size() + grid.skipped;
    g.jobs = grid.jobs;
    for (const RunResult &r : grid.cells) {
        g.cells.push_back(outcomeOf(r, cfg.warmupInstructions));
        g.ticks += g.cells.back().ticksTotal;
        g.cellSeconds += r.wallSeconds;
    }
    return g;
}

ReplayResult
replayLlc(const std::vector<Access> &refs, std::size_t measure_from,
          PolicyKind kind, const CacheConfig &geometry,
          const PolicyOptions &opts, bool keep_events)
{
    Cache cache(geometry, makePolicy(kind, geometry.numSets,
                                     geometry.assoc, opts));
    ReplayResult r;
    if (keep_events)
        r.events.reserve(refs.size());
    const auto start = Clock::now();
    for (std::size_t i = 0; i < refs.size(); ++i) {
        const Access &a = refs[i];
        const bool hit = cache.access(a, i);
        EvictedBlock ev;
        if (!hit) {
            ev = cache.fill(a, i);
            if (i >= measure_from)
                ++r.measuredMisses;
        }
        if (keep_events)
            r.events.push_back({hit, ev.valid, ev.blockAddr});
    }
    r.seconds = seconds(start, Clock::now());
    return r;
}

std::vector<Access>
accessesOf(const std::vector<LlcRef> &stream)
{
    std::vector<Access> refs;
    refs.reserve(stream.size());
    for (const LlcRef &s : stream) {
        Access a = Access::atBlock(s.blockAddr, s.pc, s.thread);
        a.isWrite = s.isWrite;
        refs.push_back(a);
    }
    return refs;
}

Evidence
evidenceFor(const Workload &w)
{
    Evidence ev;
    ev.issueWidth = w.cfg.core.width;
    ev.measureBudget = w.cfg.measureInstructions;
    return ev;
}

Recording
recordSampler(const Workload &w, Evidence &ev)
{
    Recording rec;
    rec.run = runEngine(w, PolicyKind::Sampler, &rec.stream);
    const CacheConfig &g = w.cfg.hierarchy.llc;
    const std::size_t mark = rec.run.llcStreamMark;
    const ReplayResult lru =
        replayLlc(accessesOf(rec.stream), mark, PolicyKind::Lru, g,
                  w.cfg.policy, true);
    ev.cacheLruHits.clear();
    for (const ReplayEvent &e : lru.events)
        ev.cacheLruHits.push_back(e.hit);
    ev.naiveLruHits = naiveLruHits(rec.stream, g.numSets, g.assoc);
    ev.lruMisses = lru.measuredMisses;
    ev.samplerMisses = rec.run.outcome.llc.misses;
    ev.optMisses =
        optimalMisses(rec.stream, g.numSets, g.assoc, true, mark).misses;
    // On sweep-fanout this run is the grid's first row under Sampler,
    // not a repetition of the grid.
    if (w.shape != Shape::Sweep)
        ev.reps.push_back({rec.run.outcome});
    return rec;
}

void
checkGrid(const Workload &w, Evidence &ev, const std::string &manifest)
{
    sweep::SweepManifest man(manifest, "grid", w.benchmarks,
                             policyNames(w.policies),
                             w.cfg.warmupInstructions,
                             w.cfg.measureInstructions);
    ev.manifestCompleted = man.loadCompleted();
    for (const std::string &b : w.benchmarks)
        for (const PolicyKind k : w.policies)
            ev.serialCells.push_back(outcomeOf(runSingleCore(b, k, w.cfg),
                                               w.cfg.warmupInstructions));
}

std::string
manifestPath(const Workload &w, const std::string &out_dir)
{
    return out_dir + "/" + w.name + ".manifest.json";
}

Measurement
measure(const Workload &w, double run_seconds,
        const std::string &out_dir)
{
    Measurement m;
    Evidence &ev = m.evidence;
    ev = evidenceFor(w);
    const std::string manifest = manifestPath(w, out_dir);

    if (w.shape == Shape::Sweep) {
        // Set-up of a grid: creating its manifest, then the same grid
        // with one-instruction cells, no checkpoint and one job (every
        // cell's engine, generator and result, serially).  A cell's
        // completion checkpoint comes after its last instruction, so
        // it counts in host_ns_per_instr instead.  Four jobs finish
        // this pass no sooner and swing threefold with host load.
        RunConfig setup = w.cfg;
        setup.warmupInstructions = 0;
        setup.measureInstructions = 1;
        Workload serial = w;
        serial.jobs = 1;
        for (int i = 0; i < kSweepSetupReps; ++i) {
            std::filesystem::remove(manifest);
            const auto t0 = Clock::now();
            sweep::SweepManifest(manifest, "grid", w.benchmarks,
                                 policyNames(w.policies),
                                 w.cfg.warmupInstructions,
                                 w.cfg.measureInstructions)
                .flush();
            const double create = seconds(t0, Clock::now());
            m.setupSeconds.push_back(
                create + runSweep(serial, setup, "").hostSeconds);
        }
    }

    const auto start = Clock::now();
    for (std::size_t rep = 0;
         rep < kMinReps || seconds(start, Clock::now()) < run_seconds;
         ++rep) {
        if (w.shape == Shape::Sweep) {
            const std::size_t cells =
                w.benchmarks.size() * w.policies.size();
            m.attempted += cells;
            try {
                GridRun g = runSweep(w, w.cfg, manifest);
                m.failed += g.errors;
                ev.gridErrors += g.errors;
                const double t = static_cast<double>(g.ticks);
                m.hostNsPerInstr.push_back(1e9 * g.hostSeconds / t);
                m.cpuNsPerInstr.push_back(1e9 * g.cpuSeconds / t);
                ev.reps.push_back(std::move(g.cells));
            } catch (const std::exception &) {
                m.failed += cells;
                ev.gridErrors += cells;
            }
            continue;
        }
        ++m.attempted;
        try {
            EngineRun r = runEngine(w, w.policies.front());
            const double t = static_cast<double>(r.outcome.ticksTotal);
            m.hostNsPerInstr.push_back(1e9 * r.hostSeconds / t);
            m.cpuNsPerInstr.push_back(1e9 * r.cpuSeconds / t);
            m.setupSeconds.push_back(r.setupSeconds);
            ev.reps.push_back({std::move(r.outcome)});
        } catch (const std::exception &) {
            ++m.failed;
        }
    }
    m.peakRssMb = peakRssMb();

    recordSampler(w, ev);
    if (w.shape == Shape::Sweep)
        checkGrid(w, ev, manifest);
    return m;
}

std::vector<std::string>
policyNames(const std::vector<PolicyKind> &kinds)
{
    std::vector<std::string> names;
    for (const PolicyKind k : kinds)
        names.push_back(policyName(k));
    return names;
}

} // namespace simbench
