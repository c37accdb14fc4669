/**
 * @file
 * The traced run: a layer ladder over one workload.  Each rung times
 * one library call from outside, on the same inputs the workload
 * simulates, and records a span around it; the differences between
 * rungs give the host cost of each layer (README.md, "Traced run").
 */

#include <functional>
#include <stdexcept>

#include "core/sdbp.hh"
#include "obs/span_tracer.hh"
#include "opt/belady.hh"
#include "sim/engine.hh"
#include "sim/sweep.hh"
#include "simbench.hh"
#include "trace/trace_file.hh"

namespace simbench
{

namespace
{

constexpr std::size_t kBatch = 256;

/** Records of one core's generator covering @p instructions, rounded
 *  up to whole batches, plus @p extra_batches of read-ahead. */
std::size_t
recordsFor(AccessGenerator &gen, InstCount instructions,
           std::size_t extra_batches)
{
    std::vector<Access> batch(kBatch);
    std::size_t n = 0;
    InstCount covered = 0;
    while (covered < instructions) {
        gen.nextBatch(batch);
        for (const Access &a : batch)
            covered += a.gap + 1;
        n += kBatch;
    }
    return n + extra_batches * kBatch;
}

double
perKilo(std::uint64_t events, std::uint64_t instructions)
{
    return instructions ? 1000.0 * static_cast<double>(events) /
            static_cast<double>(instructions)
                        : 0.0;
}

} // anonymous namespace

Ladder
traceLadder(const Workload &w, double run_seconds,
            const std::string &out_dir, const std::string &trace_path)
{
    Ladder out;
    out.evidence = evidenceFor(w);
    Evidence &ev = out.evidence;
    const RunConfig &cfg = w.cfg;
    const CacheConfig &llc = cfg.hierarchy.llc;
    const PolicyKind policy = PolicyKind::Sampler;
    const std::uint32_t cores = cfg.hierarchy.numCores;
    const std::string manifest = manifestPath(w, out_dir);
    obs::SpanTracer &tracer = obs::SpanTracer::global();
    tracer.clear();
    tracer.setEnabled(true);

    // Inputs shared by every round: the recorded Sampler run, its LLC
    // stream as demand accesses, the LRU replay's per-reference
    // events (what the predictor sees when driven alone), and the
    // number of generator records each core consumes.
    Recording rec = recordSampler(w, ev);
    const std::vector<Access> refs = accessesOf(rec.stream);
    const std::size_t mark = rec.run.llcStreamMark;
    const std::vector<ReplayEvent> events =
        replayLlc(refs, mark, PolicyKind::Lru, llc, cfg.policy, true)
            .events;
    std::vector<std::size_t> records(cores);
    for (std::uint32_t c = 0; c < cores; ++c) {
        SyntheticWorkload gen(w.profile(w.benchmarks[c]), c);
        // A restarted core replays its stream from the start, so one
        // read-ahead batch past warm-up plus measurement suffices.
        records[c] = recordsFor(gen,
                                cfg.warmupInstructions +
                                    cfg.measureInstructions,
                                cores > 1 ? 1 : 0);
    }

    // Per-rung samples across rounds, keyed by metric name.
    std::map<std::string, std::vector<double>> samples;
    const auto add = [&samples](const std::string &name, double v) {
        samples[name].push_back(v);
    };
    // One operation: run @p fn inside a span named @p name, counting
    // it as attempted, and as failed when it throws.
    const auto op = [&](const std::string &name,
                        const std::function<void()> &fn) {
        ++out.attempted;
        try {
            auto span = tracer.span("layer", name);
            fn();
        } catch (const std::exception &e) {
            ++out.failed;
            std::fprintf(stderr, "simbench: %s failed: %s\n",
                         name.c_str(), e.what());
        }
        tracer.setEnabled(true);
    };

    std::vector<std::vector<Access>> bufs(cores);
    const auto start = Clock::now();
    for (std::size_t round = 0;
         round < kMinReps || seconds(start, Clock::now()) < run_seconds;
         ++round) {
        // trace: the generators alone.
        op("trace.generate", [&] {
            double t = 0, n = 0;
            for (std::uint32_t c = 0; c < cores; ++c) {
                SyntheticWorkload gen(w.profile(w.benchmarks[c]), c);
                bufs[c].resize(records[c]);
                const auto t0 = Clock::now();
                for (std::size_t i = 0; i < records[c]; i += kBatch)
                    gen.nextBatch(
                        std::span<Access>(bufs[c].data() + i, kBatch));
                t += seconds(t0, Clock::now());
                n += static_cast<double>(records[c]);
            }
            add("trace.gen_ns_per_access", 1e9 * t / n);
        });

        // sim: engine construction alone.
        op("sim.make_engine", [&] {
            const auto t0 = Clock::now();
            Engine eng =
                makeEngine(policy, cfg.hierarchy, cfg.core, cfg.policy);
            add("sim.make_engine_ms", 1e3 * seconds(t0, Clock::now()));
        });

        // cpu: the system over the pre-generated records, with the
        // workload's policy and with LRU.
        for (const PolicyKind kind : {policy, PolicyKind::Lru}) {
            const std::string metric = kind == policy
                ? "cpu.system_ns_per_instr"
                : "cpu.system_lru_ns_per_instr";
            op(metric, [&] {
                Engine eng =
                    makeEngine(kind, cfg.hierarchy, cfg.core, cfg.policy);
                SystemBase &sys = *eng.system;
                if (cores == 1) {
                    const auto t0 = Clock::now();
                    const ThreadRunResult r = sys.simulate(bufs[0]);
                    add(metric, 1e9 * seconds(t0, Clock::now()) /
                              static_cast<double>(r.instructions));
                    return;
                }
                std::vector<std::unique_ptr<AccessGenerator>> owned;
                std::vector<AccessGenerator *> gens;
                for (std::uint32_t c = 0; c < cores; ++c) {
                    owned.push_back(
                        std::make_unique<TraceReplayGenerator>(bufs[c]));
                    gens.push_back(owned.back().get());
                }
                const auto t0 = Clock::now();
                sys.run(gens, cfg.warmupInstructions,
                        cfg.measureInstructions);
                add(metric, 1e9 * seconds(t0, Clock::now()) /
                          static_cast<double>(sys.tick()));
            });
        }

        // cache / core / opt: the recorded LLC stream alone.
        const double nrefs = static_cast<double>(refs.size());
        op("cache.llc_lru", [&] {
            add("cache.llc_lru_ns_per_ref",
                  1e9 *
                      replayLlc(refs, mark, PolicyKind::Lru, llc,
                                cfg.policy, false)
                          .seconds /
                      nrefs);
        });
        op("cache.llc_dbrb", [&] {
            add("cache.llc_dbrb_ns_per_ref",
                  1e9 *
                      replayLlc(refs, mark, policy, llc, cfg.policy,
                                false)
                          .seconds /
                      nrefs);
        });
        op("core.sdbp", [&] {
            SamplingDeadBlockPredictor pred(
                resolveSdbpConfig(llc.numSets, cfg.policy));
            const std::uint64_t set_mask = llc.numSets - 1;
            const auto t0 = Clock::now();
            for (std::size_t i = 0; i < refs.size(); ++i) {
                const auto set = static_cast<std::uint32_t>(
                    refs[i].blockAddr() & set_mask);
                pred.onAccess(set, refs[i]);
                if (events[i].hit)
                    continue;
                if (events[i].evicted)
                    pred.onEvict(set, Access::atBlock(events[i].victim));
                pred.onFill(set, refs[i]);
            }
            add("core.sdbp_ns_per_ref",
                  1e9 * seconds(t0, Clock::now()) / nrefs);
        });
        op("opt.belady", [&] {
            const auto t0 = Clock::now();
            optimalMisses(rec.stream, llc.numSets, llc.assoc, true, mark);
            add("opt.belady_ns_per_ref",
                  1e9 * seconds(t0, Clock::now()) / nrefs);
        });

        // obs: the library runner with artifact collection off and
        // on, as a one-cell grid (whose executor cost is the sweep
        // rung on the workloads that are not grids).
        for (const bool collect : {false, true}) {
            op(collect ? "obs.collect_on" : "obs.collect_off", [&] {
                RunConfig c = cfg;
                c.obs = ObsOptions{};
                c.obs.collect = collect;
                sweep::SweepOptions o;
                o.jobs = 1;
                o.manifestPath = out_dir + "/" + w.name + ".cell.json";
                const auto only_cell = [](const auto &g) {
                    if (!g.ok())
                        throw std::runtime_error("grid cell failed");
                    return std::pair{g.cells[0].wallSeconds,
                                     g.cells[0].nsPerInstr()};
                };
                const auto t0 = Clock::now();
                const auto [cell_seconds, ns_per_instr] =
                    w.shape == Shape::Quad
                    ? only_cell(sweep::runMixGrid(
                          {MixProfile{w.mix, w.benchmarks}}, {policy}, c, o))
                    : only_cell(sweep::runGrid({w.benchmarks[0]}, {policy},
                                               c, o));
                const double wall = seconds(t0, Clock::now());
                add(collect ? "collect_on" : "collect_off",
                      ns_per_instr);
                if (!collect && w.shape != Shape::Sweep) {
                    add("sim.sweep_overhead_ms_per_cell",
                          1e3 * (wall - cell_seconds));
                    add("sim.sweep_busy_share", cell_seconds / wall);
                }
            });
        }

        // The workload itself, untraced and traced, in alternating
        // order; both outcomes join the repeatability evidence.
        for (int k = 0; k < 2; ++k) {
            const bool traced = (k == 0) == (round % 2 == 0);
            op(traced ? "workload.traced" : "workload.untraced", [&] {
                tracer.setEnabled(traced);
                double ns = 0;
                if (w.shape == Shape::Sweep) {
                    GridRun g = runSweep(w, cfg, manifest);
                    ev.gridErrors += g.errors;
                    ns = 1e9 * g.hostSeconds / static_cast<double>(g.ticks);
                    if (traced) {
                        const double busy = g.hostSeconds * g.jobs;
                        add("sim.sweep_overhead_ms_per_cell",
                              1e3 * (busy - g.cellSeconds) /
                                  static_cast<double>(g.cells.size()));
                        add("sim.sweep_busy_share",
                              g.cellSeconds / busy);
                    }
                    ev.reps.push_back(std::move(g.cells));
                } else {
                    obs::Profiler prof;
                    if (traced)
                        prof.mirrorSpans(&tracer, w.name);
                    EngineRun r = runEngine(w, policy, nullptr,
                                            traced ? &prof : nullptr);
                    ns = 1e9 * r.hostSeconds /
                        static_cast<double>(r.outcome.ticksTotal);
                    ev.reps.push_back({std::move(r.outcome)});
                }
                add(traced ? "traced" : "untraced", ns);
            });
        }
    }
    tracer.setEnabled(false);
    if (w.shape == Shape::Sweep)
        checkGrid(w, ev, manifest);
    if (!tracer.writeChromeTrace(trace_path))
        std::fprintf(stderr, "simbench: cannot write %s\n",
                     trace_path.c_str());

    std::map<std::string, double> &m = out.metrics;
    for (const auto &[name, v] : samples)
        m[name] = median(v);
    m["obs.collect_ns_per_instr"] = m["collect_on"] - m["collect_off"];
    m["obs.span_overhead_ratio"] = m["traced"] / m["untraced"];
    for (const char *helper :
         {"collect_on", "collect_off", "traced", "untraced"})
        m.erase(helper);

    // Deterministic work counts of the recorded run's measurement
    // phase, beside the timings.
    const Outcome &o = rec.run.outcome;
    const std::uint64_t instr = o.ticksMeasured;
    m["cpu.mem_refs_pki"] = perKilo(o.l1.accesses, instr);
    m["cache.l1_mpki"] = perKilo(o.l1.misses, instr);
    m["cache.l2_mpki"] = perKilo(o.l2.misses, instr);
    m["cache.llc_apki"] = perKilo(o.llc.accesses, instr);
    m["cache.llc_bypass_pki"] = perKilo(o.llc.bypasses, instr);
    m["cache.llc_evict_pki"] = perKilo(o.llc.evictions, instr);
    m["cache.llc_full_share"] = rec.run.llcFullAtMeasure;

    const SdbpConfig sdbp = resolveSdbpConfig(llc.numSets, cfg.policy);
    const std::uint32_t sampler_sets = sdbp.sampler.numSets;
    const std::uint32_t stride = llc.numSets / sampler_sets;
    std::uint64_t sampled = 0;
    for (std::size_t i = mark; i < rec.stream.size(); ++i) {
        const auto set = static_cast<std::uint32_t>(
            rec.stream[i].blockAddr & (llc.numSets - 1));
        sampled += set % stride == 0 && set / stride < sampler_sets;
    }
    m["core.sampled_ref_share"] = static_cast<double>(sampled) /
        static_cast<double>(rec.stream.size() - mark);
    m["core.dbrb_coverage"] = o.dbrb.coverage();
    m["core.dbrb_accuracy"] = o.dbrb.positives
        ? 1.0 -
            static_cast<double>(o.dbrb.falsePositiveHits +
                                o.dbrb.bypassReuses) /
                static_cast<double>(o.dbrb.positives)
        : 0.0;
    return out;
}

} // namespace simbench
