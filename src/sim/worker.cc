#include "sim/worker.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <spawn.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__APPLE__)
#include <mach-o/dyld.h>
#endif
extern char **environ;
#endif

#include "obs/span_tracer.hh"
#include "sim/sweep.hh"
#include "util/env.hh"
#include "util/file.hh"
#include "util/logging.hh"

namespace sdbp::sweep
{

namespace
{

std::atomic<bool> g_worker_capable{false};
std::atomic<bool> g_in_worker{false};

std::uint64_t
u64Or(const obs::JsonValue &v, const std::string &key,
      std::uint64_t fallback)
{
    const obs::JsonValue *f = v.find(key);
    return f ? f->asUInt() : fallback;
}

bool
boolOr(const obs::JsonValue &v, const std::string &key, bool fallback)
{
    const obs::JsonValue *f = v.find(key);
    return f ? f->asBool() : fallback;
}

std::string
strOr(const obs::JsonValue &v, const std::string &key,
      const std::string &fallback = {})
{
    const obs::JsonValue *f = v.find(key);
    return f ? f->asString() : fallback;
}

obs::JsonValue
cacheToJson(const CacheConfig &c)
{
    obs::JsonValue v = obs::JsonValue::object();
    v.set("name", c.name);
    v.set("num_sets", std::uint64_t{c.numSets});
    v.set("assoc", std::uint64_t{c.assoc});
    v.set("latency", std::uint64_t{c.latency});
    v.set("track_efficiency", c.trackEfficiency);
    return v;
}

CacheConfig
cacheFromJson(const obs::JsonValue &v, const CacheConfig &def)
{
    CacheConfig c = def;
    c.name = strOr(v, "name", def.name);
    c.numSets =
        static_cast<std::uint32_t>(u64Or(v, "num_sets", def.numSets));
    c.assoc = static_cast<std::uint32_t>(u64Or(v, "assoc", def.assoc));
    c.latency = u64Or(v, "latency", def.latency);
    c.trackEfficiency =
        boolOr(v, "track_efficiency", def.trackEfficiency);
    return c;
}

} // anonymous namespace

obs::JsonValue
runConfigToJson(const RunConfig &cfg)
{
    obs::JsonValue v = obs::JsonValue::object();
    v.set("warmup_instructions", std::uint64_t{cfg.warmupInstructions});
    v.set("measure_instructions",
          std::uint64_t{cfg.measureInstructions});
    v.set("record_llc_trace", cfg.recordLlcTrace);
    v.set("track_efficiency", cfg.trackEfficiency);

    obs::JsonValue h = obs::JsonValue::object();
    h.set("l1", cacheToJson(cfg.hierarchy.l1));
    h.set("l2", cacheToJson(cfg.hierarchy.l2));
    h.set("llc", cacheToJson(cfg.hierarchy.llc));
    h.set("mem_latency", std::uint64_t{cfg.hierarchy.memLatency});
    h.set("mem_service_interval",
          std::uint64_t{cfg.hierarchy.memServiceInterval});
    h.set("num_cores", std::uint64_t{cfg.hierarchy.numCores});
    obs::JsonValue pf = obs::JsonValue::object();
    pf.set("degree", std::uint64_t{cfg.hierarchy.prefetch.degree});
    pf.set("dead_block_directed",
           cfg.hierarchy.prefetch.deadBlockDirected);
    h.set("prefetch", std::move(pf));
    v.set("hierarchy", std::move(h));

    obs::JsonValue core = obs::JsonValue::object();
    core.set("width", std::uint64_t{cfg.core.width});
    core.set("rob_size", std::uint64_t{cfg.core.robSize});
    core.set("pipeline_depth", std::uint64_t{cfg.core.pipelineDepth});
    v.set("core", std::move(core));

    obs::JsonValue pol = obs::JsonValue::object();
    pol.set("num_threads", std::uint64_t{cfg.policy.numThreads});
    pol.set("seed", cfg.policy.seed);
    obs::JsonValue dbrb = obs::JsonValue::object();
    dbrb.set("enable_bypass", cfg.policy.dbrb.enableBypass);
    dbrb.set("enable_dead_replacement",
             cfg.policy.dbrb.enableDeadReplacement);
    dbrb.set("bypass_reuse_window", cfg.policy.dbrb.bypassReuseWindow);
    obs::JsonValue flt = obs::JsonValue::object();
    flt.set("faults_per_million",
            cfg.policy.dbrb.fault.faultsPerMillion);
    flt.set("seed", cfg.policy.dbrb.fault.seed);
    dbrb.set("fault", std::move(flt));
    pol.set("dbrb", std::move(dbrb));
    if (cfg.policy.sdbp) {
        const SdbpConfig &s = *cfg.policy.sdbp;
        obs::JsonValue sd = obs::JsonValue::object();
        sd.set("signature_bits", std::uint64_t{s.signatureBits});
        sd.set("llc_sets", std::uint64_t{s.llcSets});
        sd.set("use_sampler", s.useSampler);
        obs::JsonValue sam = obs::JsonValue::object();
        sam.set("num_sets", std::uint64_t{s.sampler.numSets});
        sam.set("assoc", std::uint64_t{s.sampler.assoc});
        sam.set("tag_bits", std::uint64_t{s.sampler.tagBits});
        sam.set("pc_bits", std::uint64_t{s.sampler.pcBits});
        sam.set("learn_from_own_evictions",
                s.sampler.learnFromOwnEvictions);
        sd.set("sampler", std::move(sam));
        obs::JsonValue tab = obs::JsonValue::object();
        tab.set("num_tables", std::uint64_t{s.table.numTables});
        tab.set("index_bits", std::uint64_t{s.table.indexBits});
        tab.set("counter_bits", std::uint64_t{s.table.counterBits});
        tab.set("threshold", std::uint64_t{s.table.threshold});
        sd.set("table", std::move(tab));
        pol.set("sdbp", std::move(sd));
    }
    v.set("policy", std::move(pol));

    // Emitted only when non-default so manifests of synthetic-only
    // sweeps keep their established shape byte for byte.
    if (cfg.trace != TraceSpec{}) {
        obs::JsonValue tr = obs::JsonValue::object();
        tr.set("kind", traceKindName(cfg.trace.kind));
        tr.set("path", cfg.trace.path);
        tr.set("interval_instructions",
               cfg.trace.intervalInstructions);
        tr.set("select_clusters",
               std::uint64_t{cfg.trace.selectClusters});
        v.set("trace", std::move(tr));
    }

    obs::JsonValue ob = obs::JsonValue::object();
    ob.set("collect", cfg.obs.collect);
    ob.set("interval_instructions", cfg.obs.intervalInstructions);
    ob.set("stats_json_path", cfg.obs.statsJsonPath);
    ob.set("timeline_csv_path", cfg.obs.timelineCsvPath);
    ob.set("trace_jsonl_path", cfg.obs.traceJsonlPath);
    ob.set("trace_capacity", std::uint64_t{cfg.obs.traceCapacity});
    v.set("obs", std::move(ob));
    return v;
}

RunConfig
runConfigFromJson(const obs::JsonValue &v)
{
    RunConfig cfg; // field defaults; every absent key keeps them
    cfg.warmupInstructions =
        u64Or(v, "warmup_instructions", cfg.warmupInstructions);
    cfg.measureInstructions =
        u64Or(v, "measure_instructions", cfg.measureInstructions);
    cfg.recordLlcTrace =
        boolOr(v, "record_llc_trace", cfg.recordLlcTrace);
    cfg.trackEfficiency =
        boolOr(v, "track_efficiency", cfg.trackEfficiency);

    if (const obs::JsonValue *h = v.find("hierarchy")) {
        if (const obs::JsonValue *c = h->find("l1"))
            cfg.hierarchy.l1 = cacheFromJson(*c, cfg.hierarchy.l1);
        if (const obs::JsonValue *c = h->find("l2"))
            cfg.hierarchy.l2 = cacheFromJson(*c, cfg.hierarchy.l2);
        if (const obs::JsonValue *c = h->find("llc"))
            cfg.hierarchy.llc = cacheFromJson(*c, cfg.hierarchy.llc);
        cfg.hierarchy.memLatency =
            u64Or(*h, "mem_latency", cfg.hierarchy.memLatency);
        cfg.hierarchy.memServiceInterval = u64Or(
            *h, "mem_service_interval",
            cfg.hierarchy.memServiceInterval);
        cfg.hierarchy.numCores = static_cast<std::uint32_t>(
            u64Or(*h, "num_cores", cfg.hierarchy.numCores));
        if (const obs::JsonValue *pf = h->find("prefetch")) {
            cfg.hierarchy.prefetch.degree =
                static_cast<unsigned>(u64Or(
                    *pf, "degree", cfg.hierarchy.prefetch.degree));
            cfg.hierarchy.prefetch.deadBlockDirected =
                boolOr(*pf, "dead_block_directed",
                       cfg.hierarchy.prefetch.deadBlockDirected);
        }
    }
    if (const obs::JsonValue *c = v.find("core")) {
        cfg.core.width = static_cast<unsigned>(
            u64Or(*c, "width", cfg.core.width));
        cfg.core.robSize = static_cast<unsigned>(
            u64Or(*c, "rob_size", cfg.core.robSize));
        cfg.core.pipelineDepth = static_cast<unsigned>(
            u64Or(*c, "pipeline_depth", cfg.core.pipelineDepth));
    }
    if (const obs::JsonValue *p = v.find("policy")) {
        cfg.policy.numThreads = static_cast<std::uint32_t>(
            u64Or(*p, "num_threads", cfg.policy.numThreads));
        cfg.policy.seed = u64Or(*p, "seed", cfg.policy.seed);
        if (const obs::JsonValue *d = p->find("dbrb")) {
            cfg.policy.dbrb.enableBypass = boolOr(
                *d, "enable_bypass", cfg.policy.dbrb.enableBypass);
            cfg.policy.dbrb.enableDeadReplacement =
                boolOr(*d, "enable_dead_replacement",
                       cfg.policy.dbrb.enableDeadReplacement);
            cfg.policy.dbrb.bypassReuseWindow =
                u64Or(*d, "bypass_reuse_window",
                      cfg.policy.dbrb.bypassReuseWindow);
            if (const obs::JsonValue *f = d->find("fault")) {
                cfg.policy.dbrb.fault.faultsPerMillion =
                    u64Or(*f, "faults_per_million",
                          cfg.policy.dbrb.fault.faultsPerMillion);
                cfg.policy.dbrb.fault.seed =
                    u64Or(*f, "seed", cfg.policy.dbrb.fault.seed);
            }
        }
        if (const obs::JsonValue *s = p->find("sdbp")) {
            SdbpConfig sd;
            sd.signatureBits = static_cast<unsigned>(
                u64Or(*s, "signature_bits", sd.signatureBits));
            sd.llcSets = static_cast<std::uint32_t>(
                u64Or(*s, "llc_sets", sd.llcSets));
            sd.useSampler = boolOr(*s, "use_sampler", sd.useSampler);
            if (const obs::JsonValue *sam = s->find("sampler")) {
                sd.sampler.numSets = static_cast<std::uint32_t>(
                    u64Or(*sam, "num_sets", sd.sampler.numSets));
                sd.sampler.assoc = static_cast<std::uint32_t>(
                    u64Or(*sam, "assoc", sd.sampler.assoc));
                sd.sampler.tagBits = static_cast<unsigned>(
                    u64Or(*sam, "tag_bits", sd.sampler.tagBits));
                sd.sampler.pcBits = static_cast<unsigned>(
                    u64Or(*sam, "pc_bits", sd.sampler.pcBits));
                sd.sampler.learnFromOwnEvictions =
                    boolOr(*sam, "learn_from_own_evictions",
                           sd.sampler.learnFromOwnEvictions);
            }
            if (const obs::JsonValue *tab = s->find("table")) {
                sd.table.numTables = static_cast<unsigned>(
                    u64Or(*tab, "num_tables", sd.table.numTables));
                sd.table.indexBits = static_cast<unsigned>(
                    u64Or(*tab, "index_bits", sd.table.indexBits));
                sd.table.counterBits = static_cast<unsigned>(
                    u64Or(*tab, "counter_bits", sd.table.counterBits));
                sd.table.threshold = static_cast<unsigned>(
                    u64Or(*tab, "threshold", sd.table.threshold));
            }
            cfg.policy.sdbp = sd;
        }
    }
    if (const obs::JsonValue *t = v.find("trace")) {
        if (const auto kind = parseTraceKind(strOr(*t, "kind")))
            cfg.trace.kind = *kind;
        cfg.trace.path = strOr(*t, "path");
        cfg.trace.intervalInstructions =
            u64Or(*t, "interval_instructions",
                  cfg.trace.intervalInstructions);
        cfg.trace.selectClusters = static_cast<unsigned>(
            u64Or(*t, "select_clusters", cfg.trace.selectClusters));
    }
    if (const obs::JsonValue *o = v.find("obs")) {
        cfg.obs.collect = boolOr(*o, "collect", cfg.obs.collect);
        cfg.obs.intervalInstructions =
            u64Or(*o, "interval_instructions",
                  cfg.obs.intervalInstructions);
        cfg.obs.statsJsonPath = strOr(*o, "stats_json_path");
        cfg.obs.timelineCsvPath = strOr(*o, "timeline_csv_path");
        cfg.obs.traceJsonlPath = strOr(*o, "trace_jsonl_path");
        cfg.obs.traceCapacity = static_cast<std::size_t>(
            u64Or(*o, "trace_capacity", cfg.obs.traceCapacity));
    }
    return cfg;
}

bool
workerCapable()
{
    return g_worker_capable.load(std::memory_order_relaxed);
}

bool
inWorkerProcess()
{
    return g_in_worker.load(std::memory_order_relaxed);
}

unsigned
defaultWorkers()
{
    return static_cast<unsigned>(env::u64("SDBP_WORKERS", 0, 0, 1024));
}

std::uint64_t
leaseTtlMs()
{
    return env::u64("SDBP_LEASE_TTL", 60, 1, 86400) * 1000u;
}

ChaosSpec
chaosSpec()
{
    ChaosSpec spec;
    const std::string raw = env::str("SDBP_TEST_CRASH_CELL");
    if (raw.empty())
        return spec;
    const auto colon = raw.find(':');
    bool ok = colon != std::string::npos && colon > 0;
    std::size_t index = 0;
    if (ok) {
        try {
            std::size_t used = 0;
            index = std::stoull(raw.substr(0, colon), &used);
            ok = used == colon;
        } catch (...) {
            ok = false;
        }
    }
    const std::string mode = ok ? raw.substr(colon + 1) : "";
    if (!ok ||
        (mode != "abort" && mode != "segv" && mode != "hang" &&
         mode != "exit1"))
        fatal("malformed SDBP_TEST_CRASH_CELL '" + raw +
              "' (expected <cell-index>:abort|segv|hang|exit1)");
    spec.enabled = true;
    spec.index = index;
    spec.mode = mode;
    return spec;
}

#if defined(__unix__) || defined(__APPLE__)

namespace
{

/** Absolute path of the running binary ("" when undiscoverable). */
std::string
selfExePath()
{
#if defined(__linux__)
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return {};
    buf[n] = '\0';
    return buf;
#elif defined(__APPLE__)
    char buf[4096];
    std::uint32_t size = sizeof(buf);
    if (_NSGetExecutablePath(buf, &size) != 0)
        return {};
    return buf;
#else
    return {};
#endif
}

[[noreturn]] void
chaosCrash(const std::string &mode)
{
    warn("SDBP_TEST_CRASH_CELL firing: " + mode);
    if (mode == "abort")
        std::abort();
    if (mode == "segv")
        ::raise(SIGSEGV);
    if (mode == "exit1")
        std::_Exit(1);
    // "hang": a wedged cell that never reaches the cooperative
    // deadline check — only the coordinator's hard SIGKILL tier
    // (or a stale-lease reclaim... which the heartbeat thread
    // prevents, deliberately) can end it.
    for (;;)
        std::this_thread::sleep_for(std::chrono::seconds(1));
    std::abort(); // unreachable; placates [[noreturn]]
}

/**
 * Background lease refresher: while the worker's main thread runs a
 * cell, keep its lease heartbeat fresh so sibling workers don't
 * reclaim the cell as stale mid-run.
 */
class HeartbeatThread
{
  public:
    HeartbeatThread(SweepManifest &manifest, std::int64_t pid,
                    std::uint64_t ttl_ms)
        : manifest_(manifest), pid_(pid),
          periodMs_(std::max<std::uint64_t>(500, ttl_ms / 4)),
          thread_([this] { run(); })
    {
    }

    ~HeartbeatThread()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    void
    watch(std::size_t index, std::uint64_t generation)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        active_ = true;
        index_ = index;
        generation_ = generation;
    }

    void
    unwatch()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        active_ = false;
    }

  private:
    void
    run()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stop_) {
            cv_.wait_for(lock,
                         std::chrono::milliseconds(periodMs_),
                         [this] { return stop_; });
            if (stop_)
                return;
            if (!active_)
                continue;
            const std::size_t index = index_;
            const std::uint64_t generation = generation_;
            lock.unlock();
            manifest_.heartbeat(index, pid_, generation,
                                util::monotonicMs());
            lock.lock();
        }
    }

    SweepManifest &manifest_;
    const std::int64_t pid_;
    const std::uint64_t periodMs_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    bool active_ = false;
    std::size_t index_ = 0;
    std::uint64_t generation_ = 0;
    std::thread thread_;
};

std::vector<std::string>
jsonStringArray(const obs::JsonValue *arr)
{
    std::vector<std::string> out;
    if (arr && arr->isArray())
        for (std::size_t i = 0; i < arr->size(); ++i)
            out.push_back(arr->at(i).asString());
    return out;
}

/**
 * The worker protocol: bootstrap the sweep description from the
 * manifest file, then claim-run-report until no claimable cell
 * remains.  Exits the process; never returns to main().
 */
[[noreturn]] void
workerMain(const std::string &manifest_path)
{
    g_in_worker.store(true, std::memory_order_relaxed);
    installShutdownHandler();

    bool ok = false;
    const std::string text = util::readFile(manifest_path, &ok);
    if (!ok)
        fatal("worker cannot read sweep manifest " + manifest_path);
    std::string perr;
    const auto doc = obs::JsonValue::parse(text, &perr);
    if (!doc)
        fatal("worker manifest " + manifest_path +
              " is not valid JSON (" + perr + ")");
    const std::string kind = strOr(*doc, "kind");
    const obs::JsonValue *fp = doc->find("fingerprint");
    if (!fp || (kind != "grid" && kind != "mix_grid"))
        fatal("worker manifest " + manifest_path +
              " lacks a sweep fingerprint");
    const std::vector<std::string> runs =
        jsonStringArray(fp->find("runs"));
    const std::vector<std::string> policy_names =
        jsonStringArray(fp->find("policies"));
    if (runs.empty() || policy_names.empty())
        fatal("worker manifest " + manifest_path +
              " has an empty grid");
    const obs::JsonValue *config = doc->find("config");
    if (!config)
        fatal("worker manifest " + manifest_path +
              " carries no worker config — was this sweep started "
              "by a multi-process coordinator?");
    const RunConfig cfg = runConfigFromJson(*config);

    std::vector<PolicyKind> kinds;
    kinds.reserve(policy_names.size());
    for (const std::string &name : policy_names) {
        const auto parsed = parsePolicyKind(name);
        if (!parsed)
            fatal("worker manifest " + manifest_path +
                  " names an unknown policy '" + name + "'");
        kinds.push_back(*parsed);
    }

    std::vector<MixProfile> mixes;
    if (kind == "mix_grid") {
        const obs::JsonValue *jm = doc->find("mixes");
        if (!jm || !jm->isArray() || jm->size() != runs.size())
            fatal("worker manifest " + manifest_path +
                  " lacks the mix benchmark lists");
        for (std::size_t i = 0; i < jm->size(); ++i) {
            MixProfile mix;
            mix.name = strOr(jm->at(i), "name", runs[i]);
            mix.benchmarks =
                jsonStringArray(jm->at(i).find("benchmarks"));
            mixes.push_back(std::move(mix));
        }
    }

    SweepManifest manifest(
        manifest_path, kind, runs, policy_names,
        u64Or(*fp, "warmup_instructions", 0),
        u64Or(*fp, "measure_instructions", 0));
    manifest.enableSharedAccess();

    const std::size_t cols = policy_names.size();
    const bool multi = runs.size() * cols > 1;
    const unsigned max_attempts = defaultRetries() + 1;
    const std::uint64_t ttl = leaseTtlMs();
    const ChaosSpec chaos = chaosSpec();
    const std::int64_t pid = ::getpid();
    {
        // Scoped so the heartbeat thread joins before std::exit —
        // atexit must not race a thread touching the manifest.
        HeartbeatThread heartbeat(manifest, pid, ttl);

        while (!shutdownRequested()) {
            const auto claim =
                manifest.tryClaim(pid, util::monotonicMs(), ttl);
            if (!claim)
                break; // nothing claimable: drain and exit clean
            const std::size_t i = claim->index;
            const std::string &run = runs[i / cols];
            const std::string &pol = policy_names[i % cols];
            heartbeat.watch(i, claim->generation);
            if (chaos.enabled && chaos.index == i)
                chaosCrash(chaos.mode);

            const std::uint64_t started = util::monotonicMs();
            CellError err;
            err.index = i;
            err.run = run;
            err.policy = pol;
            err.attempts = static_cast<unsigned>(claim->generation);
            err.leaseGeneration = claim->generation;
            bool cell_ok = false;
            obs::JsonValue metrics;
            try {
                // The in-process soft-failure hook works here too.
                if (const std::string f = env::str("SDBP_TEST_FAIL_CELL");
                    !f.empty() && run + "/" + pol == f)
                    throw std::runtime_error(
                        "SDBP_TEST_FAIL_CELL forced failure");
                if (kind == "grid")
                    metrics = runResultToJson(
                        runSingleCore(run, kinds[i % cols],
                                      cellConfig(cfg, multi, run, pol)));
                else
                    metrics = multicoreResultToJson(
                        runMulticore(mixes[i / cols], kinds[i % cols],
                                     cellConfig(cfg, multi, run, pol)));
                cell_ok = true;
            } catch (const SimulationTimeout &e) {
                err.timedOut = true;
                err.message = e.what();
            } catch (const std::exception &e) {
                err.message = e.what();
            } catch (...) {
                err.message = "unknown exception";
            }
            if (cell_ok) {
                manifest.completeClaimed(i, pid, claim->generation,
                                         std::move(metrics), started,
                                         util::monotonicMs());
            } else {
                warn("worker cell " + run + "/" + pol +
                     " failed (attempt " +
                     std::to_string(claim->generation) + "/" +
                     std::to_string(max_attempts) + "): " + err.message);
                manifest.failClaimed(i, err, pid, claim->generation,
                                     max_attempts, started,
                                     util::monotonicMs());
            }
            heartbeat.unwatch();
        }
    }
    std::exit(0);
}

/** "--sdbp-worker <manifest>" scan, shared by maybeWorkerMain. */
std::string
workerManifestArg(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--sdbp-worker") != 0)
            continue;
        if (i + 1 >= argc)
            fatal("--sdbp-worker needs a manifest path");
        return argv[i + 1];
    }
    return {};
}

} // anonymous namespace

void
maybeWorkerMain(int argc, char **argv)
{
    g_worker_capable.store(true, std::memory_order_relaxed);
    const std::string manifest = workerManifestArg(argc, argv);
    if (!manifest.empty())
        workerMain(manifest); // exits; a worker never runs main()
}

namespace
{

/** One live worker subprocess under coordinator supervision. */
struct WorkerProc
{
    pid_t pid = -1;
    unsigned id = 0;
    std::chrono::steady_clock::time_point spawned;
};

bool
isTerminal(CellStatus s)
{
    return s == CellStatus::Completed || s == CellStatus::Failed ||
        s == CellStatus::Skipped;
}

/** Spawn one worker subprocess; -1 on failure.  The child's
 *  environment drops SDBP_WORKERS (workers never spawn workers) and
 *  pins SDBP_RETRIES to the coordinator's budget. */
pid_t
spawnWorker(const std::string &exe, const std::string &manifest_path,
            unsigned id, unsigned retries)
{
    std::vector<std::string> env_strings;
    for (char **e = environ; e && *e; ++e) {
        const std::string s = *e;
        if (s.rfind("SDBP_WORKERS=", 0) == 0 ||
            s.rfind("SDBP_WORKER_ID=", 0) == 0 ||
            s.rfind("SDBP_RETRIES=", 0) == 0)
            continue;
        env_strings.push_back(s);
    }
    env_strings.push_back("SDBP_WORKERS=0");
    env_strings.push_back("SDBP_WORKER_ID=" + std::to_string(id));
    env_strings.push_back("SDBP_RETRIES=" + std::to_string(retries));

    std::vector<char *> envp;
    envp.reserve(env_strings.size() + 1);
    for (std::string &s : env_strings)
        envp.push_back(s.data());
    envp.push_back(nullptr);

    std::string arg_flag = "--sdbp-worker";
    std::string arg_exe = exe;
    std::string arg_manifest = manifest_path;
    char *argv[] = {arg_exe.data(), arg_flag.data(),
                    arg_manifest.data(), nullptr};

    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, exe.c_str(), nullptr, nullptr,
                                 argv, envp.data());
    if (rc != 0) {
        warn("cannot spawn sweep worker: " +
             std::string(std::strerror(rc)));
        return -1;
    }
    return pid;
}

std::string
describeDeath(int status, bool hard_timeout)
{
    if (hard_timeout)
        return "hard timeout: coordinator killed the worker after "
               "the cell exceeded SDBP_CELL_TIMEOUT plus grace";
    if (WIFSIGNALED(status))
        return std::string("worker died with signal ") +
            std::to_string(WTERMSIG(status)) + " (" +
            strsignal(WTERMSIG(status)) + ")";
    if (WIFEXITED(status))
        return "worker exited with code " +
            std::to_string(WEXITSTATUS(status));
    return "worker died";
}

} // anonymous namespace

FabricResult
superviseWorkers(SweepManifest &manifest,
                 const std::vector<std::string> &runs,
                 const std::vector<std::string> &policies,
                 unsigned workers, unsigned retries,
                 const std::function<void(bool)> &on_cell_done)
{
    FabricResult out;
    const std::string exe = selfExePath();
    if (exe.empty()) {
        warn("cannot locate own executable; running the sweep "
             "in-process instead of with SDBP_WORKERS");
        out.fallback = true;
        return out;
    }

    const std::size_t cols = policies.size();
    const unsigned max_attempts = retries + 1;
    const std::uint64_t timeout_s = env::u64("SDBP_CELL_TIMEOUT", 0);
    // Hard tier: cooperative deadline first, then SIGKILL after a
    // grace period (cells that hang before ever arming the deadline
    // are exactly the ones that need it).
    const std::uint64_t hard_ms = timeout_s > 0
        ? (timeout_s + std::max<std::uint64_t>(2, timeout_s / 4)) *
            1000u
        : 0;

    obs::SpanTracer &tracer = obs::SpanTracer::global();
    std::vector<WorkerProc> alive;
    unsigned next_id = 0;
    const auto spawn = [&]() {
        const pid_t pid =
            spawnWorker(exe, manifest.path(), next_id, retries);
        if (pid < 0)
            return false;
        alive.push_back(
            {pid, next_id,
             std::chrono::steady_clock::now()}); // sdbp-lint: allow(det-wallclock)
        ++next_id;
        return true;
    };

    auto views = manifest.snapshotCells();
    std::size_t nonterminal = 0;
    for (const auto &v : views)
        if (!isTerminal(v.status))
            ++nonterminal;
    const std::size_t want = std::min<std::size_t>(
        workers, std::max<std::size_t>(nonterminal, 1));
    for (std::size_t i = 0; i < want; ++i)
        spawn();
    if (alive.empty()) {
        warn("no sweep worker could be spawned; running in-process");
        out.fallback = true;
        return out;
    }

    // Cells already terminal here (restored by resume) were
    // accounted by the caller; only transitions fire on_cell_done.
    std::vector<CellStatus> last(views.size(), CellStatus::Pending);
    for (std::size_t i = 0; i < views.size(); ++i)
        last[i] = views[i].status;
    std::set<pid_t> killed_for_timeout;
    bool skip_marked = false;

    const auto emitWorkerSpan = [&](const WorkerProc &w) {
        if (!tracer.enabled())
            return;
        obs::SpanRecord rec;
        rec.category = "worker";
        rec.name = "worker-" + std::to_string(w.id);
        rec.workerPid = static_cast<std::uint32_t>(w.pid);
        tracer.emitInterval(
            std::move(rec), w.spawned,
            std::chrono::steady_clock::now()); // sdbp-lint: allow(det-wallclock)
    };

    for (;;) {
        // Reap: a dead worker charges only the cells it had leased.
        for (std::size_t w = 0; w < alive.size();) {
            int status = 0;
            const pid_t p = ::waitpid(alive[w].pid, &status, WNOHANG);
            if (p != alive[w].pid) {
                ++w;
                continue;
            }
            emitWorkerSpan(alive[w]);
            const bool crashed = WIFSIGNALED(status) ||
                (WIFEXITED(status) && WEXITSTATUS(status) != 0);
            if (crashed) {
                const int sig =
                    WIFSIGNALED(status) ? WTERMSIG(status) : 0;
                const bool hard = killed_for_timeout.count(p) > 0;
                const std::string msg = describeDeath(status, hard);
                views = manifest.snapshotCells();
                for (std::size_t i = 0; i < views.size(); ++i)
                    if (views[i].status == CellStatus::Leased &&
                        views[i].leasePid == p)
                        manifest.chargeCrash(i, p, msg, sig, hard,
                                             max_attempts,
                                             util::monotonicMs());
            }
            killed_for_timeout.erase(p);
            alive.erase(alive.begin() +
                        static_cast<std::ptrdiff_t>(w));
        }

        if (shutdownRequested() && !skip_marked) {
            manifest.markSkippedPending();
            skip_marked = true;
        }

        views = manifest.snapshotCells();
        std::size_t pending = 0;
        std::size_t leased = 0;
        bool all_terminal = true;
        const std::uint64_t now = util::monotonicMs();
        for (std::size_t i = 0; i < views.size(); ++i) {
            const auto &v = views[i];
            if (isTerminal(v.status)) {
                if (!isTerminal(last[i]))
                    on_cell_done(v.status == CellStatus::Failed);
            } else {
                all_terminal = false;
                if (v.status == CellStatus::Pending)
                    ++pending;
                else if (v.status == CellStatus::Leased)
                    ++leased;
            }
            last[i] = v.status;
            // Safety net: a lease whose owner is no longer one of
            // our children means the reap-time charge was missed
            // (e.g. waitpid errored); charge it now so the cell is
            // re-farmed instead of wedging the sweep.
            if (v.status == CellStatus::Leased) {
                const pid_t owner = static_cast<pid_t>(v.leasePid);
                const bool owner_alive = std::any_of(
                    alive.begin(), alive.end(),
                    [owner](const WorkerProc &wp) {
                        return wp.pid == owner;
                    });
                if (!owner_alive)
                    manifest.chargeCrash(
                        i, owner,
                        "worker disappeared without reporting", 0,
                        false, max_attempts, now);
            }
            // Hard-timeout tier: SIGKILL the worker whose leased
            // cell outlived the cooperative deadline plus grace.
            if (hard_ms > 0 && v.status == CellStatus::Leased &&
                now > v.claimedMs && now - v.claimedMs > hard_ms) {
                const pid_t owner = static_cast<pid_t>(v.leasePid);
                const bool ours = std::any_of(
                    alive.begin(), alive.end(),
                    [owner](const WorkerProc &wp) {
                        return wp.pid == owner;
                    });
                if (ours && !killed_for_timeout.count(owner)) {
                    warn("cell " + runs[i / cols] + "/" +
                         policies[i % cols] +
                         " exceeded the hard timeout; killing "
                         "worker pid " + std::to_string(owner));
                    killed_for_timeout.insert(owner);
                    ::kill(owner, SIGKILL);
                }
            }
        }

        if (all_terminal && alive.empty())
            break;

        // Keep enough workers alive for the remaining runnable work
        // (one per pending or leased cell, capped at the requested
        // pool size); a worker that exits cleanly while cells are
        // pending — a crash requeued one after it drained — is
        // replaced.  Surplus workers exit 0 on their own.
        if (!shutdownRequested()) {
            const std::size_t target = std::min<std::size_t>(
                workers, pending + leased);
            while (pending > 0 && alive.size() < target) {
                if (!spawn())
                    break;
                --pending;
            }
        }

        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    for (std::size_t i = 0; i < views.size(); ++i) {
        const auto &v = views[i];
        if (v.status == CellStatus::Skipped)
            ++out.skipped;
        if (v.status != CellStatus::Failed)
            continue;
        CellError err;
        err.index = i;
        err.run = runs[i / cols];
        err.policy = policies[i % cols];
        err.message = v.error;
        err.attempts = v.attempts;
        err.timedOut = v.timedOut;
        err.crashed = v.crashed;
        err.signal = v.signal;
        err.leaseGeneration = v.leaseGeneration;
        out.errors.push_back(std::move(err));
    }

    // Mirror worker-executed cells into the span trace, annotated
    // with the executing pid and lease generation.  The lease
    // timestamps share the coordinator's monotonic clock domain, so
    // the intervals line up with the coordinator's own spans.
    if (tracer.enabled()) {
        for (std::size_t i = 0; i < views.size(); ++i) {
            const auto &v = views[i];
            if (v.startedMs == 0 || v.finishedMs < v.startedMs)
                continue;
            obs::SpanRecord rec;
            rec.category = "cell";
            rec.name = runs[i / cols] + "/" + policies[i % cols];
            rec.attempts = v.attempts;
            rec.failed = v.status == CellStatus::Failed;
            rec.timedOut = v.timedOut;
            rec.workerPid = static_cast<std::uint32_t>(v.workerPid);
            rec.leaseGeneration = v.leaseGeneration;
            using namespace std::chrono;
            const auto toTp = [](std::uint64_t ms) {
                return steady_clock::time_point(
                    duration_cast<steady_clock::duration>(
                        milliseconds(ms)));
            };
            tracer.emitInterval(std::move(rec), toTp(v.startedMs),
                                toTp(v.finishedMs));
        }
    }
    return out;
}

#else // !unix: the fabric is unavailable; sweeps stay in-process.

void
maybeWorkerMain(int, char **)
{
    g_worker_capable.store(false, std::memory_order_relaxed);
}

FabricResult
superviseWorkers(SweepManifest &, const std::vector<std::string> &,
                 const std::vector<std::string> &, unsigned, unsigned,
                 const std::function<void(bool)> &)
{
    warn("multi-process sweeps are unsupported on this platform; "
         "running in-process");
    FabricResult out;
    out.fallback = true;
    return out;
}

#endif

} // namespace sdbp::sweep
