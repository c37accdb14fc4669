/**
 * @file
 * Benchmark entry point: runs one workload for a fixed time and prints
 * its metrics, then one JSON object as the last line of stdout:
 *
 *   simbench --workload <name> [--seed <n>] [--seconds <s>]
 *            [--trace 0|1] [--out <dir>]
 *
 * --trace 0 reports the end-to-end metrics of untraced repetitions;
 * --trace 1 runs the layer ladder and reports the per-layer metrics.
 * Without --seed every profile keeps its own generator seed, so the
 * run simulates what the figure binaries simulate.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "obs/json.hh"
#include "simbench.hh"

using namespace simbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "simbench: " << why << "\n"
              << "usage: simbench --workload <sdbp-llc|cache-resident|"
                 "quad-shared|sweep-fanout> [--seed <n>] "
                 "[--seconds <s>] [--trace 0|1] [--out <dir>]\n";
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != text.size() || text[0] == '-')
        usage(flag + " needs a non-negative integer, got '" + text + "'");
    return v;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** End-to-end simulated metrics of the first repetition. */
std::pair<double, double>
simulatedIpcMpki(const Workload &w, const std::vector<Outcome> &rep)
{
    if (w.shape != Shape::Sweep)
        return {rep[0].ipcSum(), rep[0].llcMpki()};
    double log_ipc = 0;
    std::uint64_t misses = 0, instr = 0;
    for (const Outcome &o : rep) {
        log_ipc += std::log(o.ipcSum());
        misses += o.llc.misses;
        instr += o.ticksMeasured;
    }
    return {std::exp(log_ipc / static_cast<double>(rep.size())),
            1000.0 * static_cast<double>(misses) /
                static_cast<double>(instr)};
}

const std::map<std::string, std::string> kLayerUnits = {
    {"trace.gen_ns_per_access", "ns"},
    {"cpu.system_ns_per_instr", "ns"},
    {"cpu.system_lru_ns_per_instr", "ns"},
    {"cache.llc_lru_ns_per_ref", "ns"},
    {"cache.llc_dbrb_ns_per_ref", "ns"},
    {"core.sdbp_ns_per_ref", "ns"},
    {"opt.belady_ns_per_ref", "ns"},
    {"obs.collect_ns_per_instr", "ns"},
    {"obs.span_overhead_ratio", "ratio"},
    {"sim.make_engine_ms", "ms"},
    {"sim.sweep_overhead_ms_per_cell", "ms"},
    {"sim.sweep_busy_share", "ratio"},
    {"cpu.mem_refs_pki", "/kinstr"},
    {"cache.l1_mpki", "/kinstr"},
    {"cache.l2_mpki", "/kinstr"},
    {"cache.llc_apki", "/kinstr"},
    {"cache.llc_bypass_pki", "/kinstr"},
    {"cache.llc_evict_pki", "/kinstr"},
    {"cache.llc_full_share", "ratio"},
    {"core.sampled_ref_share", "ratio"},
    {"core.dbrb_coverage", "ratio"},
    {"core.dbrb_accuracy", "ratio"},
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::optional<std::uint64_t> seed;
    double run_seconds = 10;
    bool trace = false;
    std::string out_dir = ".";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string val = argv[++i];
        if (flag == "--workload")
            workload = val;
        else if (flag == "--seed")
            seed = parseCount(flag, val);
        else if (flag == "--seconds")
            run_seconds = static_cast<double>(parseCount(flag, val));
        else if (flag == "--trace" && (val == "0" || val == "1"))
            trace = val == "1";
        else if (flag == "--out")
            out_dir = val;
        else
            usage("unknown argument " + flag + " " + val);
    }
    // Sweep cells get the same wall-clock budget as engine-driven
    // simulations (the runner reads it when it arms each cell).
    setenv("SDBP_CELL_TIMEOUT", std::to_string(kOpTimeoutSeconds).c_str(),
           1);
    const std::optional<Workload> w = makeWorkload(workload, seed);
    if (!w)
        usage("unknown workload '" + workload + "'");
    std::filesystem::create_directories(out_dir);

    std::vector<Metric> metrics;
    Evidence ev;
    std::uint64_t attempted = 0, failed = 0;
    if (trace) {
        const std::string path =
            out_dir + "/" + w->name + ".spans.json";
        Ladder l = traceLadder(*w, run_seconds, out_dir, path);
        for (const auto &[name, unit] : kLayerUnits)
            metrics.push_back({name, l.metrics.at(name), unit});
        ev = std::move(l.evidence);
        attempted = l.attempted;
        failed = l.failed;
        std::cout << "spans: " << path << "\n";
    } else {
        Measurement m = measure(*w, run_seconds, out_dir);
        const auto [ipc, mpki] = m.evidence.reps.empty()
            ? std::pair{0.0, 0.0}
            : simulatedIpcMpki(*w, m.evidence.reps[0]);
        metrics = {
            {"host_ns_per_instr",
             quantile(m.hostNsPerInstr, w->timingQuantile), "ns"},
            {"cpu_ns_per_instr",
             quantile(m.cpuNsPerInstr, w->timingQuantile), "ns"},
            {"setup_s", median(m.setupSeconds), "s"},
            {"peak_rss_mb", m.peakRssMb, "MB"},
            {"sim_ipc", ipc, "instr/cycle"},
            {"sim_llc_mpki", mpki, "miss/kinstr"},
        };
        ev = std::move(m.evidence);
        attempted = m.attempted;
        failed = m.failed;
        std::cout << "repetitions: " << ev.reps.size() << "\n";
        for (const auto &[name, v] :
             {std::pair{"host_ns_per_instr", &m.hostNsPerInstr},
              std::pair{"setup_s", &m.setupSeconds}}) {
            std::cerr << name << " by repetition:";
            for (const double x : *v)
                std::cerr << " " << x;
            std::cerr << "\n";
        }
    }

    const auto bad = checkAll(ev);
    for (const auto &[check, msg] : bad)
        std::cerr << "simbench: check " << checkName(check)
                  << " failed: " << msg << "\n";

    obs::JsonValue jm = obs::JsonValue::object();
    for (const Metric &m : metrics) {
        std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        obs::JsonValue entry = obs::JsonValue::object();
        entry.set("value", obs::JsonValue(m.value));
        entry.set("unit", obs::JsonValue(m.unit));
        jm.set(m.name, std::move(entry));
    }
    std::printf("attempted %llu failed %llu checks %s\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                bad.empty() ? "passed" : "FAILED");
    obs::JsonValue result = obs::JsonValue::object();
    result.set("correct", obs::JsonValue(bad.empty()));
    result.set("attempted", obs::JsonValue(attempted));
    result.set("failed", obs::JsonValue(failed));
    result.set("metrics", std::move(jm));
    std::cout << result.dump(0) << std::endl;
    return 0;
}
