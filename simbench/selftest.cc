/**
 * @file
 * Self-test of the benchmark's correctness checks: runs every
 * workload once at a tenth of its budgets, requires every check to
 * pass, then corrupts one simulated counter at a time and requires
 * the check that reads it to fail.  Exit 0 when every check both
 * passes on real output and catches its corruption.
 *
 *   simbench_selftest [--out <dir>]
 */

#include <cstdio>
#include <functional>
#include <string>

#include "simbench.hh"

using namespace simbench;

namespace
{

struct Corruption
{
    Check check;
    bool sweepOnly;
    std::function<void(Evidence &)> apply;
};

Outcome &
firstCell(Evidence &ev)
{
    return ev.reps.front().front();
}

const std::vector<Corruption> kCorruptions = {
    {Check::HitsPlusMisses, false,
     [](Evidence &ev) { ++firstCell(ev).llc.hits; }},
    {Check::BypassesWithinMisses, false,
     [](Evidence &ev) {
         Outcome &o = firstCell(ev);
         o.llc.bypasses = o.llc.misses + 1;
     }},
    {Check::IpcInRange, false,
     [](Evidence &ev) {
         // More instructions retired than the issue width allows.
         Outcome &o = firstCell(ev);
         o.cycles[0] = o.instructions[0] / (ev.issueWidth + 1);
     }},
    {Check::MeasuredBudget, false,
     [](Evidence &ev) {
         firstCell(ev).instructions[0] = ev.measureBudget - 1;
     }},
    {Check::Repeatable, false,
     [](Evidence &ev) { ++ev.reps.back().back().dbrb.positives; }},
    {Check::NaiveLru, false,
     [](Evidence &ev) {
         const std::size_t i = ev.cacheLruHits.size() / 2;
         ev.cacheLruHits[i] = !ev.cacheLruHits[i];
     }},
    {Check::OptimalBound, false,
     [](Evidence &ev) {
         ev.optMisses = std::min(ev.lruMisses, ev.samplerMisses) + 1;
     }},
    {Check::SweepMatchesSerial, true,
     [](Evidence &ev) { ++ev.serialCells.back().llc.misses; }},
    {Check::SweepComplete, true,
     [](Evidence &ev) { --ev.manifestCompleted; }},
    {Check::SweepComplete, true,
     [](Evidence &ev) { ev.gridErrors = 1; }},
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string out_dir = ".";
    if (argc == 3 && std::string(argv[1]) == "--out")
        out_dir = argv[2];
    int faults = 0;
    for (const char *name :
         {"sdbp-llc", "cache-resident", "quad-shared", "sweep-fanout"}) {
        const Workload w = *makeWorkload(name, std::nullopt, true);
        const Evidence ev = measure(w, 0, out_dir).evidence;
        for (const auto &[check, msg] : checkAll(ev)) {
            std::printf("%-15s %-22s FAILS ON REAL OUTPUT: %s\n", name,
                        checkName(check), msg.c_str());
            ++faults;
        }
        for (const Corruption &c : kCorruptions) {
            if (c.sweepOnly && w.shape != Shape::Sweep)
                continue;
            Evidence bad = ev;
            c.apply(bad);
            bool caught = false;
            for (const auto &[check, msg] : checkAll(bad))
                caught = caught || check == c.check;
            std::printf("%-15s %-22s %s\n", name, checkName(c.check),
                        caught ? "catches its corruption"
                               : "MISSES ITS CORRUPTION");
            faults += caught ? 0 : 1;
        }
    }
    std::printf("%s\n", faults ? "self-test FAILED" : "self-test passed");
    return faults ? 1 : 0;
}
