/**
 * @file
 * Correctness checks of a benchmark run.  Every check compares the
 * simulator's outputs with something computed apart from it (a plain
 * LRU list model, Belady's bound) or with a property the method must
 * have; none compares with saved output.
 */

#include <algorithm>
#include <sstream>
#include <tuple>

#include "simbench.hh"

namespace simbench
{

namespace
{

/** Plain rendering of a counter mismatch. */
std::string
describe(const std::string &what, std::uint64_t got,
         std::uint64_t want)
{
    std::ostringstream os;
    os << what << ": " << got << " vs " << want;
    return os.str();
}

} // anonymous namespace

const char *
checkName(Check c)
{
    switch (c) {
      case Check::HitsPlusMisses:
        return "hits+misses=accesses";
      case Check::BypassesWithinMisses:
        return "bypasses<=misses";
      case Check::IpcInRange:
        return "0<ipc<=width";
      case Check::MeasuredBudget:
        return "measured>=budget";
      case Check::Repeatable:
        return "repeatable";
      case Check::NaiveLru:
        return "naive-lru";
      case Check::OptimalBound:
        return "optimal-bound";
      case Check::SweepMatchesSerial:
        return "sweep=serial";
      case Check::SweepComplete:
        return "sweep-complete";
    }
    return "?";
}

double
Outcome::ipcSum() const
{
    double sum = 0;
    for (std::size_t c = 0; c < instructions.size(); ++c)
        sum += cycles[c] ? static_cast<double>(instructions[c]) /
                static_cast<double>(cycles[c])
                         : 0.0;
    return sum;
}

double
Outcome::llcMpki() const
{
    return ticksMeasured ? 1000.0 * static_cast<double>(llc.misses) /
            static_cast<double>(ticksMeasured)
                         : 0.0;
}

bool
Outcome::operator==(const Outcome &o) const
{
    const auto dbrbTuple = [](const DbrbStats &d) {
        return std::make_tuple(d.predictions, d.positives,
                               d.falsePositiveHits, d.bypassReuses,
                               d.deadEvictions, d.bypasses);
    };
    return label == o.label && instructions == o.instructions &&
        cycles == o.cycles && ticksTotal == o.ticksTotal &&
        ticksMeasured == o.ticksMeasured && l1 == o.l1 &&
        l2 == o.l2 && llc == o.llc && hasDbrb == o.hasDbrb &&
        dbrbTuple(dbrb) == dbrbTuple(o.dbrb);
}

Outcome
outcomeOf(const RunResult &r, InstCount warmup)
{
    Outcome o;
    o.label = r.benchmark + "/" + r.policy;
    o.instructions = {r.instructions};
    o.cycles = {r.cycles};
    o.ticksTotal = warmup + r.instructions;
    o.ticksMeasured = r.instructions;
    // RunResult carries no hit count; the hit figure is derived, so
    // the hits+misses check holds trivially for sweep cells and they
    // are checked against the engine-driven serial runs instead.
    o.llc.accesses = r.llcAccesses;
    o.llc.misses = r.llcMisses;
    o.llc.hits = r.llcAccesses - std::min(r.llcMisses, r.llcAccesses);
    o.llc.bypasses = r.llcBypasses;
    o.hasDbrb = r.hasDbrb;
    o.dbrb = r.dbrb;
    return o;
}

std::vector<bool>
naiveLruHits(const std::vector<LlcRef> &stream, std::uint32_t num_sets,
             std::uint32_t assoc)
{
    // Most recent first; a miss inserts at the front and drops the
    // back once the set holds more than assoc blocks.
    std::vector<std::vector<Addr>> sets(num_sets);
    std::vector<bool> hits;
    hits.reserve(stream.size());
    for (const LlcRef &r : stream) {
        auto &lru = sets[r.blockAddr % num_sets];
        const auto it = std::find(lru.begin(), lru.end(), r.blockAddr);
        const bool hit = it != lru.end();
        if (hit)
            lru.erase(it);
        lru.insert(lru.begin(), r.blockAddr);
        if (lru.size() > assoc)
            lru.pop_back();
        hits.push_back(hit);
    }
    return hits;
}

std::vector<std::pair<Check, std::string>>
checkAll(const Evidence &ev)
{
    std::vector<std::pair<Check, std::string>> bad;
    const auto fail = [&bad](Check c, const std::string &msg) {
        bad.emplace_back(c, msg);
    };

    const auto levelChecks = [&](const std::string &where,
                                 const LevelCounts &l) {
        if (l.hits + l.misses != l.accesses)
            fail(Check::HitsPlusMisses,
                 describe(where + " hits+misses", l.hits + l.misses,
                          l.accesses));
        if (l.bypasses > l.misses)
            fail(Check::BypassesWithinMisses,
                 describe(where + " bypasses", l.bypasses, l.misses));
    };
    const auto outcomeChecks = [&](const Outcome &o) {
        levelChecks(o.label + " L1", o.l1);
        levelChecks(o.label + " L2", o.l2);
        levelChecks(o.label + " LLC", o.llc);
        for (std::size_t c = 0; c < o.instructions.size(); ++c) {
            const double ipc = o.cycles[c]
                ? static_cast<double>(o.instructions[c]) /
                    static_cast<double>(o.cycles[c])
                : 0.0;
            if (!(ipc > 0 && ipc <= ev.issueWidth)) {
                std::ostringstream os;
                os << o.label << " core " << c << " ipc " << ipc
                   << " outside (0, " << ev.issueWidth << "]";
                fail(Check::IpcInRange, os.str());
            }
            if (o.instructions[c] < ev.measureBudget)
                fail(Check::MeasuredBudget,
                     describe(o.label + " core " + std::to_string(c) +
                                  " measured instructions",
                              o.instructions[c], ev.measureBudget));
        }
    };

    if (ev.reps.empty())
        fail(Check::Repeatable, "no repetition completed");
    for (const auto &rep : ev.reps)
        for (const Outcome &o : rep)
            outcomeChecks(o);
    for (const Outcome &o : ev.serialCells)
        outcomeChecks(o);

    for (std::size_t i = 1; i < ev.reps.size(); ++i)
        if (ev.reps[i] != ev.reps[0])
            fail(Check::Repeatable,
                 "repetition " + std::to_string(i) +
                     " differs from repetition 0");

    if (ev.naiveLruHits.empty() ||
        ev.naiveLruHits != ev.cacheLruHits) {
        std::size_t at = 0;
        while (at < ev.naiveLruHits.size() &&
               at < ev.cacheLruHits.size() &&
               ev.naiveLruHits[at] == ev.cacheLruHits[at])
            ++at;
        fail(Check::NaiveLru,
             "Cache+LruPolicy departs from the list model at LLC "
             "reference " + std::to_string(at) + " of " +
                 std::to_string(ev.naiveLruHits.size()));
    }
    if (ev.optMisses > ev.lruMisses)
        fail(Check::OptimalBound,
             describe("optimal misses above LRU", ev.optMisses,
                      ev.lruMisses));
    if (ev.optMisses > ev.samplerMisses)
        fail(Check::OptimalBound,
             describe("optimal misses above Sampler", ev.optMisses,
                      ev.samplerMisses));

    if (!ev.serialCells.empty()) {
        for (const auto &rep : ev.reps) {
            if (rep.size() != ev.serialCells.size()) {
                fail(Check::SweepMatchesSerial,
                     describe("grid cells", rep.size(),
                              ev.serialCells.size()));
                continue;
            }
            for (std::size_t i = 0; i < rep.size(); ++i)
                if (rep[i] != ev.serialCells[i])
                    fail(Check::SweepMatchesSerial,
                         rep[i].label + " differs from its serial run");
        }
        if (ev.gridErrors != 0)
            fail(Check::SweepComplete,
                 describe("failed grid cells", ev.gridErrors, 0));
        if (ev.manifestCompleted != ev.serialCells.size())
            fail(Check::SweepComplete,
                 describe("cells the manifest lists completed",
                          ev.manifestCompleted, ev.serialCells.size()));
    }
    return bad;
}

} // namespace simbench
