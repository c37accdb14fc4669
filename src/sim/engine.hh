/**
 * @file
 * The engine: maps a PolicyKind onto the simulated machine.  Every
 * kind runs on System (= BasicSystem<ReplacementPolicy>): the
 * private L1/L2 levels are bound to LruPolicy at compile time, and
 * the LLC policy stack built by makeBundle plugs in through the
 * virtual ReplacementPolicy / DeadBlockPredictor interfaces — the
 * same extension point user-supplied policies use (DESIGN.md §12).
 */

#ifndef SDBP_SIM_ENGINE_HH
#define SDBP_SIM_ENGINE_HH

#include <memory>

#include "cpu/system.hh"
#include "sim/policy_factory.hh"

namespace sdbp
{

/**
 * A ready-to-run System plus typed views into its LLC policy stack
 * (same contract as PolicyBundle's views: non-owning, nullptr when
 * the stack has no such part).
 */
struct Engine
{
    std::unique_ptr<SystemBase> system;
    /** The DBRB wrapper, when `kind` is a DBRB technique. */
    DeadBlockPolicyBase *dbrb = nullptr;
    /** The wrapped dead block predictor, when DBRB. */
    DeadBlockPredictor *predictor = nullptr;
    /** The fault injector, when fault injection is configured. */
    const fault::FaultInjector *faults = nullptr;
};

/** Build the System for @p kind. */
Engine makeEngine(PolicyKind kind, const HierarchyConfig &hcfg,
                  const CoreConfig &ccfg,
                  const PolicyOptions &opts = {});

} // namespace sdbp

#endif // SDBP_SIM_ENGINE_HH
