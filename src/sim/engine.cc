#include "sim/engine.hh"

namespace sdbp
{

Engine
makeEngine(PolicyKind kind, const HierarchyConfig &hcfg,
           const CoreConfig &ccfg, const PolicyOptions &opts)
{
    PolicyBundle b = makeBundle(kind, hcfg.llc.numSets, hcfg.llc.assoc,
                                opts);
    Engine e;
    e.dbrb = b.dbrb;
    e.predictor = b.predictor;
    e.faults = b.faultInjector;
    e.system = std::make_unique<System>(hcfg, ccfg,
                                        std::move(b.policy));
    return e;
}

} // namespace sdbp
