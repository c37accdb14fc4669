/**
 * @file
 * Construction of the LLC policies evaluated in the paper
 * (Table V's legend).
 */

#ifndef SDBP_SIM_POLICY_FACTORY_HH
#define SDBP_SIM_POLICY_FACTORY_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/dead_block_policy.hh"
#include "cache/policy.hh"
#include "core/sdbp.hh"

namespace sdbp
{

/** The techniques of Table V. */
enum class PolicyKind
{
    Lru,           ///< baseline LRU
    Random,        ///< baseline random
    Dip,           ///< dynamic insertion policy
    Tadip,         ///< thread-aware DIP (multi-core)
    Rrip,          ///< DRRIP (thread-aware when numThreads > 1)
    Sampler,       ///< DBRB w/ sampling predictor, default LRU
    Tdbp,          ///< DBRB w/ reftrace predictor, default LRU
    Cdbp,          ///< DBRB w/ counting predictor, default LRU
    RandomSampler, ///< DBRB w/ sampling predictor, default random
    RandomCdbp,    ///< DBRB w/ counting predictor, default random
    /**
     * Extension (paper Sec. VIII future work): counting predictor
     * trained through a decoupled sampler, default LRU.
     */
    SamplingCounting,
    TreePlru, ///< tree pseudo-LRU (realistic low-cost LRU substitute)
    Nru,      ///< not-recently-used
    Lip,      ///< LRU-insertion policy (DIP's static component)
    Aip,      ///< DBRB w/ access-interval predictor (Sec. II-A4)
    TimeDbp,  ///< DBRB w/ time-based predictor (Sec. II-A2)
    BurstDbp, ///< DBRB w/ cache-bursts reftrace (Sec. II-A3 / VIII)
};

struct PolicyOptions
{
    /** Number of hardware threads sharing the cache. */
    std::uint32_t numThreads = 1;
    /** Override the sampling predictor configuration (ablations). */
    std::optional<SdbpConfig> sdbp;
    /** DBRB wrapper knobs (bypass on/off etc.). */
    DeadBlockPolicyConfig dbrb;
    std::uint64_t seed = 0xbeef;
};

/**
 * An LLC policy plus typed views into its interesting parts.  The
 * views are non-owning pointers into `policy` (nullptr when the
 * policy has no DBRB wrapper / fault injector), so the runner and
 * tools reach DBRB stats, the predictor and fault accounting without
 * a dynamic_cast.
 */
struct PolicyBundle
{
    std::unique_ptr<ReplacementPolicy> policy;
    /** The DBRB wrapper, when `kind` is a DBRB technique. */
    DeadBlockPolicyBase *dbrb = nullptr;
    /** The wrapped dead block predictor, when DBRB. */
    DeadBlockPredictor *predictor = nullptr;
    /** The fault injector, when fault injection is configured. */
    const fault::FaultInjector *faultInjector = nullptr;
};

/** Display name used in result tables ("Sampler", "TDBP", ...). */
std::string policyName(PolicyKind kind);

/**
 * Parse a policy name as accepted on tool command lines: the display
 * name, case-insensitive, with spaces/dashes/underscores
 * interchangeable ("sampler", "random-cdbp", "Tree-PLRU").
 */
std::optional<PolicyKind> parsePolicyKind(const std::string &name);

/** Every PolicyKind, in declaration order (CLI help text). */
const std::vector<PolicyKind> &allPolicyKinds();

/** Build an LLC policy instance together with its typed views. */
PolicyBundle
makeBundle(PolicyKind kind, std::uint32_t num_sets,
           std::uint32_t assoc, const PolicyOptions &opts = {});

/** Build an LLC policy instance (makeBundle minus the views). */
std::unique_ptr<ReplacementPolicy>
makePolicy(PolicyKind kind, std::uint32_t num_sets, std::uint32_t assoc,
           const PolicyOptions &opts = {});

/**
 * The sampling predictor configuration a policy built by this
 * factory would use: opts.sdbp if set, else the paper default —
 * with llcSets pinned to @p num_sets either way.  Exported so code
 * that builds a predictor directly gets the factory's configuration.
 */
SdbpConfig resolveSdbpConfig(std::uint32_t num_sets,
                             const PolicyOptions &opts);

/** Policies compared in Figs. 4/5 (LRU-default single core). */
const std::vector<PolicyKind> &lruDefaultPolicies();
/** Policies compared in Figs. 7/8 (random-default single core). */
const std::vector<PolicyKind> &randomDefaultPolicies();
/** Policies compared in Fig. 10(a). */
const std::vector<PolicyKind> &multicoreLruPolicies();
/** Policies compared in Fig. 10(b). */
const std::vector<PolicyKind> &multicoreRandomPolicies();

} // namespace sdbp

#endif // SDBP_SIM_POLICY_FACTORY_HH
