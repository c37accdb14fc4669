/**
 * @file
 * The skewed prediction table of Sec. III-E: several banks of
 * saturating counters, each indexed by a different hash of the
 * signature; the prediction confidence is the sum of the counters.
 */

#ifndef SDBP_CORE_SKEWED_TABLE_HH
#define SDBP_CORE_SKEWED_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/bitops.hh"
#include "util/budget.hh"
#include "util/hash.hh"
#include "util/hotpath.hh"

namespace sdbp
{

namespace obs
{
class StatRegistry;
} // namespace obs

namespace fault
{
class FaultInjector;
} // namespace fault

struct SkewedTableConfig
{
    /** Number of banks (3 in the paper; 1 = conventional table). */
    unsigned numTables = 3;
    /** log2 entries per bank (12 -> 4096 entries). */
    unsigned indexBits = 12;
    /** Counter width (2 in the paper). */
    unsigned counterBits = 2;
    /** Sum-of-counters confidence threshold (8 in the paper). */
    unsigned threshold = 8;

    /** Largest value one counter can hold. */
    constexpr unsigned
    counterMax() const
    {
        return budget::SaturatingCounterSpec{counterBits}.maxValue();
    }

    /** All banks as one uniform table of saturating counters. */
    constexpr budget::TableSpec
    storageSpec() const
    {
        return {std::uint64_t(numTables) << indexBits, counterBits};
    }

    constexpr std::uint64_t
    storageBits() const
    {
        return storageSpec().total().count();
    }
};

/**
 * Skewed table of 2-bit (configurable) saturating counters.
 *
 * With three 2-bit banks the confidence has ten levels (0..9); the
 * paper finds a threshold of eight gives the best accuracy.
 */
class SkewedTable
{
  public:
    explicit SkewedTable(const SkewedTableConfig &cfg = {});

    /** Train toward "dead" for this signature. */
    SDBP_HOT_PATH void increment(std::uint64_t signature);
    /** Train toward "live" for this signature. */
    SDBP_HOT_PATH void decrement(std::uint64_t signature);

    /** Summed confidence for a signature. */
    SDBP_HOT_PATH unsigned confidence(std::uint64_t signature) const;

    /** Predicted dead iff confidence >= threshold. */
    SDBP_HOT_PATH bool
    predict(std::uint64_t signature) const
    {
        return confidence(signature) >= cfg_.threshold;
    }

    /** Highest reachable confidence (numTables * counterMax). */
    unsigned maxConfidence() const;

    /** Total state in bits (delegates to the config's constexpr
     *  spec, so runtime and compile-time accounting agree). */
    std::uint64_t storageBits() const;

    const SkewedTableConfig &config() const { return cfg_; }

    /** Reset all counters to zero. */
    void reset();

    /**
     * Register "<prefix>.storage_bits" plus occupancy gauges: the
     * fraction of counters that are nonzero and the fraction pinned
     * at saturation.  Gauges scan the banks only at snapshot time.
     */
    void registerStats(obs::StatRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Panic (via SDBP_DCHECK) if any counter exceeds its saturation
     * maximum or the bank geometry drifted from the config.
     */
    void auditInvariants() const;

    /**
     * Expose every bank's saturating counters as one fault target
     * "<prefix>.counter" (counterBits flippable bits per counter, so
     * a flipped counter still satisfies the saturation audit).
     */
    void registerFaultTargets(fault::FaultInjector &injector,
                              const std::string &prefix);

  private:
    SDBP_HOT_PATH std::size_t
    entryIndex(unsigned table, std::uint64_t signature) const
    {
        return static_cast<std::size_t>(table) << cfg_.indexBits
            | skewHash(signature, table, cfg_.indexBits);
    }

    SkewedTableConfig cfg_;
    unsigned counterMax_;
    std::vector<std::uint8_t> counters_;
};

} // namespace sdbp

#endif // SDBP_CORE_SKEWED_TABLE_HH
