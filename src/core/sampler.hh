/**
 * @file
 * The sampler: a small partial-tag array, decoupled from the LLC,
 * that observes accesses to a handful of cache sets and trains the
 * prediction tables (Sec. III-A/B).
 */

#ifndef SDBP_CORE_SAMPLER_HH
#define SDBP_CORE_SAMPLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/skewed_table.hh"
#include "util/budget.hh"
#include "util/hotpath.hh"
#include "util/types.hh"

namespace sdbp
{

namespace fault
{
class FaultInjector;
} // namespace fault

struct SamplerConfig
{
    /** Number of sampled sets (32 in the paper). */
    std::uint32_t numSets = 32;
    /** Sampler associativity (12 beats 16, Sec. III-B3). */
    std::uint32_t assoc = 12;
    /** Width of the partial tags (15 bits suffice, Sec. III-A). */
    unsigned tagBits = 15;
    /** Width of the stored partial PC signature. */
    unsigned pcBits = 15;
    /**
     * Let the sampler's own replacement prefer predicted-dead
     * entries, feeding the predictor its own evictions (Sec. V-B).
     */
    bool learnFromOwnEvictions = true;

    /** LRU stack position width (4 bits for the paper's 12 ways). */
    constexpr unsigned
    lruBits() const
    {
        return budget::widthForValues(assoc);
    }

    /**
     * The whole tag array as one uniform table: tag + PC + predicted
     * bit + valid bit + LRU position per entry (Sec. IV-C).
     */
    constexpr budget::TableSpec
    storageSpec() const
    {
        return {std::uint64_t(numSets) * assoc,
                tagBits + pcBits + 1 + 1 + lruBits()};
    }

    constexpr std::uint64_t
    storageBits() const
    {
        return storageSpec().total().count();
    }
};

/** One sampler entry (Sec. IV-C: tag, PC, prediction, valid, LRU). */
struct SamplerEntry
{
    std::uint16_t tag = 0;
    std::uint16_t pc = 0;
    bool valid = false;
    bool predictedDead = false;
    std::uint8_t lruPos = 0;
};

/**
 * The sampler tag array.  It owns no prediction state itself; it
 * trains a SkewedTable passed into access().
 */
class Sampler
{
  public:
    explicit Sampler(const SamplerConfig &cfg = {});

    /**
     * Record one access to a sampled set and train the table:
     * a tag hit decrements the previous PC's counters (that access
     * was not the last touch); a replacement of a valid entry
     * increments its stored PC's counters (that access was the last
     * touch).
     *
     * @param set sampler set index
     * @param partial_tag partial tag of the accessed block
     * @param pc_sig partial PC signature of the access
     * @param table prediction table to train and consult
     */
    SDBP_HOT_PATH void access(std::uint32_t set,
                              std::uint16_t partial_tag,
                              std::uint16_t pc_sig,
                              SkewedTable &table);

    const SamplerConfig &config() const { return cfg_; }

    const SamplerEntry &
    entry(std::uint32_t set, std::uint32_t way) const
    {
        return entries_[set * cfg_.assoc + way];
    }

    /** Mutable entry access (test hook: corruption injection). */
    SamplerEntry &
    mutableEntry(std::uint32_t set, std::uint32_t way)
    {
        return entries_[set * cfg_.assoc + way];
    }

    /** Total sampler state in bits (Table I accounting; delegates to
     *  the config's constexpr spec). */
    std::uint64_t storageBits() const;

    /**
     * Panic (via SDBP_DCHECK) unless every set's LRU positions form
     * a permutation of 0..assoc-1 and every stored tag/PC fits its
     * configured width.
     */
    void auditInvariants() const;

    /** Training event counts (power accounting / tests). */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t replacements() const { return replacements_; }
    std::uint64_t trainedEvictions() const { return trainedEvictions_; }

    /**
     * Register the training event counters plus a storage_bits gauge
     * under @p prefix ("...sampler" -> "...sampler.hits", ...).
     */
    void registerStats(obs::StatRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Expose the tag array's per-entry fields (tag, PC, LRU
     * position, predicted-dead bit, valid bit — the exact Sec. IV-C
     * storage budget) as fault targets under "<prefix>.tag" etc.
     * LRU flips re-decode the set's corrupted stack into a valid
     * permutation, so auditInvariants() holds at any fault rate.
     */
    void registerFaultTargets(fault::FaultInjector &injector,
                              const std::string &prefix);

    void reset();

  private:
    SDBP_HOT_PATH std::uint32_t pickVictim(std::uint32_t set,
                                           bool *dead_preferred);
    SDBP_HOT_PATH void moveToMru(std::uint32_t set,
                                 std::uint32_t way);
    /** Re-rank a set's (possibly corrupted) LRU positions into a
     *  permutation of 0..assoc-1, stably by (position, way). */
    void renormalizeLru(std::uint32_t set);

    /** Replacement counter driving the periodic LRU fallback. */
    std::uint64_t victimTick_ = 0;

    SamplerConfig cfg_;
    std::vector<SamplerEntry> entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t replacements_ = 0;
    std::uint64_t trainedEvictions_ = 0;
};

} // namespace sdbp

#endif // SDBP_CORE_SAMPLER_HH
