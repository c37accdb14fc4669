/**
 * @file
 * Host hardware-counter profiling via Linux perf_event_open: cycles,
 * instructions, LLC misses and branch misses of the *calling thread*,
 * read as one event group.  Degrades to an explicit no-op wherever
 * the syscall is unavailable or denied (non-Linux builds, CI
 * containers, perf_event_paranoid lockdown): available() is false,
 * samples report valid=false, and start/stop/sample stay callable.
 *
 * Used at cell/phase granularity by the telemetry layer (obs spans +
 * run artifacts) — never per simulated access, so the hot path
 * does not see a single counter read.
 */

#ifndef SDBP_UTIL_PERF_COUNTERS_HH
#define SDBP_UTIL_PERF_COUNTERS_HH

#include <cstdint>

namespace sdbp::util
{

class PerfCounters
{
  public:
    /** Counter deltas between start() and sample()/stop(). */
    struct Sample
    {
        bool valid = false;
        std::uint64_t cycles = 0;
        std::uint64_t instructions = 0;
        std::uint64_t llcMisses = 0;
        std::uint64_t branchMisses = 0;

        /** Host instructions per host cycle. */
        double hostIpc() const
        {
            return cycles > 0 ? static_cast<double>(instructions) /
                       static_cast<double>(cycles)
                              : 0;
        }
    };

    /** Opens the event group; silently unavailable on failure. */
    PerfCounters();
    ~PerfCounters();

    PerfCounters(const PerfCounters &) = delete;
    PerfCounters &operator=(const PerfCounters &) = delete;

    /** True when the counters opened and can be read. */
    bool available() const { return fd_ >= 0; }

    /** Reset the group to zero and start counting. */
    void start();
    /** Stop counting (the accumulated deltas stay readable). */
    void stop();
    /** Deltas since the last start(); valid=false when unavailable. */
    Sample sample() const;

  private:
    int fd_ = -1;        ///< group leader (cycles); -1 = unavailable
    int fdInst_ = -1;
    int fdLlc_ = -1;
    int fdBranch_ = -1;
    std::uint64_t idCycles_ = 0;
    std::uint64_t idInst_ = 0;
    std::uint64_t idLlc_ = 0;
    std::uint64_t idBranch_ = 0;
};

/**
 * Process-wide gate for host-counter collection: SDBP_PERF (default
 * 1).  The counters no-op gracefully where unsupported, so the gate
 * exists to rule out even the fd setup / ioctl cost when unwanted.
 */
bool hostCountersEnabled();

} // namespace sdbp::util

#endif // SDBP_UTIL_PERF_COUNTERS_HH
