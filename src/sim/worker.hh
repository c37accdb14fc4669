/**
 * @file
 * Multi-process sweep fabric (DESIGN.md §16): the worker entry point
 * behind the hidden `--sdbp-worker <manifest>` argv flag, and the
 * coordinator that supervises worker subprocesses from inside
 * runGrid / runMixGrid.
 *
 * With SDBP_WORKERS=N (N > 0) a sweep's coordinator re-execs its own
 * binary N times; each worker claims cells through lease records in
 * the schema-v2 SweepManifest, runs them, and reports metrics back
 * through the manifest.  The coordinator merges completed cells into
 * the same row-major grid the serial loop produces — cells are
 * deterministic, so results are bit-identical to an in-process sweep
 * no matter which worker ran which cell, or how often.
 *
 * Crash taxonomy: a worker that dies by signal or nonzero exit
 * charges only its leased cell (CellError with crashed/signal set);
 * the cell is retried on a fresh worker while lease generations
 * remain within 1 + SDBP_RETRIES.  Stale leases (no heartbeat for
 * SDBP_LEASE_TTL) are reclaimed by sibling workers, and
 * SDBP_CELL_TIMEOUT gains a hard tier: after the cooperative
 * deadline plus a grace period the coordinator SIGKILLs the owning
 * worker.
 */

#ifndef SDBP_SIM_WORKER_HH
#define SDBP_SIM_WORKER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "sim/runner.hh"
#include "sim/sweep_manifest.hh"

namespace sdbp::sweep
{

/**
 * Handle the hidden `--sdbp-worker <manifest>` invocation: must be
 * the first statement of every worker-capable main().  In a worker
 * invocation this runs the claim/run/report loop and never returns
 * (the process exits 0 after draining its claimable cells).  In a
 * normal invocation it records that this binary can host workers —
 * runGrid refuses to spawn subprocesses from binaries that never
 * called it, because a re-exec'd binary without this hook would
 * re-run its whole main instead of acting as a worker.
 */
void maybeWorkerMain(int argc, char **argv);

/** True once maybeWorkerMain() ran in this process. */
bool workerCapable();

/** True inside a worker subprocess (test/telemetry hook). */
bool inWorkerProcess();

/** SDBP_WORKERS (0..1024), default 0 = in-process sweeps. */
unsigned defaultWorkers();

/** SDBP_LEASE_TTL in seconds (1..86400, default 60) as ms: a lease
 *  whose heartbeat is older than this is stale and reclaimable. */
std::uint64_t leaseTtlMs();

/**
 * Deterministic chaos hook SDBP_TEST_CRASH_CELL=<idx>:<mode>, the
 * multi-process mirror of SDBP_TEST_FAIL_CELL: the worker claiming
 * cell <idx> dies with <mode> ∈ abort | segv | hang | exit1 right
 * after persisting its claim.  Parsed eagerly; malformed specs are
 * fatal().  Worker-mode only — in-process sweeps ignore it.
 */
struct ChaosSpec
{
    bool enabled = false;
    std::size_t index = 0;
    std::string mode;
};
ChaosSpec chaosSpec();

/** Scalar round-trip of a RunConfig so workers are self-contained
 *  (the blob travels in the manifest's top-level "config" field).
 *  Absent keys keep their defaults and unknown keys are ignored, so
 *  manifests written by older builds still load. */
obs::JsonValue runConfigToJson(const RunConfig &cfg);
RunConfig runConfigFromJson(const obs::JsonValue &v);

/** Outcome of one coordinator supervision run. */
struct FabricResult
{
    /** Workers could not be spawned at all; caller should fall back
     *  to the in-process sweep path. */
    bool fallback = false;
    /** Failed cells, in row-major cell order. */
    std::vector<CellError> errors;
    /** Cells skipped because shutdown was requested. */
    std::size_t skipped = 0;
};

/**
 * Coordinator: spawn up to @p workers subprocesses of this binary
 * against @p manifest (which must have shared access enabled and a
 * flushed on-disk state), supervise them with waitpid, and return
 * once every cell is terminal.  @p on_cell_done fires once per cell
 * reaching a terminal state (argument: failed), for progress
 * accounting.  @p runs / @p policies label errors.
 */
FabricResult superviseWorkers(
    SweepManifest &manifest, const std::vector<std::string> &runs,
    const std::vector<std::string> &policies, unsigned workers,
    unsigned retries, const std::function<void(bool)> &on_cell_done);

} // namespace sdbp::sweep

#endif // SDBP_SIM_WORKER_HH
