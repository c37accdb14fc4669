/**
 * @file
 * The hot-path contract annotation (DESIGN.md §13).
 *
 * SDBP_HOT_PATH marks a function as part of the per-access fast
 * path: the code that runs for every simulated instruction and that
 * the engine (DESIGN.md §12) promises is
 *
 *   - free of virtual dispatch beyond the LLC's policy and predictor
 *     interfaces,
 *   - free of heap allocation and deallocation,
 *   - free of throw statements,
 *   - free of locks and non-relaxed atomics,
 *   - free of I/O,
 *
 * amortized cold branches excepted (each such exception is recorded
 * in tools/sdbp_lint/baseline.json with a justification).
 *
 * The contract is enforced by two tools, not by the compiler:
 *
 *   tools/sdbp_lint/run.py   walks the call graph from every
 *                            annotated function and rejects
 *                            violations at the source level;
 *   tools/hotpath_audit.py   disassembles the Release binaries and
 *                            proves what the compiler delivered:
 *                            no operator new / __cxa_throw /
 *                            pthread_mutex references, and no
 *                            indirect calls beyond the counted LLC
 *                            dispatch sites.
 *
 * The macro expands to GCC/Clang's `hot` attribute, so annotating a
 * function also nudges the optimizer to favor it in layout and
 * inlining decisions; under other compilers it expands to nothing
 * and remains a pure source-level marker.
 */

#ifndef SDBP_UTIL_HOTPATH_HH
#define SDBP_UTIL_HOTPATH_HH

#if defined(__GNUC__) || defined(__clang__)
#define SDBP_HOT_PATH __attribute__((hot))
/**
 * Forced inlining for functions whose only observable effect is
 * __builtin_prefetch.  GCC's pure-const analysis does not count a
 * prefetch as a side effect: an outlined helper that merely computes
 * an address and prefetches it is classified as pure, and every call
 * to a void pure function is then deleted as dead code — silently
 * stripping the whole software-prefetch chain from the binary.
 * Forcing the chain inline lands the builtins inside callers that
 * have real side effects, where they survive.
 */
#define SDBP_ALWAYS_INLINE __attribute__((always_inline)) inline
#else
#define SDBP_HOT_PATH
#define SDBP_ALWAYS_INLINE inline
#endif

#endif // SDBP_UTIL_HOTPATH_HH
