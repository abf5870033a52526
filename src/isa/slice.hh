/**
 * @file
 * Control-relevance analysis (backward slicing) over kernel binaries.
 *
 * The paper's applications average 308 billion dynamic instructions;
 * interpreting every lane of every instruction of a scaled-down suite
 * would still dominate experiment time. The executor therefore offers
 * a *fast* mode that fully evaluates only the instructions whose
 * results can influence control flow (loop counters, compares, the
 * chains feeding them) or that must execute for profiling
 * (instrumentation pseudo-ops), and merely counts the rest at basic-
 * block granularity. This analysis computes that set.
 *
 * The analysis is a conservative, flow-insensitive backward slice:
 * roots are all control instructions, all flag-writing compares, and
 * any registers read by instrumentation ops; any instruction writing
 * a register in the transitive use-set of a root is relevant. If a
 * memory load ends up relevant (data-dependent control flow), the
 * binary is flagged as requiring full execution, since fast mode does
 * not model memory contents.
 */

#ifndef GT_ISA_SLICE_HH
#define GT_ISA_SLICE_HH

#include <vector>

#include "isa/kernel.hh"

namespace gt::isa
{

/** Result of the control-relevance analysis for one binary. */
struct Relevance
{
    /** relevant[block][instr]: must this instruction be evaluated? */
    std::vector<std::vector<bool>> relevant;

    /**
     * True if control flow depends on loaded data, so fast mode is
     * unsound and the executor must fall back to full evaluation.
     */
    bool needsFullExec = false;

    /**
     * True if control flow can differ across hardware threads (the
     * slice reaches r0/r1, the per-thread id registers). When false,
     * every thread of a dispatch executes identically and the
     * executor runs one representative thread, scaling counts by the
     * thread count.
     */
    bool threadDependent = false;

    /** Number of relevant instructions (diagnostics). */
    uint64_t relevantCount = 0;

    /** Total instructions analyzed. */
    uint64_t totalCount = 0;
};

/** Run the analysis on @p bin. */
Relevance analyzeRelevance(const KernelBinary &bin);

/**
 * Result of the gang-safety analysis (see analyzeGangSafety).
 *
 * The executor's gang path interleaves G threads uop by uop, which
 * reorders memory operations *across* threads (each thread's own
 * program order is preserved). That is invisible unless two threads
 * touch the same global address with at least one store involved, so
 * the analysis proves, per kernel, that no such collision can change
 * an observable result:
 *
 *  - route "no-collision": a send's address is affine in the lane's
 *    global id and dispatch arguments only, and no in-gang id delta
 *    can produce the same masked element index;
 *  - route "equal-value": colliding stores are possible (iteration-
 *    skewed addressing), but every colliding store provably writes
 *    the same value — a pure function of the masked element index,
 *    dispatch arguments, and loads from buffers disjoint from every
 *    stored region — so final memory is order-independent.
 *
 * Anything the routes cannot prove at plan time degrades to either a
 * dispatch-time buffer-disjointness check (cross-argument regions) or
 * a verdict of "never gang-safe" (regionForm = false). Local-memory
 * sends are ignored: each gang slot owns a private local block, same
 * as a scalar thread.
 */
struct GangSafety
{
    /**
     * Address region touched through one base argument: the byte
     * interval [args[baseArg] + lo, args[baseArg] + hi) covering
     * every element index the masked addressing can produce.
     */
    struct Region
    {
        uint32_t baseArg = 0;
        int64_t lo = 0;
        int64_t hi = 0;
        bool hasStore = false;
    };

    /**
     * Pair of regions (indices into `regions`) that must not overlap
     * for a dispatch to run ganged; evaluated against the concrete
     * argument values at dispatch time.
     */
    struct Check
    {
        uint32_t a = 0;
        uint32_t b = 0;
    };

    /**
     * True when every global send normalized into a Region and every
     * same-region store pair was proven safe. False means the kernel
     * can never run ganged (order-dependent stores, unprovable
     * addressing, or store footprints wider than the element stride).
     */
    bool regionForm = false;

    std::vector<Region> regions;
    std::vector<Check> checks;

    /**
     * Smallest dispatch SIMD width the no-collision proofs are valid
     * for: a send of width w dispatched at simdWidth < w duplicates
     * global ids across threads, which voids the id-delta scan.
     */
    uint8_t minSimdWidth = 0;

    /** Diagnostics: same-region pairs proven at plan time vs region
     * pairs deferred to dispatch-time disjointness checks. */
    uint32_t provenPairs = 0;
    uint32_t checkedPairs = 0;
};

/** Run the gang-safety analysis on @p bin. */
GangSafety analyzeGangSafety(const KernelBinary &bin);

} // namespace gt::isa

#endif // GT_ISA_SLICE_HH
