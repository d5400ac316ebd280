/**
 * @file
 * Loop-bound inference over the abstract-interpretation results.
 *
 * Enumerates natural loops (back edges whose target dominates the
 * latch within one region), derives a trip-count bound for each from
 * the engine's final states, and cross-checks every manual
 * `Assembler::loopBound()` annotation against the inferred bound:
 *
 *  - "loop-bound-unverified" (warning): the annotation could not be
 *    confirmed — no recognizer matched, or the engine did not
 *    converge;
 *  - "loop-bound-too-tight" (error): the annotation is below the
 *    inferred worst case, so WCET budgets derived from it are
 *    unsound;
 *  - "loop-bound-loose" (pedantic warning): the annotation exceeds
 *    the inferred worst case — sound, but the WCET is pessimistic.
 *
 * Inferred bounds use the same convention as the annotations (maximum
 * back-edge executions per loop entry), so the WCET analyzer can
 * budget whichever is tighter.
 */

#ifndef RTU_ANALYZE_ABSINT_LOOPBOUND_HH
#define RTU_ANALYZE_ABSINT_LOOPBOUND_HH

#include <vector>

#include "analyze/absint/engine.hh"
#include "analyze/absint/facts.hh"
#include "analyze/diag.hh"

namespace rtu {

struct LoopBoundOptions
{
    /** Emit "loop-bound-loose" for annotations above the inferred
     *  worst case (off by default: capacity-style annotations such as
     *  "at most kMaxTasks list nodes" are intentionally loose for any
     *  particular workload). */
    bool pedantic = false;
};

struct LoopBoundResult
{
    /** Back-edge pc -> inferred maximum back-edge executions. */
    std::map<Addr, unsigned> inferred;
    std::vector<Diagnostic> diags;
};

/** Infer bounds and cross-check annotations. The engine must have
 *  been run(). */
LoopBoundResult inferLoopBounds(const AbsintEngine &engine,
                                const LoopBoundOptions &options = {});

/**
 * One-call convenience for WCET/RTA consumers: run the engine over
 * @p program and package the facts it proved (inferred bounds plus
 * infeasible branch edges). Everything is dropped when the fixpoint
 * did not converge, so the result is always safe to apply.
 */
AbsintFacts deriveAbsintFacts(const Program &program);

} // namespace rtu

#endif // RTU_ANALYZE_ABSINT_LOOPBOUND_HH
