/**
 * @file
 * Whole-program worst-case stack usage (WCSU).
 *
 * Composes per-function stack depths over the call graph: each
 * function is one PathWalker walk (analyze/walker.hh) over the shared
 * SP lattice (entry-relative delta, absolute after an `la sp,
 * <region>_top` rebase, or unknown after a frame switch) that charges
 * callee depths at every call site and tail jump. The result is, per
 * task entry function, the worst number of bytes ever live below its
 * entry stack pointer -- including the
 * ISR add-on (the trap handler's own entry-relative depth, which
 * lands on whatever stack the interrupted task was running on) -- and
 * per stack region, the worst absolute usage reached through rebases
 * (the ISR stack under the store-to-context configurations, plus
 * boot).
 *
 * Consumers:
 *  - the linter compares usage against the generated region
 *    capacities ("stack-overflow-risk");
 *  - recursion makes depths unbounded and is reported as
 *    "wcsu-recursion".
 */

#ifndef RTU_ANALYZE_ABSINT_WCSU_HH
#define RTU_ANALYZE_ABSINT_WCSU_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/cfg.hh"
#include "analyze/diag.hh"
#include "analyze/walker.hh"

namespace rtu {

class WcsuAnalyzer
{
  public:
    explicit WcsuAnalyzer(const Cfg &cfg);
    WcsuAnalyzer(const WcsuAnalyzer &) = delete;
    WcsuAnalyzer &operator=(const WcsuAnalyzer &) = delete;

    /** Analyze every declared function. Call once. */
    void run();

    /** False when the walk exhausted kWalkStateBudget; results are
     *  then partial and the overflow check degrades to a warning. */
    bool converged() const { return !walker_.exhausted(); }

    /**
     * Worst bytes live below the entry stack pointer of @p fn,
     * including everything it calls. 0 for unknown functions.
     */
    unsigned entryDepth(const std::string &fn) const;

    /**
     * Bytes every task stack must reserve on top of the task's own
     * depth: the trap handler's entry-relative depth (its frame lands
     * on the interrupted stack) plus any depth consumed below an
     * unresolvable stack-pointer rebase.
     */
    unsigned isrAddOn() const;

    /** A generated stack region ("k_stack_3", "k_isr_stack"). */
    struct StackRegion
    {
        std::string name;
        Addr base = 0;
        Addr top = 0;  ///< address of the <name>_top word

        unsigned capacity() const
        {
            return static_cast<unsigned>(top - base);
        }
    };
    const std::vector<StackRegion> &stackRegions() const
    {
        return regions_;
    }

    /** Worst absolute usage per region reached through `la sp`
     *  rebases (bytes below the region top). */
    const std::map<std::string, unsigned> &regionUsage() const
    {
        return regionUsage_;
    }

    /** Structural findings from the walk (recursion, budget). */
    const std::vector<Diagnostic> &diags() const { return diags_; }

    /**
     * Compare every task's worst depth (entry depth of its
     * k_task_* function plus the ISR add-on) against the smallest
     * task-stack capacity, and rebase usage against each region's
     * capacity; append "stack-overflow-risk" errors to @p out.
     */
    void checkOverflow(std::vector<Diagnostic> &out) const;

  private:
    struct FnSummary
    {
        unsigned depth = 0;  ///< entry-relative worst depth
        bool done = false;
    };

    class FunctionPolicy;

    unsigned depthOf(Addr entry);
    void touch(const SpValue &st, std::int64_t extra, unsigned &depth);

    const Cfg &cfg_;
    const Program &program_;

    std::vector<StackRegion> regions_;
    std::map<Addr, FnSummary> summaries_;
    std::set<Addr> inProgress_;
    std::map<std::string, unsigned> regionUsage_;
    unsigned unknownExtra_ = 0;
    std::vector<Diagnostic> diags_;
    PathWalker walker_;  ///< reports into diags_
};

} // namespace rtu

#endif // RTU_ANALYZE_ABSINT_WCSU_HH
