/**
 * @file
 * Static worst-case execution time analysis of the generated ISR
 * (paper Section 6.2, CV32E40P only).
 *
 * Method, mechanized from the paper's description: walk the ISR's
 * control flow assuming the maximum latency of every instruction
 * (taken branches, worst-case iterative divides, load-use stalls),
 * bound every loop with the kernel generator's annotations (8 delayed
 * tasks, 8-entry lists), and account for RTOSUnit FSM latency and the
 * memory-port stalls core accesses inflict on it. The reported WCET
 * is the maximum of the software path and the decoupled hardware
 * path, as in the paper.
 *
 * The walk runs over the shared CFG (analyze/cfg.hh), the same edge
 * construction the lint passes verify. Unsound inputs — unannotated
 * backward branches, indirect jumps — no longer abort the process:
 * they are reported through diagnostics() and the offending edge is
 * treated as infeasible, so exploration flows (src/explore) can
 * surface the problem instead of dying.
 */

#ifndef RTU_WCET_WCET_HH
#define RTU_WCET_WCET_HH

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analyze/absint/facts.hh"
#include "analyze/cfg.hh"
#include "analyze/diag.hh"
#include "asm/program.hh"
#include "cores/cv32e40p.hh"
#include "rtosunit/config.hh"

namespace rtu {

struct WcetResult
{
    std::uint64_t totalCycles = 0;     ///< the reported WCET
    std::uint64_t softwareCycles = 0;  ///< worst ISR instruction path
    std::uint64_t hardwareCycles = 0;  ///< worst FSM path incl. stalls
    std::uint64_t pathInsns = 0;       ///< instructions on that path
    std::uint64_t pathMemOps = 0;      ///< loads/stores on that path
};

class WcetAnalyzer
{
  public:
    WcetAnalyzer(const Program &program, const RtosUnitConfig &unit,
                 const Cv32e40pParams &params = {});

    /** Analyze from interrupt entry ("k_isr") to mret completion. */
    WcetResult analyzeIsr();

    /**
     * Apply abstract-interpretation facts (deriveAbsintFacts): every
     * back edge is budgeted with the tighter of its annotation and
     * the inferred bound (inferred bounds also unlock loops with no
     * annotation at all, including backward conditional branches),
     * and statically infeasible branch edges are excluded from the
     * longest-path search. Must be called before the first analyze;
     * with no facts the analysis is exactly the annotation-only walk.
     */
    void setFacts(AbsintFacts facts);

    /**
     * Soundness problems found while walking (accumulated across
     * analyze calls): "wcet-unannotated-back-edge" where a backward
     * branch had no loopBounds annotation (its taken edge was treated
     * as infeasible) and "wcet-indirect-jump" where a non-return jalr
     * ended the walk. Empty for every generated kernel.
     */
    const std::vector<Diagnostic> &diagnostics() const
    {
        return diags_;
    }

  private:
    struct PathCost
    {
        std::uint64_t cycles = 0;
        std::uint64_t insns = 0;
        std::uint64_t memOps = 0;

        void
        takeMax(const PathCost &other)
        {
            if (other.cycles > cycles)
                *this = other;
        }

        PathCost
        plus(const PathCost &other) const
        {
            return {cycles + other.cycles, insns + other.insns,
                    memOps + other.memOps};
        }
    };

    /** Worst path from @p pc to a terminator (mret or ret). */
    PathCost worstFrom(Addr pc, std::map<Addr, unsigned> budgets,
                       unsigned depth);

    PathCost costOf(const DecodedInsn &insn) const;
    void reportOnce(const std::string &code, Addr pc,
                    const std::string &message);

    /** Tightest budget for the back edge at @p pc: min(annotation,
     *  inferred), or nullopt when neither exists. */
    std::optional<unsigned> backEdgeBudget(Addr pc) const;

    const Program &program_;
    RtosUnitConfig unit_;
    Cv32e40pParams params_;
    Cfg cfg_;
    AbsintFacts facts_;
    std::map<Addr, PathCost> functionCache_;
    std::vector<Diagnostic> diags_;
    std::set<std::pair<std::string, Addr>> reported_;
};

} // namespace rtu

#endif // RTU_WCET_WCET_HH
