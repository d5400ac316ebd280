/**
 * @file
 * Static context-integrity verifier over generated guest programs.
 *
 * Four pass families over the shared CFG (cfg.hh):
 *
 *  1. context integrity — on every path from trap entry ("k_isr") to
 *     `mret`, every architectural register the path clobbers is saved
 *     first (by software to the frame, or by the configuration's
 *     hardware store) and every context register is reinstated before
 *     `mret` (software reload or hardware restore). Cross-checked
 *     against the active RtosUnitConfig: load omission (O) is only
 *     accepted when the omitted loads are statically dead, i.e. the
 *     ISR software never touches the application register bank.
 *  2. ABI / callee-saved — per function: s0..s11 and ra preserved on
 *     every path reaching a `ret` (kernel convention: t/a registers
 *     and ra are caller-saved, see src/kernel/kernel.cc).
 *  3. stack discipline — SP balanced across joining paths and zero at
 *     `ret`; no access below SP.
 *  4. CFG soundness — invalid encodings, unreachable blocks,
 *     fall-through off textEnd() or across a function boundary,
 *     ISR-reachable backward edges lacking a loopBounds annotation
 *     (which would make the WCET analysis unsound), trap handlers
 *     that cannot reach `mret`, indirect jumps on the ISR path.
 *
 * A branch, jump or call whose target lies outside text leaves the
 * CFG open; lintProgram() then reports each such transfer
 * ("cfg-target-outside-text") and runs no pass.
 *
 * Passes 1-3 are policies on one path walker (walker.hh): pass 1 walks
 * interprocedurally from k_isr with a return stack, passes 2-3 walk
 * each function on its own. A walk that exhausts the shared state
 * budget stops and warns once ("lint-budget-exceeded").
 *
 * The passes never abort on a broken program: every violation is a
 * Diagnostic (diag.hh). `rtu_lint` runs them over the full generated
 * kernel x workload x RtosUnitConfig matrix as a lint gate.
 */

#ifndef RTU_ANALYZE_LINTER_HH
#define RTU_ANALYZE_LINTER_HH

#include <functional>
#include <string>
#include <vector>

#include "asm/program.hh"
#include "cfg.hh"
#include "diag.hh"
#include "rtosunit/config.hh"

namespace rtu {

struct LintOptions
{
    /**
     * Run the abstract-interpretation pass family (pass 5): inferred
     * loop bounds cross-checked against annotations, whole-program
     * worst-case stack usage vs. the generated region capacities, and
     * infeasible-branch detection. Off by default: it costs a full
     * fixpoint per program.
     */
    bool absint = false;
    /** With absint: also flag annotations that are sound but looser
     *  than the inferred bound ("loop-bound-loose"). */
    bool absintPedanticBounds = false;
};

struct LintResult
{
    std::vector<Diagnostic> diags;

    bool clean() const { return diags.empty(); }
    unsigned errors() const { return countErrors(diags); }
    unsigned warnings() const { return countWarnings(diags); }
};

/** Run every pass over one assembled program. */
LintResult lintProgram(const Program &program,
                       const RtosUnitConfig &unit,
                       const LintOptions &options = {});

// ---- individual passes (exposed for targeted tests) -----------------

/** Pass 1: trap-path save/restore integrity vs. the configuration. */
void checkContextIntegrity(const Cfg &cfg, const RtosUnitConfig &unit,
                           const LintOptions &options,
                           std::vector<Diagnostic> &out);

/** Pass 2: callee-saved registers and ra preserved per function. */
void checkCalleeSaved(const Cfg &cfg, const LintOptions &options,
                      std::vector<Diagnostic> &out);

/** Pass 3: SP balance and no access below SP, per function. */
void checkStackDiscipline(const Cfg &cfg, const LintOptions &options,
                          std::vector<Diagnostic> &out);

/** Pass 4: reachability, terminators, annotation coverage. */
void checkCfgSoundness(const Cfg &cfg, const LintOptions &options,
                       std::vector<Diagnostic> &out);

/** Pass 5: abstract interpretation — loop-bound cross-check and
 *  worst-case stack usage (see src/analyze/absint). */
void checkAbsint(const Program &program, const LintOptions &options,
                 std::vector<Diagnostic> &out);

// ---- generated-program matrix ---------------------------------------

/** One kernel image of the generated matrix. */
struct LintPoint
{
    RtosUnitConfig unit;
    std::string workload;
    Program program;
};

/**
 * Enumerate every generated program the simulator can run: all twelve
 * paper configurations (plus the +HS points when @p include_hwsync)
 * crossed with the standard workload suite, built exactly as the
 * harness builds them (workload-declared external-IRQ path included).
 */
void forEachGeneratedProgram(
    const std::function<void(const LintPoint &)> &fn,
    bool include_hwsync = true);

} // namespace rtu

#endif // RTU_ANALYZE_LINTER_HH
