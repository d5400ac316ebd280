/**
 * @file
 * Pass 4: CFG soundness and WCET-annotation coverage.
 *
 *  - invalid encodings inside the text section;
 *  - blocks unreachable from any function entry or the trap vector;
 *  - control falling off textEnd();
 *  - fall-through edges that silently cross a function boundary;
 *  - on the ISR-reachable subgraph (what the WCET analyzer walks):
 *    backward edges without a loopBounds annotation (these make the
 *    WCET computation unsound), indirect jumps (no static successor),
 *    and trap handlers that can never reach `mret`.
 */

#include <set>
#include <string>

#include "common/logging.hh"
#include "linter.hh"

namespace rtu {

namespace {

/** Fall-through-style successor (not a taken branch/jump target). */
bool
hasFallEdge(const BasicBlock &bb)
{
    return bb.term == TermKind::kFallThrough ||
           bb.term == TermKind::kBranch || bb.term == TermKind::kCall;
}

} // namespace

void
checkCfgSoundness(const Cfg &cfg, const LintOptions &,
                  std::vector<Diagnostic> &out)
{
    const Program &program = cfg.program();

    // Invalid encodings in text.
    for (Addr pc = program.textBase; pc < program.textEnd(); pc += 4) {
        if (cfg.insnAt(pc).op == Op::kInvalid) {
            out.push_back(diagAt(
                cfg, Severity::kError, "invalid-insn", pc,
                csprintf("text word 0x%08x does not decode",
                         cfg.insnAt(pc).raw)));
        }
    }

    // Reachability from every entry the harness can use.
    std::set<Addr> reachable;
    auto addRoots = [&](Addr entry) {
        for (Addr leader : cfg.reachableFrom(entry, true))
            reachable.insert(leader);
    };
    if (!program.text.empty())
        addRoots(program.textBase);
    for (const auto &[name, range] : program.functions) {
        if (cfg.contains(range.first))
            addRoots(range.first);
    }
    const auto isr = program.symbols.find("k_isr");
    if (isr != program.symbols.end() && cfg.contains(isr->second))
        addRoots(isr->second);
    for (const auto &[leader, bb] : cfg.blocks()) {
        if (reachable.count(leader) == 0) {
            // Unreachable closed terminal loops are the generator's
            // intentional guard stubs (`k_task_end_N`: trap loudly if
            // a task body ever falls through). Anything else is dead
            // code worth flagging.
            if (cfg.isClosedLoop(leader))
                continue;
            out.push_back(diagAt(
                cfg, Severity::kWarning, "cfg-unreachable", leader,
                "block is unreachable from every function entry "
                "and the trap vector"));
        }
    }

    for (const auto &[leader, bb] : cfg.blocks()) {
        // Running off the end of the text section.
        if (bb.term == TermKind::kFallOffText) {
            out.push_back(diagAt(
                cfg, Severity::kError, "cfg-fall-off-text", bb.termPc(),
                "control can run past textEnd(): the block's last "
                "instruction is not a terminator"));
            continue;
        }
        // Fall-through silently entering the next function.
        if (hasFallEdge(bb) && cfg.contains(bb.end)) {
            const std::string from = program.functionAt(bb.termPc());
            const std::string to = program.functionAt(bb.end);
            if (from != to) {
                out.push_back(diagAt(
                    cfg, Severity::kError, "cfg-fall-through-function",
                    bb.termPc(),
                    csprintf("fall-through crosses a function "
                             "boundary (%s -> %s)",
                             from.empty() ? "<none>" : from.c_str(),
                             to.empty() ? "<none>" : to.c_str())));
            }
        }
    }

    // WCET-soundness lints over the subgraph the analyzer walks.
    if (isr == program.symbols.end() || !cfg.contains(isr->second))
        return;
    const std::set<Addr> scope = cfg.reachableFrom(isr->second, true);
    bool sawMret = false;
    for (Addr leader : scope) {
        const BasicBlock &bb = cfg.blockAt(leader);
        const Addr tpc = bb.termPc();
        switch (bb.term) {
          case TermKind::kTrapReturn:
            sawMret = true;
            break;
          case TermKind::kBranch:
            if (bb.takenTarget <= tpc && !cfg.hasLoopBound(tpc)) {
                out.push_back(diagAt(
                    cfg, Severity::kError, "wcet-unannotated-back-edge",
                    tpc,
                    "ISR-reachable backward branch without a "
                    "loopBounds annotation: WCET is unbounded"));
            }
            break;
          case TermKind::kJump:
            if (bb.takenTarget <= tpc && !cfg.hasLoopBound(tpc) &&
                !cfg.isClosedLoop(bb.takenTarget)) {
                out.push_back(diagAt(
                    cfg, Severity::kError, "wcet-unannotated-back-edge",
                    tpc,
                    "ISR-reachable backward jump without a "
                    "loopBounds annotation: WCET is unbounded"));
            }
            break;
          case TermKind::kIndirect:
            out.push_back(diagAt(
                cfg, Severity::kError, "cfg-indirect-jump", tpc,
                "indirect jump on the ISR path has no static "
                "successor; neither the linter nor the WCET "
                "analyzer can follow it"));
            break;
          default:
            break;
        }
    }
    if (!sawMret) {
        out.push_back(diagAt(
            cfg, Severity::kError, "isr-no-mret", isr->second,
            "no mret is reachable from the trap vector: the "
            "handler cannot return to a task"));
    }
}

} // namespace rtu
