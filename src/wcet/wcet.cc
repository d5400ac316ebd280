#include "wcet.hh"

#include "common/logging.hh"
#include "rtosunit/rtosunit.hh"

namespace rtu {

namespace {

/** Worst-case stall of GET_HW_SCHED: a timer decrement re-sort, a
 *  full list of expiring transfers, and the ready-list re-sort. */
unsigned
worstGetHwSchedStall(unsigned list_slots)
{
    return 3 * list_slots;
}

/** Worst-case SWITCH_RF stall: the full store drain. */
constexpr unsigned kWorstSwitchRfStall = kCtxWords;

/** Depth cap for the recursive walk. Budgeted backward branches
 *  recurse once per iteration, so this must clear the largest useful
 *  inferred bound plus call/branch nesting; it only exists to catch
 *  runaway recursion on broken inputs. */
constexpr unsigned kMaxDepth = 512;

} // namespace

WcetAnalyzer::WcetAnalyzer(const Program &program,
                           const RtosUnitConfig &unit,
                           const Cv32e40pParams &params)
    : program_(program), unit_(unit), params_(params), cfg_(program)
{
}

void
WcetAnalyzer::reportOnce(const std::string &code, Addr pc,
                         const std::string &message)
{
    if (!reported_.insert({code, pc}).second)
        return;
    diags_.push_back(diagAt(cfg_, Severity::kError, code, pc, message));
}

void
WcetAnalyzer::setFacts(AbsintFacts facts)
{
    rtu_assert(functionCache_.empty(),
               "setFacts() after analysis started");
    facts_ = std::move(facts);
}

std::optional<unsigned>
WcetAnalyzer::backEdgeBudget(Addr pc) const
{
    std::optional<unsigned> budget;
    if (cfg_.hasLoopBound(pc))
        budget = cfg_.loopBound(pc);
    auto it = facts_.inferredBounds.find(pc);
    if (it != facts_.inferredBounds.end() &&
        (!budget || it->second < *budget))
        budget = it->second;
    return budget;
}

WcetAnalyzer::PathCost
WcetAnalyzer::costOf(const DecodedInsn &insn) const
{
    PathCost c;
    c.insns = 1;
    switch (classOf(insn.op)) {
      case InsnClass::kJump:
        c.cycles = params_.jumpCycles;
        break;
      case InsnClass::kBranch:
        c.cycles = params_.takenBranchCycles;  // pessimistic
        break;
      case InsnClass::kDiv:
        c.cycles = params_.divBaseCycles + 32;
        break;
      case InsnClass::kLoad:
        // Pessimistic load-use assumption.
        c.cycles = 1 + params_.loadUseStall;
        c.memOps = 1;
        break;
      case InsnClass::kStore:
        c.cycles = 1;
        c.memOps = 1;
        break;
      case InsnClass::kSystem:
        c.cycles = insn.op == Op::kMret ? params_.mretCycles : 1;
        break;
      case InsnClass::kCustom:
        c.cycles = 1;
        if (insn.op == Op::kGetHwSched)
            c.cycles += worstGetHwSchedStall(unit_.listSlots);
        else if (insn.op == Op::kSwitchRf && unit_.store)
            c.cycles += kWorstSwitchRfStall;
        break;
      default:
        c.cycles = 1;
        break;
    }
    return c;
}

WcetAnalyzer::PathCost
WcetAnalyzer::worstFrom(Addr pc, std::map<Addr, unsigned> budgets,
                        unsigned depth)
{
    rtu_assert(depth < kMaxDepth, "WCET recursion too deep at 0x%08x",
               pc);
    PathCost total;
    while (true) {
        rtu_assert(cfg_.contains(pc),
                   "WCET walk left the text section at 0x%08x", pc);
        const BasicBlock *bb = cfg_.blockContaining(pc);

        // Straight-line run up to the block's last instruction. `wfi`
        // parks the core: the idle task is never an ISR path, so the
        // walk ends without charging it.
        while (pc != bb->termPc()) {
            const DecodedInsn &d = cfg_.insnAt(pc);
            if (d.op == Op::kWfi)
                return total;
            total = total.plus(costOf(d));
            pc += 4;
        }

        const DecodedInsn &insn = cfg_.insnAt(pc);
        const PathCost step = costOf(insn);

        switch (bb->term) {
          case TermKind::kTrapReturn:
          case TermKind::kReturn:
            return total.plus(step);

          case TermKind::kCall: {
            // Call: add the callee's worst path, continue after.
            total = total.plus(step);
            const Addr target = bb->takenTarget;
            auto cached = functionCache_.find(target);
            PathCost callee;
            if (cached != functionCache_.end()) {
                callee = cached->second;
            } else {
                callee = worstFrom(target, {}, depth + 1);
                functionCache_[target] = callee;
            }
            total = total.plus(callee);
            pc += 4;
            continue;
          }

          case TermKind::kJump: {
            const Addr target = bb->takenTarget;
            // Bounded back edges consume loop budget: the tighter of
            // the manual annotation and the inferred bound.
            if (const auto budget = backEdgeBudget(pc)) {
                // The bound caps how often this back edge may
                // execute (see Assembler::loopBound).
                auto [it, inserted] = budgets.emplace(pc, *budget);
                (void)inserted;
                if (it->second == 0) {
                    // Budget exhausted: this continuation is
                    // infeasible; the bounded-exit path (explored at
                    // the loop's conditional branch) dominates.
                    return total;
                }
                --it->second;
                total = total.plus(step);
                pc = target;
                continue;
            }
            if (target <= pc) {
                // Unannotated backward jumps only occur on terminal
                // error paths (k_fatal_sync's self-loop); they end
                // the walk rather than bounding the WCET.
                return total;
            }
            total = total.plus(step);
            pc = target;
            continue;
          }

          case TermKind::kBranch: {
            // Explore the feasible successors; keep the worst.
            total = total.plus(step);
            const Addr taken = bb->takenTarget;
            const bool takenDead = facts_.infeasibleTaken.count(pc) > 0;
            const bool fallDead = facts_.infeasibleFall.count(pc) > 0;
            if (takenDead && fallDead)
                return total;  // unreachable terminator
            const auto budget = backEdgeBudget(pc);
            if (taken <= pc && !budget) {
                // Formerly a hard assert: an unannotated backward
                // branch makes the loop unbounded. Report it and
                // treat the taken edge as infeasible so callers see
                // a result plus a diagnostic instead of an abort.
                if (!takenDead) {
                    reportOnce("wcet-unannotated-back-edge", pc,
                               "unannotated backward branch: taken "
                               "edge treated as infeasible, WCET is "
                               "a lower bound");
                }
                return total.plus(
                    worstFrom(pc + 4, budgets, depth + 1));
            }
            if (taken <= pc) {
                // Budgeted backward branch (a bottom-tested loop):
                // the taken edge re-enters the loop and consumes
                // budget; the fall-through is the exit.
                auto [it, inserted] = budgets.emplace(pc, *budget);
                (void)inserted;
                PathCost best;
                if (!takenDead && it->second > 0) {
                    std::map<Addr, unsigned> next = budgets;
                    --next[pc];
                    best = worstFrom(taken, std::move(next),
                                     depth + 1);
                }
                if (!fallDead)
                    best.takeMax(worstFrom(pc + 4, budgets,
                                           depth + 1));
                return total.plus(best);
            }
            PathCost best;
            if (!takenDead)
                best = worstFrom(taken, budgets, depth + 1);
            if (!fallDead)
                best.takeMax(worstFrom(pc + 4, budgets, depth + 1));
            return total.plus(best);
          }

          case TermKind::kIndirect:
            // Formerly a panic: generated kernels never emit these.
            reportOnce("wcet-indirect-jump", pc,
                       "indirect jump has no static successor: the "
                       "walk ends here, WCET is a lower bound");
            return total;

          case TermKind::kFallOffText:
            if (insn.op == Op::kWfi)
                return total;
            return total.plus(step);

          case TermKind::kFallThrough:
            // Block split by a label: plain instruction.
            if (insn.op == Op::kWfi)
                return total;
            total = total.plus(step);
            pc += 4;
            continue;
        }
    }
}

WcetResult
WcetAnalyzer::analyzeIsr()
{
    const PathCost sw = worstFrom(program_.symbol("k_isr"), {}, 0);

    WcetResult res;
    res.pathInsns = sw.insns;
    res.pathMemOps = sw.memOps;
    res.softwareCycles = params_.trapEntryCycles + sw.cycles;

    // Decoupled hardware path: the FSMs transfer up to 31 + 31 words
    // on the shared port, stalled once per core memory access, and
    // mret cannot complete earlier (paper Section 6.2).
    std::uint64_t fsm_words = 0;
    if (unit_.store)
        fsm_words += kCtxWords;
    if (unit_.load || unit_.preload)
        fsm_words += kCtxWords;
    if (fsm_words > 0) {
        res.hardwareCycles = params_.trapEntryCycles + fsm_words +
                             sw.memOps + params_.mretCycles;
    }
    res.totalCycles = std::max(res.softwareCycles, res.hardwareCycles);
    return res;
}

} // namespace rtu
