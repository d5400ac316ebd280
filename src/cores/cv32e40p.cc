#include "cv32e40p.hh"

namespace rtu {

unsigned
Cv32e40pCore::costOf(const DecodedInsn &insn, const ExecResult &res) const
{
    switch (insn.cls) {
      case InsnClass::kJump:
        return params_.jumpCycles;
      case InsnClass::kBranch:
        return res.branchTaken ? params_.takenBranchCycles : 1;
      case InsnClass::kDiv:
        // Iterative divider: latency scales with dividend magnitude.
        return params_.divBaseCycles + divOperandBits_;
      case InsnClass::kSystem:
        if (insn.op == Op::kMret)
            return params_.mretCycles;
        return 1;
      default:
        return 1;
    }
}

Cycle
Cv32e40pCore::nextEventAt(Cycle now) const
{
    if (remaining_ > 0) {
        // An abortable stall collapses the moment an interrupt is
        // ready; otherwise the countdown is pure until the tick that
        // retires it (which may fire the mret listener).
        if (abortable_ && exec_.interruptReady())
            return now;
        return now + remaining_ - 1;
    }
    if (sleeping_)
        return sleepEventAt(now);
    return now;
}

void
Cv32e40pCore::skipTo(Cycle now, Cycle target)
{
    const Cycle delta = target - now;
    if (remaining_ > 0) {
        rtu_assert(delta < remaining_, "skip across a stall boundary");
        remaining_ -= static_cast<unsigned>(delta);
        stats_.stallCycles += delta;
        return;
    }
    if (sleeping_)
        stats_.wfiCycles += delta;
}

void
Cv32e40pCore::tick(Cycle now)
{
    if (remaining_ > 0) {
        // CV32E40P kills in-flight multi-cycle ALU operations so the
        // interrupt is taken with constant latency.
        if (abortable_ && exec_.interruptReady()) {
            remaining_ = 0;
            abortable_ = false;
        } else {
            --remaining_;
            ++stats_.stallCycles;
            mretStep(now);
            return;
        }
    }

    if (sleepCycle())
        return;

    if (exec_.interruptReady()) {
        const Word cause = exec_.pendingCause();
        functionalTrap(cause, state_.pc(), now);
        remaining_ = params_.trapEntryCycles - 1;
        abortable_ = false;
        lastWasLoad_ = false;
        return;
    }

    const Addr pc = state_.pc();
    const DecodedInsn insn = fetch(pc);

    if (stalledByUnit(insn)) {
        ++stats_.stallCycles;
        return;
    }

    const InsnClass cls = insn.cls;

    const unsigned extra = loadUseStall(insn);
    divOperandBits_ = dividendBits(insn);

    const ExecResult res = exec_.execute(insn, pc);

    if (res.trap) {
        functionalTrap(res.trapCause, pc, now);
        remaining_ = params_.trapEntryCycles - 1;
        return;
    }

    state_.setPc(res.nextPc);
    ++stats_.instret;

    if (res.memAccess) {
        dmemPort_.claim();
        ++stats_.memOps;
    }

    if (res.isWfi)
        sleeping_ = true;

    const unsigned cost = costOf(insn, res) + extra;
    remaining_ = cost - 1;
    abortable_ =
        remaining_ > 0 && (cls == InsnClass::kDiv || cls == InsnClass::kMul);

    if (insn.op == Op::kMret) {
        // Done when the countdown ends: at once for a one-cycle mret.
        mretIssued(now + remaining_);
        mretStep(now);
    }

    lastWasLoad_ = cls == InsnClass::kLoad;
    lastLoadRd_ = insn.rd;
}

unsigned
Cv32e40pCore::loadUseStall(const DecodedInsn &insn) const
{
    // One bubble when the previous instruction was a load whose
    // destination this instruction consumes.
    if (!lastWasLoad_ || lastLoadRd_ == 0)
        return 0;
    const bool uses = (insn.useRs1 && insn.rs1 == lastLoadRd_) ||
                      (insn.useRs2 && insn.rs2 == lastLoadRd_);
    return uses ? params_.loadUseStall : 0;
}

// Inlined into blockRun(), its one caller: the per-instruction hot path.
[[gnu::always_inline]] inline bool
Cv32e40pCore::blockStep(const DecodedInsn *word, Addr &pc, Cycle &t,
                        Cycle bound, LoopReplay<Cv32e40pTiming> &replay)
{
    // By value: a store may re-decode its own word.
    const DecodedInsn insn = *word;
    const InsnClass cls = insn.cls;
    ++stats_.fetchPredecoded;

    // Load-use hazard from the dynamic previous instruction.
    const unsigned extra = loadUseStall(insn);
    divOperandBits_ = dividendBits(insn);

    // Stop classes were excluded up front, so this cannot trap, sleep
    // or touch the RTOSUnit; a wild jalr target is caught by the
    // coverage check before the next run.
    const ExecResult res = exec_.execute(insn, pc);
    ++stats_.instret;
    replay.retired(pc, word, res.branchTaken);
    pc = res.nextPc;

    if (res.memAccess) {
        dmemPort_.beginCycle();
        dmemPort_.claim();
        ++stats_.memOps;
    }

    lastWasLoad_ = cls == InsnClass::kLoad;
    lastLoadRd_ = insn.rd;

    const unsigned cost = costOf(insn, res) + extra;
    if (t + cost > bound) {
        // The issue cycle and bound-t-1 stall cycles land inside the
        // window; the in-flight remainder resumes per-cycle, exactly
        // the reference state at the bound.
        stats_.stallCycles += bound - t - 1;
        remaining_ = static_cast<unsigned>(cost - (bound - t));
        abortable_ = cls == InsnClass::kDiv || cls == InsnClass::kMul;
        t = bound;
        return true;
    }
    stats_.stallCycles += cost - 1;
    abortable_ =
        cost > 1 && (cls == InsnClass::kDiv || cls == InsnClass::kMul);
    t += cost;
    return false;
}

Cycle
Cv32e40pCore::blockRun(Cycle now, Cycle bound)
{
    if (!blockRunOpen(remaining_ > 0))
        return 0;

    // The run keeps pc in a local and writes it back once, at its exit.
    Cycle t = now;
    Addr pc = state_.pc();
    BlockTally tally(stats_);
    LoopReplay<Cv32e40pTiming> replay(state_, stats_, nullptr);
    auto done = [&](Cycle ran) {
        state_.setPc(pc);
        return ran;
    };
    while (t < bound) {
        // The first word after a taken backward branch is an anchor.
        if (replay.armed())
            t = replay.anchor(*this, pc, t, bound);
        const DecodedInsn *insn = blockWord(pc);
        if (!insn)
            return done(tally.bail(t - now));
        const InsnClass cls = insn->cls;
        const bool horizon = blockStep(insn, pc, t, bound, replay);
        tally.retired(cls);
        if (horizon)
            return done(tally.finish(t - now));
    }
    return done(tally.finish(t - now));
}

} // namespace rtu
