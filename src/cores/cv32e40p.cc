#include "cv32e40p.hh"

#include <bit>

namespace rtu {

bool
Cv32e40pCore::stalledByUnit(const DecodedInsn &insn) const
{
    RtosUnitPort *unit = exec_.unit();
    if (!unit)
        return false;
    switch (insn.op) {
      case Op::kSwitchRf:
        return unit->switchRfStall();
      case Op::kGetHwSched:
        return unit->getHwSchedStall();
      case Op::kMret:
        return unit->mretStall();
      case Op::kSemTake:
      case Op::kSemGive:
        return unit->semOpStall();
      default:
        return false;
    }
}

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
        return exec_.pendingEnabledIrqs() != 0 ? now : kNoEvent;
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
            if (remaining_ == 0 && mretInFlight_) {
                mretInFlight_ = false;
                if (listener_)
                    listener_->mretCompleted(now);
            }
            return;
        }
    }

    if (sleeping_) {
        if (exec_.pendingEnabledIrqs() != 0) {
            sleeping_ = false;
        } else {
            ++stats_.wfiCycles;
            return;
        }
    }

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

    // Load-use hazard: one bubble when the previous instruction was a
    // load whose destination this instruction consumes.
    unsigned extra = 0;
    if (lastWasLoad_ && lastLoadRd_ != 0) {
        const bool uses =
            (insn.useRs1 && insn.rs1 == lastLoadRd_) ||
            (insn.useRs2 && insn.rs2 == lastLoadRd_);
        if (uses)
            extra = params_.loadUseStall;
    }

    // Capture the dividend before execution mutates the register file
    // (rd may alias rs1).
    divOperandBits_ = 0;
    if (cls == InsnClass::kDiv) {
        const Word dividend = state_.reg(insn.rs1);
        divOperandBits_ = 32 - std::countl_zero(dividend | 1);
    }

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
        ++stats_.mrets;
        if (remaining_ == 0) {
            if (listener_)
                listener_->mretCompleted(now);
        } else {
            mretInFlight_ = true;
        }
    }

    lastWasLoad_ = cls == InsnClass::kLoad;
    lastLoadRd_ = insn.rd;
}

// Inlined into blockRun(), its one caller: the per-instruction hot path.
[[gnu::always_inline]] inline Cv32e40pCore::BlockStep
Cv32e40pCore::blockStep(Cycle &t, Cycle bound)
{
    const Addr pc = state_.pc();
    const DecodedInsn &insn = predecode_->at(pc);
    const InsnClass cls = insn.cls;

    // An address the per-instruction path would route to a device (or
    // fault on) carries semantics this loop does not model: bail with
    // nothing executed.
    if (cls == InsnClass::kLoad || cls == InsnClass::kStore) {
        if (!blockSafeAccess(effectiveAddr(insn), accessSize(insn.op)))
            return BlockStep::kBailMem;
    }

    ++stats_.fetchPredecoded;

    // Load-use hazard from the *dynamic* previous instruction — exact,
    // unlike the decode-time schedule, which is only a worst case.
    unsigned extra = 0;
    if (lastWasLoad_ && lastLoadRd_ != 0) {
        const bool uses = (insn.useRs1 && insn.rs1 == lastLoadRd_) ||
                          (insn.useRs2 && insn.rs2 == lastLoadRd_);
        if (uses)
            extra = params_.loadUseStall;
    }

    divOperandBits_ = 0;
    if (cls == InsnClass::kDiv) {
        const Word dividend = state_.reg(insn.rs1);
        divOperandBits_ = 32 - std::countl_zero(dividend | 1);
    }

    // Stop classes were excluded up front, so this cannot trap, sleep
    // or touch the RTOSUnit; a wild jalr target is caught by the
    // coverage check before the next step.
    const ExecResult res = exec_.execute(insn, pc);
    state_.setPc(res.nextPc);
    ++stats_.instret;

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
        return BlockStep::kHorizon;
    }
    stats_.stallCycles += cost - 1;
    abortable_ =
        cost > 1 && (cls == InsnClass::kDiv || cls == InsnClass::kMul);
    t += cost;
    return (cls == InsnClass::kBranch || cls == InsnClass::kJump)
               ? BlockStep::kControl
               : BlockStep::kDone;
}

Cycle
Cv32e40pCore::blockRun(Cycle now, Cycle bound)
{
    if (blockindex_ == nullptr || remaining_ > 0 || sleeping_ ||
        exec_.interruptReady()) {
        return 0;
    }

    Cycle t = now;
    std::uint32_t sinceBoundary = 0;
    bool bailed = false;
    while (t < bound) {
        const Addr pc = state_.pc();
        if (!blockindex_->covers(pc)) {
            bailed = true;
            break;
        }
        const std::uint8_t flags = blockindex_->flagsAt(pc);
        if (flags & BlockIndex::kStop) {
            bailed = true;
            break;
        }

        // Block-entry fast path: a store-free run whose worst-case
        // cost (plus one inherited load-use stall of margin) fits the
        // horizon needs no per-instruction re-validation — one bound
        // check for the whole block (kHorizon cannot happen in it).
        // Otherwise step once and re-check: store-carrying or
        // horizon-limited runs re-validate every word (a store may
        // have re-formed the very block being executed).
        std::uint32_t steps = 1;
        if (!(flags & BlockIndex::kSuffixStore) &&
            t + blockindex_->worstCyclesAt(pc) + params_.loadUseStall <=
                bound) {
            steps = blockindex_->runLenAt(pc);
        }
        bool stop = false;
        for (std::uint32_t i = 0; i < steps && !stop; ++i) {
            switch (blockStep(t, bound)) {
              case BlockStep::kControl:
                ++stats_.blocksExecuted;
                sinceBoundary = 0;
                break;
              case BlockStep::kDone:
                ++sinceBoundary;
                break;
              case BlockStep::kHorizon:
                ++sinceBoundary;
                stop = true;
                break;
              case BlockStep::kBailMem:
                bailed = true;
                stop = true;
                break;
            }
        }
        if (stop)
            break;
    }

    if (sinceBoundary > 0)
        ++stats_.blocksExecuted;  // partial run up to the exit point
    if (bailed)
        ++stats_.blockFallbacks;
    return t - now;
}

} // namespace rtu
