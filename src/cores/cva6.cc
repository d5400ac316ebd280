#include "cva6.hh"

namespace rtu {

Cva6Core::Cva6Core(const Env &env, SharedPort &bus_port,
                   const Cva6Params &params)
    : Core(env), params_(params), busPort_(bus_port),
      dcache_(params.cache), predictor_(params.predictorEntries)
{}

Cycle
Cva6Core::nextEventAt(Cycle now) const
{
    // The background store-buffer drain is pure: the bus claims are
    // unobservable while every other port user is quiescent (the
    // kernel's precondition for skipping) and the occupancy decrement
    // is replicated closed-form by skipTo().
    if (mretPending_)
        return std::max(now, mretDoneAt_);  // listener completion event
    if (sleeping_)
        return sleepEventAt(now);
    if (now < issueReadyAt_)
        return issueReadyAt_;  // interrupts sampled at issue boundaries
    if (exec_.interruptReady())
        return now < drainAt_ ? drainAt_ : now;
    return now;
}

void
Cva6Core::skipTo(Cycle now, Cycle target)
{
    const Cycle delta = target - now;
    // Closed-form store-buffer drain: one entry per cycle the bus is
    // not held by a refill.
    const Cycle busyEnd = std::min(std::max(busBusyUntil_, now), target);
    const Cycle freeCycles = target - busyEnd;
    const unsigned drained =
        static_cast<unsigned>(std::min<Cycle>(storeBuf_, freeCycles));
    storeBuf_ -= drained;

    if (sleeping_)
        stats_.wfiCycles += delta;
    else
        stats_.stallCycles += delta;
}

void
Cva6Core::tick(Cycle now)
{
    // Bus occupancy: an in-flight refill owns the bus; otherwise the
    // write-through store buffer drains one entry per free cycle.
    if (now < busBusyUntil_) {
        busPort_.claim();
    } else if (storeBuf_ > 0) {
        busPort_.claim();
        --storeBuf_;
    }

    mretStep(now);
    if (sleepCycle())
        return;

    if (now < issueReadyAt_) {
        ++stats_.stallCycles;
        return;
    }

    if (exec_.interruptReady() && !mretPending_) {
        if (now < drainAt_) {
            // Variable-latency drain of in-flight operations: the
            // modelled source of CVA6's residual entry jitter.
            ++stats_.stallCycles;
            return;
        }
        const Word cause = exec_.pendingCause();
        functionalTrap(cause, state_.pc(), now);
        issueReadyAt_ = now + params_.trapEntryBase;
        regReadyAt_.fill(now);
        return;
    }

    issue(now);
}

void
Cva6Core::issue(Cycle now)
{
    const Addr pc = state_.pc();
    const DecodedInsn insn = fetch(pc);

    if (stalledByUnit(insn)) {
        ++stats_.stallCycles;
        issueReadyAt_ = now + 1;
        return;
    }
    issueDecoded(now, pc, insn);
}

bool
Cva6Core::issueDecoded(Cycle now, Addr pc, DecodedInsn insn)
{
    // Scoreboard RAW check: sources must have completed.
    Cycle ops_ready = now;
    if (insn.useRs1)
        ops_ready = std::max(ops_ready, regReadyAt_[insn.rs1]);
    if (insn.useRs2)
        ops_ready = std::max(ops_ready, regReadyAt_[insn.rs2]);
    if (ops_ready > now) {
        issueReadyAt_ = ops_ready;
        stats_.stallCycles += ops_ready - now;
        return false;
    }

    const InsnClass cls = insn.cls;

    // Structural: a full write-through buffer blocks further stores.
    if (cls == InsnClass::kStore && storeBuf_ >= params_.storeBufferDepth) {
        issueReadyAt_ = now + 1;
        ++stats_.stallCycles;
        return false;
    }

    const unsigned div_bits = dividendBits(insn);

    const ExecResult res = exec_.execute(insn, pc);
    if (res.trap) {
        functionalTrap(res.trapCause, pc, now);
        issueReadyAt_ = now + params_.trapEntryBase;
        regReadyAt_.fill(now);
        return false;
    }
    state_.setPc(res.nextPc);
    ++stats_.instret;

    Cycle complete = now + 1;
    Cycle issue_next = now + 1;

    switch (cls) {
      case InsnClass::kMul:
        complete = now + params_.mulLatency;
        break;
      case InsnClass::kDiv:
        complete = now + params_.divBaseLatency + div_bits;
        break;
      case InsnClass::kLoad: {
        ++stats_.memOps;
        if (cacheable(res.memAddr)) {
            const auto acc = dcache_.access(res.memAddr, false);
            if (acc.hit) {
                complete = now + params_.loadHitLatency;
            } else {
                ++stats_.cacheMisses;
                complete = now + params_.loadHitLatency +
                           params_.missPenalty;
                busBusyUntil_ = std::max(busBusyUntil_, now) +
                                params_.missPenalty;
            }
        } else {
            // Uncached device access occupies the bus for one beat.
            complete = now + params_.loadHitLatency + 1;
            busBusyUntil_ = std::max(busBusyUntil_, now + 1);
        }
        break;
      }
      case InsnClass::kStore: {
        ++stats_.memOps;
        if (cacheable(res.memAddr))
            dcache_.access(res.memAddr, true);
        ++storeBuf_;  // drains through the bus in the background
        break;
      }
      case InsnClass::kBranch:
        if (predictor_.resolve(pc, res.branchTaken)) {
            ++stats_.branchMispredicts;
            issue_next = now + 1 + params_.mispredictPenalty;
        }
        break;
      case InsnClass::kJump:
        issue_next = now + (insn.op == Op::kJal ? params_.jalCycles
                                                : params_.jalrCycles);
        break;
      case InsnClass::kSystem:
        if (insn.op == Op::kMret) {
            issue_next = now + params_.mretCycles;
            mretIssued(now + params_.mretCycles - 1);
        } else if (res.isWfi) {
            sleeping_ = true;
        }
        break;
      default:
        break;
    }

    if (insn.hasRd && insn.rd != 0)
        regReadyAt_[insn.rd] = complete;
    drainAt_ = std::max(drainAt_, complete);
    issueReadyAt_ = std::max(issue_next, now + 1);
    return true;
}

void
Cva6Core::captureTiming(Cva6Timing &out) const
{
    out = {issueReadyAt_, drainAt_, busBusyUntil_, storeBuf_, regReadyAt_};
}

bool
Cva6Core::timingSteady(const Cva6Timing &before, Cycle a0, Cycle a1,
                       std::uint32_t regs) const
{
    if (!steadyCycle(before.issueReadyAt, issueReadyAt_, a0, a1) ||
        !steadyCycle(before.drainAt, drainAt_, a0, a1) ||
        !steadyCycle(before.busBusyUntil, busBusyUntil_, a0, a1) ||
        before.storeBuf != storeBuf_) {
        return false;
    }
    for (; regs != 0; regs &= regs - 1) {
        const int r = std::countr_zero(regs);
        if (!steadyCycle(before.regReadyAt[r], regReadyAt_[r], a0, a1))
            return false;
    }
    return true;
}

void
Cva6Core::shiftTiming(const Cva6Timing &before, Cycle d)
{
    shiftMoved(issueReadyAt_, before.issueReadyAt, d);
    shiftMoved(drainAt_, before.drainAt, d);
    shiftMoved(busBusyUntil_, before.busBusyUntil, d);
    for (unsigned r = 0; r < 32; ++r)
        shiftMoved(regReadyAt_[r], before.regReadyAt[r], d);
}

Cycle
Cva6Core::blockRun(Cycle now, Cycle bound)
{
    if (!blockRunOpen())
        return 0;

    Cycle t = now;
    BlockTally tally(stats_);
    LoopReplay<Cva6Timing> replay(state_, stats_, &predictor_);
    while (t < bound) {
        if (t < issueReadyAt_) {
            // Committed stall cycles up to the issue boundary: the
            // same closed-form store-buffer drain as skipTo().
            const Cycle adv = std::min(issueReadyAt_, bound);
            const Cycle busyEnd =
                std::min(std::max(busBusyUntil_, t), adv);
            const unsigned drained = static_cast<unsigned>(
                std::min<Cycle>(storeBuf_, adv - busyEnd));
            storeBuf_ -= drained;
            stats_.stallCycles += adv - t;
            t = adv;
            continue;
        }

        // The first issue boundary after a taken backward branch is a
        // steady-loop anchor.
        if (replay.armed())
            t = replay.anchor(*this, state_.pc(), t, bound);

        // Verify before applying any cycle-t effect, so a bail leaves
        // cycle t wholly unconsumed for the per-cycle path.
        const Addr pc = state_.pc();
        const DecodedInsn *insn = blockWord(pc);
        if (!insn)
            return tally.bail(t - now);

        // Cycle t is committed: bus-occupancy / store-buffer step,
        // exactly the top of tick(). beginCycle() substitutes for the
        // port-reset component, which is not ticking while we run.
        if (t < busBusyUntil_) {
            busPort_.beginCycle();
            busPort_.claim();
        } else if (storeBuf_ > 0) {
            busPort_.beginCycle();
            busPort_.claim();
            --storeBuf_;
        }

        // Dispatch the word verified above, skipping issue()'s fetch
        // and RTOSUnit stall check (stop words never get here). It
        // applies RAW / store-buffer-full stalls by itself; a stalled
        // attempt retires nothing and is retried next cycle, exactly
        // as tick() would.
        ++stats_.fetchPredecoded;
        const InsnClass cls = insn->cls;
        const bool taken =
            cls == InsnClass::kBranch &&
            Executor::evalBranch(insn->op, state_.reg(insn->rs1),
                                 state_.reg(insn->rs2));
        if (issueDecoded(t, pc, *insn)) {
            tally.retired(cls);
            replay.retired(pc, insn, taken);
        }
        t += 1;
    }
    return tally.finish(t - now);
}

} // namespace rtu
