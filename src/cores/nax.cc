#include "nax.hh"

namespace rtu {

// ---- ctxQueue port -------------------------------------------------------

void
NaxCtxQueuePort::pushRead(Addr addr)
{
    rtu_assert(canAccept(), "ctxQueue overflow");
    queue_.push_back({true, addr, 0});
    ++stats_.reads;
}

void
NaxCtxQueuePort::pushWrite(Addr addr, Word data)
{
    rtu_assert(canAccept(), "ctxQueue overflow");
    queue_.push_back({false, addr, data});
    ++stats_.writes;
}

bool
NaxCtxQueuePort::popResponse(Word *data)
{
    if (responses_.empty())
        return false;
    *data = responses_.front();
    responses_.pop_front();
    return true;
}

bool
NaxCtxQueuePort::idle() const
{
    return queue_.empty() && responses_.empty();
}

void
NaxCtxQueuePort::tick()
{
    ++now_;
    if (queue_.empty())
        return;

    // Issue the oldest unserviced entry into the pipelined cache:
    // one issue per cycle on a free D$ port (the core's LSU has
    // priority); a miss blocks further issues until the refill is
    // done. Deeper queues therefore cover the cache's hit latency —
    // the mechanism behind the paper's Pareto-optimal depth of 8.
    Entry *next = nullptr;
    for (Entry &e : queue_) {
        if (!e.serviced) {
            next = &e;
            break;
        }
    }
    if (next && now_ >= pipeBlockedUntil_) {
        if (cachePort_.tryUse()) {
            const auto acc = dcache_.access(next->addr, !next->isRead);
            unsigned lat = params_.loadHitLatency;
            if (!acc.hit) {
                lat += params_.missPenalty;
                pipeBlockedUntil_ = now_ + params_.missPenalty;
            }
            if (acc.writeback) {
                lat += params_.writebackPenalty;
                pipeBlockedUntil_ =
                    std::max(pipeBlockedUntil_, now_) +
                    params_.writebackPenalty;
            }
            next->serviced = true;
            next->doneAt = now_ + lat;
        } else {
            ++stats_.rejectCycles;
        }
    }

    // Complete strictly in order.
    while (!queue_.empty() && queue_.front().serviced &&
           queue_.front().doneAt <= now_) {
        Entry &head = queue_.front();
        if (head.isRead)
            responses_.push_back(mem_.read32(head.addr));
        else
            mem_.write32(head.addr, head.data);
        queue_.pop_front();
    }
}

// ---- core ------------------------------------------------------------------

NaxCore::NaxCore(const Env &env, const NaxParams &params)
    : Core(env), params_(params), dcache_(params.cache),
      cachePort_("nax-dcache-port"),
      ctxPort_(*env.mem, dcache_, cachePort_, params_),
      rob_(params.robEntries), predictor_(params.predictorEntries)
{
    rtu_assert(params_.robEntries > 0, "NaxRiscv needs a ROB entry");
}

Cycle
NaxCore::nextEventAt(Cycle now) const
{
    // The per-cycle cachePort_.beginCycle()/claim() bookkeeping is
    // unobservable while the ctxQueue (the only other port user) is
    // quiescent — the kernel's precondition for skipping.
    if (mretPending_)
        return std::max(now, mretDoneAt_);  // listener completion event
    if (sleeping_)
        return sleepEventAt(now);
    if (exec_.interruptReady()) {
        // Taken at the first commit boundary; until then the core only
        // burns stall cycles (and deliberately does not retire).
        if (!rob_.empty() && rob_.front() > now)
            return rob_.front();
        return now;
    }
    if (now < dispatchBlockedUntil_)
        return dispatchBlockedUntil_;
    return now;
}

void
NaxCore::skipTo(Cycle now, Cycle target)
{
    const Cycle delta = target - now;
    if (mretPending_) {
        rob_.retire(target - 1);
        stats_.stallCycles += delta;
        return;
    }
    if (sleeping_) {
        stats_.wfiCycles += delta;
        return;
    }
    if (exec_.interruptReady()) {
        // Waiting for the commit boundary: the reference path returns
        // before retire(), so the ROB must stay put here too.
        stats_.stallCycles += delta;
        return;
    }
    rob_.retire(target - 1);
    stats_.stallCycles += delta;
}

void
NaxCore::tick(Cycle now)
{
    // The cache port must be reset each core cycle (the simulation
    // only manages the system-level ports).
    cachePort_.beginCycle();

    // A refill in flight owns the D$ port.
    if (now < cacheBusyUntil_)
        cachePort_.claim();

    mretStep(now);
    if (sleepCycle())
        return;

    // Interrupts redirect the front-end themselves, so a pending
    // branch/mret redirect (dispatchBlockedUntil_) does not delay
    // entry. The interrupt is taken at the *first* commit boundary:
    // the oldest in-flight instruction completes (its latency — a
    // divide, a missing load — is the modelled source of NaxRiscv's
    // residual entry jitter) and everything younger is squashed.
    // This check runs before retire() so the boundary is observed,
    // not consumed.
    if (exec_.interruptReady() && !mretPending_) {
        if (!rob_.empty() && rob_.front() > now) {
            ++stats_.stallCycles;
            return;
        }
        rob_.clear();
        const Word cause = exec_.pendingCause();
        functionalTrap(cause, state_.pc(), now);
        dispatchBlockedUntil_ = now + params_.trapEntryPenalty;
        regReadyAt_.fill(now);
        aluFreeAt_.fill(now);
        mulDivFreeAt_ = now;
        lsuFreeAt_ = now;
        drainAt_ = now;
        lastCommitAt_ = now;
        commitsAtLast_ = 0;
        return;
    }

    rob_.retire(now);

    if (now < dispatchBlockedUntil_) {
        ++stats_.stallCycles;
        return;
    }

    for (unsigned slot = 0; slot < kDispatchWidth; ++slot) {
        if (!dispatchOne(now))
            break;
    }
}

bool
NaxCore::dispatchOne(Cycle now)
{
    if (rob_.full()) {
        ++stats_.stallCycles;
        return false;
    }

    const Addr pc = state_.pc();
    const DecodedInsn insn = fetch(pc);

    if (stalledByUnit(insn)) {
        ++stats_.stallCycles;
        return false;
    }
    return dispatchDecoded(now, pc, insn);
}

bool
NaxCore::dispatchDecoded(Cycle now, Addr pc, DecodedInsn insn)
{
    // Operand readiness via renamed dataflow (RAW only).
    Cycle ops_ready = now;
    if (insn.useRs1)
        ops_ready = std::max(ops_ready, regReadyAt_[insn.rs1]);
    if (insn.useRs2)
        ops_ready = std::max(ops_ready, regReadyAt_[insn.rs2]);

    const InsnClass cls = insn.cls;

    const unsigned div_bits = dividendBits(insn);

    const ExecResult res = exec_.execute(insn, pc);
    if (res.trap) {
        functionalTrap(res.trapCause, pc, now);
        dispatchBlockedUntil_ = now + params_.trapEntryPenalty;
        return false;
    }
    state_.setPc(res.nextPc);
    ++stats_.instret;

    Cycle complete;
    bool block_group = false;

    switch (cls) {
      case InsnClass::kMul: {
        const Cycle start = std::max(ops_ready, mulDivFreeAt_);
        mulDivFreeAt_ = start + 1;  // pipelined
        complete = start + params_.mulLatency;
        break;
      }
      case InsnClass::kDiv: {
        const Cycle start = std::max(ops_ready, mulDivFreeAt_);
        const unsigned lat = params_.divBaseLatency + div_bits;
        mulDivFreeAt_ = start + lat;  // iterative, not pipelined
        complete = start + lat;
        break;
      }
      case InsnClass::kLoad: {
        ++stats_.memOps;
        const Cycle start = std::max(ops_ready, lsuFreeAt_);
        lsuFreeAt_ = start + 1;
        if (!cachePort_.claimed())
            cachePort_.claim();
        unsigned lat = params_.loadHitLatency;
        if (cacheable(res.memAddr)) {
            const auto acc = dcache_.access(res.memAddr, false);
            if (!acc.hit) {
                ++stats_.cacheMisses;
                lat += params_.missPenalty;
                cacheBusyUntil_ = std::max(cacheBusyUntil_, start) +
                                  params_.missPenalty;
            }
            if (acc.writeback) {
                lat += params_.writebackPenalty;
                cacheBusyUntil_ += params_.writebackPenalty;
            }
        } else {
            lat += 2;  // uncached device access
        }
        complete = start + lat;
        break;
      }
      case InsnClass::kStore: {
        ++stats_.memOps;
        const Cycle start = std::max(ops_ready, lsuFreeAt_);
        lsuFreeAt_ = start + 1;
        if (!cachePort_.claimed())
            cachePort_.claim();
        if (cacheable(res.memAddr)) {
            const auto acc = dcache_.access(res.memAddr, true);
            if (!acc.hit) {
                ++stats_.cacheMisses;
                cacheBusyUntil_ = std::max(cacheBusyUntil_, start) +
                                  params_.missPenalty;
            }
            if (acc.writeback)
                cacheBusyUntil_ += params_.writebackPenalty;
        }
        complete = start + 1;
        break;
      }
      case InsnClass::kBranch: {
        const Cycle start = std::max(
            ops_ready, std::min(aluFreeAt_[0], aluFreeAt_[1]));
        auto &fu = aluFreeAt_[aluFreeAt_[0] <= aluFreeAt_[1] ? 0 : 1];
        fu = start + 1;
        complete = start + 1;
        if (predictor_.resolve(pc, res.branchTaken)) {
            ++stats_.branchMispredicts;
            // Front-end redirect after the branch resolves.
            dispatchBlockedUntil_ = complete + params_.redirectPenalty;
            block_group = true;
        }
        break;
      }
      case InsnClass::kJump: {
        complete = now + 1;
        if (insn.op == Op::kJalr) {
            // Indirect target resolves at execute; short redirect.
            dispatchBlockedUntil_ = std::max(ops_ready, now) + 2;
            block_group = true;
        }
        break;
      }
      case InsnClass::kSystem: {
        complete = std::max(ops_ready, now) + 1;
        if (insn.op == Op::kMret) {
            const Cycle done = std::max(drainAt_, complete) +
                               params_.mretPenalty;
            dispatchBlockedUntil_ = done;
            mretIssued(done - 1);
            block_group = true;
        } else if (res.isWfi) {
            sleeping_ = true;
            block_group = true;
        }
        break;
      }
      default: {
        // ALU / CSR / custom through an ALU pipe.
        const Cycle start = std::max(
            ops_ready, std::min(aluFreeAt_[0], aluFreeAt_[1]));
        auto &fu = aluFreeAt_[aluFreeAt_[0] <= aluFreeAt_[1] ? 0 : 1];
        fu = start + 1;
        complete = start + 1;
        break;
      }
    }

    // In-order commit, up to kDispatchWidth per cycle.
    Cycle commit = std::max(complete, lastCommitAt_);
    if (commit == lastCommitAt_ && commitsAtLast_ >= kDispatchWidth)
        commit += 1;
    if (commit == lastCommitAt_) {
        ++commitsAtLast_;
    } else {
        lastCommitAt_ = commit;
        commitsAtLast_ = 1;
    }
    rob_.push(commit);
    drainAt_ = commit;

    if (insn.hasRd && insn.rd != 0)
        regReadyAt_[insn.rd] = complete;

    return !block_group;
}

void
NaxCore::captureTiming(NaxTiming &out) const
{
    out.dispatchBlockedUntil = dispatchBlockedUntil_;
    out.cacheBusyUntil = cacheBusyUntil_;
    out.lastCommitAt = lastCommitAt_;
    out.commitsAtLast = commitsAtLast_;
    out.drainAt = drainAt_;
    out.aluFreeAt = aluFreeAt_;
    out.regReadyAt = regReadyAt_;
    out.robCount = rob_.size();
    const std::size_t n = std::min(out.robCount, NaxTiming::kMaxRob);
    for (std::size_t i = 0; i < n; ++i)
        out.rob[i] = rob_.at(i);
}

bool
NaxCore::timingSteady(const NaxTiming &before, Cycle a0, Cycle a1,
                      std::uint32_t regs) const
{
    const Cycle delta = a1 - a0;
    if (!steadyCycle(before.dispatchBlockedUntil, dispatchBlockedUntil_,
                     a0, a1) ||
        !steadyCycle(before.cacheBusyUntil, cacheBusyUntil_, a0, a1) ||
        !steadyCycle(before.lastCommitAt, lastCommitAt_, a0, a1) ||
        before.commitsAtLast != commitsAtLast_ ||
        !steadyCycle(before.drainAt, drainAt_, a0, a1) ||
        aluFreeAt_[0] - before.aluFreeAt[0] != delta ||
        aluFreeAt_[1] - before.aluFreeAt[1] != delta) {
        return false;
    }
    for (; regs != 0; regs &= regs - 1) {
        const int r = std::countr_zero(regs);
        if (!steadyCycle(before.regReadyAt[r], regReadyAt_[r], a0, a1))
            return false;
    }
    if (rob_.size() != before.robCount || before.robCount > NaxTiming::kMaxRob)
        return false;
    for (std::size_t i = 0; i < before.robCount; ++i) {
        if (rob_.at(i) - before.rob[i] != delta)
            return false;
    }
    return true;
}

void
NaxCore::shiftTiming(const NaxTiming &before, Cycle d)
{
    shiftMoved(dispatchBlockedUntil_, before.dispatchBlockedUntil, d);
    shiftMoved(cacheBusyUntil_, before.cacheBusyUntil, d);
    shiftMoved(lastCommitAt_, before.lastCommitAt, d);
    shiftMoved(drainAt_, before.drainAt, d);
    for (unsigned i = 0; i < 2; ++i)
        shiftMoved(aluFreeAt_[i], before.aluFreeAt[i], d);
    for (unsigned r = 0; r < 32; ++r)
        shiftMoved(regReadyAt_[r], before.regReadyAt[r], d);
    rob_.shift(d);
}

Cycle
NaxCore::blockRun(Cycle now, Cycle bound)
{
    if (!blockRunOpen())
        return 0;

    Cycle t = now;
    BlockTally tally(stats_);
    LoopReplay<NaxTiming> replay(state_, stats_, &predictor_);
    while (t < bound) {
        if (t < dispatchBlockedUntil_) {
            // Committed redirect/trap-shadow stall cycles: same
            // closed-form as skipTo() (retire is monotone, so one
            // call at the last stalled cycle equals one per cycle).
            const Cycle adv = std::min(dispatchBlockedUntil_, bound);
            rob_.retire(adv - 1);
            stats_.stallCycles += adv - t;
            t = adv;
            continue;
        }

        // Cycle-t prelude, exactly the top of tick(). Re-running it
        // after a bail at this cycle is harmless: beginCycle/claim are
        // unobservable while the ctxQueue is quiescent, retire() is
        // idempotent for a fixed cycle.
        cachePort_.beginCycle();
        if (t < cacheBusyUntil_)
            cachePort_.claim();
        rob_.retire(t);

        if (rob_.full()) {
            // Slot 0 stalls every cycle until the oldest entry
            // commits; those cycles change nothing but the stall
            // count, so take them in one step.
            const Cycle adv = std::min(rob_.front(), bound);
            stats_.stallCycles += adv - t;
            t = adv;
            continue;
        }

        // The first dispatch boundary after a taken backward branch is
        // a steady-loop anchor; its snapshot follows the prelude above.
        if (replay.armed())
            t = replay.anchor(*this, state_.pc(), t, bound);

        // ---- group pre-verification (no effects until it passes) ----
        const Addr pc0 = state_.pc();
        const DecodedInsn *insn0 = blockWord(pc0);
        if (!insn0)
            return tally.bail(t - now);
        const InsnClass cls0 = insn0->cls;

        // Resolve slot 0's control flow without executing it, to learn
        // whether slot 1 dispatches this cycle and from which pc.
        bool pair = true;
        bool taken0 = false;
        Addr pc1 = pc0 + 4;
        if (cls0 == InsnClass::kBranch) {
            taken0 = Executor::evalBranch(
                insn0->op, state_.reg(insn0->rs1), state_.reg(insn0->rs2));
            // A mispredict redirects the front-end.
            pair = predictor_.predictsTaken(pc0) == taken0;
            if (taken0)
                pc1 = pc0 + static_cast<Word>(insn0->imm);
        } else if (cls0 == InsnClass::kJump) {
            if (insn0->op == Op::kJal)
                pc1 = pc0 + static_cast<Word>(insn0->imm);
            else
                pair = false;  // jalr resolves at execute: redirect
        }

        const DecodedInsn *insn1 = nullptr;
        if (pair) {
            insn1 = blockWord(pc1);
            if (!insn1)
                return tally.bail(t - now);
            // Slot 0's result may feed slot 1's address register: the
            // address blockWord() checked is not the one slot 1 uses.
            const bool mem1 = insn1->cls == InsnClass::kLoad ||
                              insn1->cls == InsnClass::kStore;
            if (mem1 && insn0->hasRd && insn0->rd != 0 &&
                insn1->useRs1 && insn1->rs1 == insn0->rd) {
                return tally.bail(t - now);
            }
            // A slot-0 store that lands on slot 1's instruction word
            // re-decodes it before the per-cycle path would fetch it;
            // the verification above would be stale.
            if (cls0 == InsnClass::kStore) {
                const Addr ea0 = effectiveAddr(*insn0);
                if (ea0 < pc1 + 4 && ea0 + accessSize(insn0->op) > pc1)
                    return tally.bail(t - now);
            }
        }

        // ---- dispatch, exactly tick()'s slot loop ----
        // Both words are verified non-stop (no trap, no RTOSUnit
        // stall), so each dispatch that finds a free ROB entry
        // retires; the fetch is counted as dispatchOne() would.
        ++stats_.fetchPredecoded;
        const bool cont = dispatchDecoded(t, pc0, *insn0);
        tally.retired(cls0);
        replay.retired(pc0, insn0, taken0);
        if (cont && insn1) {
            if (rob_.full()) {
                ++stats_.stallCycles;  // slot 1 stalls, as tick() would
            } else {
                const InsnClass cls1 = insn1->cls;
                const bool taken1 =
                    cls1 == InsnClass::kBranch &&
                    Executor::evalBranch(insn1->op, state_.reg(insn1->rs1),
                                         state_.reg(insn1->rs2));
                ++stats_.fetchPredecoded;
                dispatchDecoded(t, pc1, *insn1);
                tally.retired(cls1);
                replay.retired(pc1, insn1, taken1);
            }
        }
        t += 1;
    }
    return tally.finish(t - now);
}

} // namespace rtu
