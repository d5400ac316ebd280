#include "rtosunit.hh"

#include "common/logging.hh"

namespace rtu {

RegIndex
ctxReg(unsigned idx)
{
    rtu_assert(idx >= 2 && idx < kCtxWords, "context word %u has no "
               "register", idx);
    // 2 -> x1 (ra), 3 -> x2 (sp), 4..30 -> x5..x31.
    if (idx == 2)
        return 1;
    if (idx == 3)
        return 2;
    return static_cast<RegIndex>(idx + 1);
}

namespace {

/** mstatus bits a context restore may modify. */
constexpr Word kMstatusCtxMask =
    mstatus::kMie | mstatus::kMpie | mstatus::kMppMask;

} // namespace

RtosUnit::RtosUnit(const RtosUnitConfig &config, ArchState &state,
                   UnitMemPort &port)
    : config_(config), state_(state), port_(port),
      ready_(config.listSlots), delay_(config.listSlots, ready_)
{
    std::string why;
    if (!config_.validate(&why))
        fatal("invalid RTOSUnit configuration: %s", why.c_str());
    rtu_assert(!config_.cv32rt,
               "use Cv32rtUnit for the CV32RT baseline");
    if (config_.hwsync) {
        sems_.resize(config_.semSlots);
        for (HwSemaphore &s : sems_)
            s.waiters = std::make_unique<HwReadyList>(config_.listSlots);
    }
}

// ---- custom instructions ----------------------------------------------

bool
RtosUnit::implements(Op op) const
{
    switch (op) {
      case Op::kSetContextId: return config_.store || config_.load;
      case Op::kSwitchRf: return config_.store;
      case Op::kGetHwSched:
      case Op::kAddReady:
      case Op::kAddDelay:
      case Op::kRmTask:
        return config_.sched;
      case Op::kSemTake:
      case Op::kSemGive:
        return config_.hwsync;
      default:
        return false;
    }
}

Word
RtosUnit::execute(Op op, Word rs1, Word rs2)
{
    switch (op) {
      case Op::kSetContextId: setContextId(rs1); return 0;
      case Op::kGetHwSched: return getHwSched();
      case Op::kAddReady: addReady(rs1, rs2); return 0;
      case Op::kAddDelay: addDelay(rs1, rs2); return 0;
      case Op::kRmTask: rmTask(rs1); return 0;
      case Op::kSwitchRf: switchRf(); return 0;
      case Op::kSemTake: return semTake(rs1);
      default: return semGive(rs1);  // kSemGive
    }
}

void
RtosUnit::setContextId(Word id)
{
    if (id >= memmap::kCtxMaxTasks)
        guest_fault("rtu.setctx: task id %u out of range", id);
    currentCtxId_ = static_cast<TaskId>(id);
    if (config_.load)
        scheduleRestore(currentCtxId_);
}

Word
RtosUnit::getHwSched()
{
    Priority prio = 0;
    const TaskId id = ready_.popHeadRoundRobin(&prio);
    currentCtxId_ = id;
    currentPrio_ = prio;
    notifyPhase(SwitchPhase::kSchedDone);
    if (config_.load)
        scheduleRestore(id);
    return id;
}

void
RtosUnit::addReady(Word id, Word prio)
{
    if (id >= memmap::kCtxMaxTasks)
        guest_fault("rtu.addready: task id %u out of range", id);
    ready_.insert(static_cast<TaskId>(id), static_cast<Priority>(prio));
}

void
RtosUnit::addDelay(Word prio, Word ticks)
{
    delay_.insert(currentCtxId_, static_cast<Priority>(prio), ticks);
}

void
RtosUnit::rmTask(Word id)
{
    ready_.remove(static_cast<TaskId>(id));
    delay_.remove(static_cast<TaskId>(id));
    for (HwSemaphore &s : sems_)
        s.waiters->remove(static_cast<TaskId>(id));
}

void
RtosUnit::switchRf()
{
    rtu_assert(!storeActive_, "SWITCH_RF executed while the store FSM "
               "is draining (stall logic failed)");
    state_.setActiveBank(ArchState::kAppBank);
}

// ---- hardware semaphores (future-work extension, §7) ---------------------

Word
RtosUnit::semTake(Word sem_id)
{
    if (sem_id >= sems_.size())
        guest_fault("rtu.semtake: semaphore id %u out of range", sem_id);
    HwSemaphore &s = sems_[sem_id];
    ++stats_.semTakes;
    if (s.count > 0) {
        --s.count;
        return 1;
    }
    // Block the running task: retire it from the ready list and park
    // it in the semaphore's priority-ordered wait queue. The caller
    // yields; no interrupt-disable window is needed because the whole
    // transition is one instruction.
    ready_.remove(currentCtxId_);
    s.waiters->insert(currentCtxId_, currentPrio_);
    ++stats_.semBlocks;
    return 0;
}

Word
RtosUnit::semGive(Word sem_id)
{
    if (sem_id >= sems_.size())
        guest_fault("rtu.semgive: semaphore id %u out of range", sem_id);
    HwSemaphore &s = sems_[sem_id];
    ++stats_.semGives;
    TaskId id = 0;
    Priority prio = 0;
    if (s.waiters->popHeadRemove(&id, &prio)) {
        // Hand the token straight to the highest-priority waiter.
        ready_.insert(id, prio);
        ++stats_.semWakes;
        return prio > currentPrio_ ? 1 : 0;
    }
    ++s.count;
    return 0;
}

// ---- stall conditions ---------------------------------------------------

bool
RtosUnit::stalls(Op op) const
{
    switch (op) {
      case Op::kSwitchRf: return switchRfStall();
      case Op::kGetHwSched: return getHwSchedStall();
      case Op::kMret: return mretStall();
      case Op::kSemTake:
      case Op::kSemGive:
        return semOpStall();
      default: return false;
    }
}

bool
RtosUnit::switchRfStall() const
{
    return storeActive_;
}

bool
RtosUnit::getHwSchedStall() const
{
    return ready_.sorting() || delay_.transferring();
}

bool
RtosUnit::mretStall() const
{
    return storeActive_ || restoreActive_ || restorePending_;
}

bool
RtosUnit::semOpStall() const
{
    for (const HwSemaphore &s : sems_) {
        if (s.waiters->sorting())
            return true;
    }
    return false;
}

// ---- trap boundary -------------------------------------------------------

void
RtosUnit::onTrapEntry(Word cause)
{
    ++stats_.trapEntries;
    if (config_.sched && cause == mcause::kMachineTimer)
        delay_.timerTick();
    if (config_.store) {
        if (preActive_)
            abortPreload();
        startStoreFsm();
        state_.setActiveBank(ArchState::kIsrBank);
    }
}

void
RtosUnit::onMretExecuted()
{
    if (config_.store) {
        rtu_assert(!mretStall(), "mret executed while context FSMs are "
                   "busy (stall logic failed)");
        state_.setActiveBank(ArchState::kAppBank);
        state_.clearDirtyBits();
    }
}

// ---- store FSM ------------------------------------------------------------

void
RtosUnit::startStoreFsm()
{
    rtu_assert(!storeActive_ && !restoreActive_ && !restorePending_,
               "context switch episode while FSMs are busy");
    storeActive_ = true;
    storeIdx_ = 0;
    storeTask_ = currentCtxId_;
    storeMepc_ = state_.csrs.mepc;
    storeMstatus_ = state_.csrs.mstatus;
    for (RegIndex r = 0; r < 32; ++r)
        storeDirty_[r] = state_.regDirty(r);
    state_.clearDirtyBits();
    ++stats_.storeRuns;

    // Arm lockstep preloading: while the old context drains, the
    // buffered context is written right behind it (paper Section 4.7).
    lockstepActive_ = config_.preload && preBufValid_;
    if (lockstepActive_) {
        lockstepId_ = preBufId_;
        lockstepSatisfies_ = false;
        preBufValid_ = false;  // consumed
        rfHoldsValid_ = false; // RF being overwritten word by word
    }
}

void
RtosUnit::stepStoreFsm()
{
    if (!storeActive_)
        return;

    auto skip = [this](unsigned idx) {
        return config_.dirty && idx >= 2 && !storeDirty_[ctxReg(idx)];
    };

    // Dirty-bit mask scanning is combinational: skipped words cost no
    // cycles.
    while (storeIdx_ < kCtxWords && skip(storeIdx_)) {
        ++stats_.dirtySkippedWords;
        ++storeIdx_;
    }

    if (storeIdx_ < kCtxWords && portFree()) {
        Word value;
        if (storeIdx_ == 0)
            value = storeMepc_;
        else if (storeIdx_ == 1)
            value = storeMstatus_;
        else
            value = state_.bankReg(ArchState::kAppBank, ctxReg(storeIdx_));
        port_.pushWrite(memmap::ctxAddr(storeTask_) + 4 * storeIdx_, value);
        ++stats_.storeWords;
        // Rewriting a context invalidates a stale preload of it.
        if (preBufValid_ && preBufId_ == storeTask_)
            preBufValid_ = false;
        if (lockstepActive_) {
            const Word pv = preBuf_[storeIdx_];
            if (storeIdx_ == 0) {
                state_.csrs.mepc = pv & ~Word{1};
            } else if (storeIdx_ == 1) {
                state_.csrs.mstatus = pv & kMstatusCtxMask;
            } else {
                state_.setBankReg(ArchState::kAppBank, ctxReg(storeIdx_), pv);
            }
        }
        ++storeIdx_;
    }

    if (storeIdx_ == kCtxWords && port_.idle()) {
        storeActive_ = false;
        notifyPhase(SwitchPhase::kStoreDone);
        if (lockstepActive_) {
            rfHolds_ = lockstepId_;
            rfHoldsValid_ = true;
            lockstepActive_ = false;
            // A confirmed lockstep preload IS the restore: it finishes
            // with the drain it shadowed.
            if (lockstepSatisfies_)
                notifyPhase(SwitchPhase::kLoadDone);
        } else {
            // A plain drain leaves the stored task's values in place.
            rfHolds_ = storeTask_;
            rfHoldsValid_ = true;
        }
    }
}

// ---- restore FSM ------------------------------------------------------------

void
RtosUnit::scheduleRestore(TaskId id)
{
    if (lockstepActive_ && lockstepId_ == id) {
        // Correct preload prediction: the lockstep write-behind is the
        // restore; nothing further to do.
        lockstepSatisfies_ = true;
        ++stats_.preloadHits;
        return;
    }
    if (lockstepActive_) {
        // Wrong prediction: the RF is being filled with the wrong
        // context; a full restore must follow the store.
        ++stats_.preloadMisses;
    } else if (config_.omit && rfHoldsValid_ && rfHolds_ == id) {
        // Load omission: previous == next, the application RF already
        // holds the right values (memory is made consistent by the
        // store that precedes any restore).
        ++stats_.loadOmissions;
        notifyPhase(SwitchPhase::kLoadDone);
        return;
    }
    rtu_assert(!restoreActive_, "restore scheduled while one is running");
    restorePending_ = true;
    restoreTask_ = id;
}

void
RtosUnit::stepRestoreFsm()
{
    if (restorePending_ && !storeActive_ && !restoreActive_ &&
        !preActive_ && !preAborting_) {
        restorePending_ = false;
        restoreActive_ = true;
        restoreReqIdx_ = 0;
        restoreRespIdx_ = 0;
        ++stats_.restoreRuns;
    }
    if (!restoreActive_)
        return;

    if (restoreReqIdx_ < kCtxWords && portFree()) {
        port_.pushRead(memmap::ctxAddr(restoreTask_) + 4 * restoreReqIdx_);
        ++restoreReqIdx_;
    }

    Word w;
    while (restoreRespIdx_ < restoreReqIdx_ && port_.popResponse(&w)) {
        if (restoreRespIdx_ == 0) {
            state_.csrs.mepc = w & ~Word{1};
        } else if (restoreRespIdx_ == 1) {
            state_.csrs.mstatus = w & kMstatusCtxMask;
        } else {
            state_.setBankReg(ArchState::kAppBank, ctxReg(restoreRespIdx_),
                              w);
        }
        ++restoreRespIdx_;
        ++stats_.restoreWords;
    }

    if (restoreRespIdx_ == kCtxWords) {
        restoreActive_ = false;
        rfHolds_ = restoreTask_;
        rfHoldsValid_ = true;
        notifyPhase(SwitchPhase::kLoadDone);
    }
}

// ---- preloader -----------------------------------------------------------

void
RtosUnit::abortPreload()
{
    preActive_ = false;
    preAborting_ = !port_.idle();
}

void
RtosUnit::stepPreloader()
{
    if (preAborting_) {
        Word w;
        while (port_.popResponse(&w)) {
            // Discard responses of the aborted prefetch.
        }
        if (port_.idle())
            preAborting_ = false;
        return;
    }
    if (!config_.preload)
        return;
    if (storeActive_ || restoreActive_ || restorePending_) {
        // A real context transfer outranks speculation; abandon any
        // prefetch in flight so the restore can take the port.
        if (preActive_)
            abortPreload();
        return;
    }

    if (!preActive_) {
        if (ready_.sorting())
            return;
        TaskId head;
        if (!ready_.peekHead(&head))
            return;
        // Never prefetch the running task: its context memory is stale
        // until the next store drains it.
        if (head == currentCtxId_)
            return;
        if (preBufValid_ && preBufId_ == head)
            return;
        preActive_ = true;
        preTask_ = head;
        preReqIdx_ = 0;
        preRespIdx_ = 0;
        return;
    }

    // Re-validate the prediction while fetching.
    TaskId head;
    if (!ready_.sorting() &&
        (!ready_.peekHead(&head) || head != preTask_)) {
        abortPreload();
        return;
    }

    if (preReqIdx_ < kCtxWords && portFree()) {
        port_.pushRead(memmap::ctxAddr(preTask_) + 4 * preReqIdx_);
        ++preReqIdx_;
    }

    Word w;
    while (preRespIdx_ < preReqIdx_ && port_.popResponse(&w)) {
        preBuf_[preRespIdx_] = w;
        ++preRespIdx_;
    }

    if (preRespIdx_ == kCtxWords) {
        preActive_ = false;
        preBufValid_ = true;
        preBufId_ = preTask_;
        ++stats_.preloadFetches;
    }
}

// ---- fault injection -----------------------------------------------------

const char *
RtosUnit::injectAbortFsm()
{
    if (storeActive_) {
        // Kill the drain mid-flight: words [storeIdx_, kCtxWords) of
        // the outgoing task's context never reach memory, and any
        // lockstep preload dies with it, leaving the RF with whatever
        // mix of old/new words it had applied so far. Nothing marks
        // the slice as torn — exactly the silent corruption the
        // context-integrity oracle must catch at the task's resume.
        storeActive_ = false;
        lockstepActive_ = false;
        rfHoldsValid_ = false;
        return "store";
    }
    if (restoreActive_ || restorePending_) {
        restorePending_ = false;
        restoreActive_ = false;
        // Drain in-flight read responses through the preloader's
        // abort path so they cannot alias a later transfer.
        preAborting_ = !port_.idle();
        rfHoldsValid_ = false;
        return "restore";
    }
    return "";
}

void
RtosUnit::notifyPhase(SwitchPhase phase)
{
    if (phaseObserver_ && clock_)
        phaseObserver_->phaseReached(phase, *clock_);
}

// ---- clock ------------------------------------------------------------------

void
RtosUnit::tick(Cycle now)
{
    (void)now;
    if (stallRemaining_ > 0) {
        // Injected whole-unit freeze: nothing steps, nothing drains.
        // The core observes the stall conditions for longer; the
        // episode completes late but otherwise intact.
        --stallRemaining_;
        return;
    }
    if (portBlockRemaining_ > 0)
        --portBlockRemaining_;
    ready_.tick();
    delay_.tick();
    for (HwSemaphore &s : sems_)
        s.waiters->tick();
    if (config_.sched)
        delay_.transferTick();
    stepPreloader();
    stepStoreFsm();
    stepRestoreFsm();
    port_.tick();
    if (storeActive_ || restoreActive_ || preActive_)
        ++stats_.busyCycles;
}

bool
RtosUnit::wouldStartPreload() const
{
    // Mirror of stepPreloader()'s spontaneous-start conditions; the
    // FSM-busy cases are excluded by the caller.
    if (!config_.preload || preActive_ || ready_.sorting())
        return false;
    TaskId head;
    if (!ready_.peekHead(&head))
        return false;
    if (head == currentCtxId_)
        return false;
    if (preBufValid_ && preBufId_ == head)
        return false;
    return true;
}

Cycle
RtosUnit::nextEventAt(Cycle now) const
{
    // Injected stall/port-block counters burn down one per tick; a
    // fast-forward skipping those ticks would let the fault linger
    // into a later episode and break campaign determinism.
    if (stallRemaining_ > 0 || portBlockRemaining_ > 0)
        return now;
    if (storeActive_ || restoreActive_ || restorePending_ ||
        preActive_ || preAborting_) {
        return now;
    }
    if (ready_.sorting() || delay_.sorting())
        return now;
    for (const HwSemaphore &s : sems_) {
        if (s.waiters->sorting())
            return now;
    }
    if (config_.sched && delay_.transferring())
        return now;
    if (!port_.idle())
        return now;
    if (wouldStartPreload())
        return now;
    // Only a core instruction or trap hook can wake the unit now.
    return kNoEvent;
}

void
RtosUnit::skipTo(Cycle now, Cycle target)
{
    port_.skipCycles(target - now);
}

std::string
RtosUnit::fsmState() const
{
    return csprintf(
        "store=%d restore=%d restorePending=%d pre=%d preAbort=%d "
        "sorting(ready=%d delay=%d) transferring=%d portIdle=%d "
        "ctxId=%u",
        storeActive_, restoreActive_, restorePending_, preActive_,
        preAborting_, ready_.sorting(), delay_.sorting(),
        config_.sched && delay_.transferring(), port_.idle(),
        static_cast<unsigned>(currentCtxId_));
}

} // namespace rtu
