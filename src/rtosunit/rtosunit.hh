/**
 * @file
 * The RTOSUnit: the paper's configurable hardware unit for scheduling
 * and context switching (Section 4).
 *
 * Composition (all optional, see RtosUnitConfig):
 *  - context store FSM: on interrupt entry the core is switched to the
 *    ISR register bank while the FSM drains the application bank
 *    (29 GPRs + mepc + mstatus = 31 words) to the task's fixed slice
 *    of the context memory region, one word per free memory cycle;
 *  - context restore FSM: the inverse, triggered by SET_CONTEXT_ID /
 *    GET_HW_SCHED; `mret` stalls until it completes;
 *  - hardware scheduler: ready + delay lists (see hw_lists.hh), the
 *    auto-resetting timer, and GET_HW_SCHED round-robin pop;
 *  - dirty bits: store only registers written since the last switch;
 *  - load omission: skip the restore when next == previous;
 *  - preloading: speculatively fetch the ready-list head's context
 *    into a 31-word buffer and apply it in lockstep with the store
 *    FSM, so a correct prediction makes the restore free.
 */

#ifndef RTU_RTOSUNIT_RTOSUNIT_HH
#define RTU_RTOSUNIT_RTOSUNIT_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include <string>

#include "common/types.hh"
#include "config.hh"
#include "cores/arch_state.hh"
#include "cores/rtosunit_port.hh"
#include "hw_lists.hh"
#include "sim/kernel.hh"
#include "sim/memmap.hh"
#include "trace/trace.hh"
#include "unit_mem.hh"

namespace rtu {

/** Number of context words per task: mepc, mstatus, 29 GPRs. */
constexpr unsigned kCtxWords = 31;

/**
 * Context word index -> architectural register. Indices 0 and 1 are
 * mepc and mstatus; 2..30 map to x1, x2, x5..x31 (x0 is constant,
 * x3/gp and x4/tp are static in FreeRTOS and never saved — paper
 * Section 3).
 */
RegIndex ctxReg(unsigned idx);

struct RtosUnitStats
{
    std::uint64_t trapEntries = 0;
    std::uint64_t storeRuns = 0;
    std::uint64_t storeWords = 0;
    std::uint64_t restoreRuns = 0;
    std::uint64_t restoreWords = 0;
    std::uint64_t dirtySkippedWords = 0;
    std::uint64_t loadOmissions = 0;
    std::uint64_t preloadHits = 0;
    std::uint64_t preloadMisses = 0;
    std::uint64_t preloadFetches = 0;
    std::uint64_t busyCycles = 0;  ///< any FSM active
    std::uint64_t semTakes = 0;
    std::uint64_t semBlocks = 0;
    std::uint64_t semGives = 0;
    std::uint64_t semWakes = 0;
};

class RtosUnit : public RtosUnitPort, public Clocked
{
  public:
    RtosUnit(const RtosUnitConfig &config, ArchState &state,
             UnitMemPort &port);

    const RtosUnitConfig &config() const { return config_; }

    /** Advance one clock cycle (called after the core's tick). */
    void tick(Cycle now) override;

    /** `now` while any FSM, sort, transfer, prefetch or port request
     *  is (or would go) active this cycle; kNoEvent when the unit can
     *  only be woken by a core instruction or trap hook. */
    Cycle nextEventAt(Cycle now) const override;

    /** Quiescent cycles only advance the port's internal clock. */
    void skipTo(Cycle now, Cycle target) override;

    /** One-line FSM state description for hang diagnostics. */
    std::string fsmState() const;

    /**
     * Phase tracing: @p clock is the simulation's cycle counter (so
     * instruction-triggered phases like GET_HW_SCHED are stamped with
     * the core's cycle, not the unit's last tick); @p observer
     * receives store-done / sched-done / load-done boundaries.
     */
    void
    setPhaseObserver(PhaseObserver *observer, const Cycle *clock)
    {
        phaseObserver_ = observer;
        clock_ = clock;
    }

    // ---- RtosUnitPort -------------------------------------------------
    bool implements(Op op) const override;
    /** Dispatch to the named op below. */
    Word execute(Op op, Word rs1, Word rs2) override;
    /** Dispatch to the named stall condition below. */
    bool stalls(Op op) const override;
    void onTrapEntry(Word cause) override;
    void onMretExecuted() override;

    // ---- custom instructions (Table 1) --------------------------------
    void setContextId(Word id);
    Word getHwSched();
    void addReady(Word id, Word prio);
    void addDelay(Word prio, Word ticks);
    void rmTask(Word id);
    void switchRf();
    // Hardware synchronization extension (paper future work, §7).
    /** SEM_TAKE: returns 1 when acquired; 0 when the caller was
     *  moved to the semaphore's wait queue and must yield. */
    Word semTake(Word sem_id);
    /** SEM_GIVE: returns 1 when a higher-priority waiter woke (the
     *  caller should yield); 0 otherwise. */
    Word semGive(Word sem_id);

    // ---- stall conditions (sampled before the insn executes) ---------
    /** SWITCH_RF must wait for the store FSM (Section 4.2). */
    bool switchRfStall() const;
    /** GET_HW_SCHED must wait while the ready list is mid-sort. */
    bool getHwSchedStall() const;
    /** mret must wait for context restore completion (Section 4.3). */
    bool mretStall() const;
    /** SEM_TAKE/SEM_GIVE must wait while any wait queue is mid-sort. */
    bool semOpStall() const;

    // ---- fault injection (src/inject campaign engine) ------------------
    /**
     * Freeze the whole unit — FSMs, list sorting, delay transfers,
     * port pipelining — for @p cycles ticks. Models a clock-gating /
     * handshake fault; the core keeps running and simply observes the
     * stall conditions for longer. Cumulative across calls.
     */
    void injectStall(Cycle cycles) { stallRemaining_ += cycles; }

    /**
     * Deny the unit's memory port for @p cycles ticks (requests see
     * canAccept() == false). Models transient memory-latency
     * perturbation on the context traffic path. Cumulative.
     */
    void injectPortBlock(Cycle cycles) { portBlockRemaining_ += cycles; }

    /**
     * Kill whichever context FSM is active mid-transfer, leaving its
     * partial state in place (unwritten context words, a half-restored
     * register file). Returns "store" / "restore", or "" when both
     * FSMs were idle (the injection did not fire).
     */
    const char *injectAbortFsm();

    // ---- inspection ----------------------------------------------------
    bool storeBusy() const { return storeActive_; }
    bool restoreBusy() const
    {
        return restoreActive_ || restorePending_;
    }
    TaskId currentCtxId() const { return currentCtxId_; }
    const RtosUnitStats &stats() const { return stats_; }
    const HwReadyList &readyList() const { return ready_; }
    const HwDelayList &delayList() const { return delay_; }

  private:
    void startStoreFsm();
    void scheduleRestore(TaskId id);
    void stepStoreFsm();
    void stepRestoreFsm();
    void stepPreloader();
    void abortPreload();
    void notifyPhase(SwitchPhase phase);
    /** Would stepPreloader() spontaneously start a prefetch now? */
    bool wouldStartPreload() const;
    /** Port acceptance gated by an injected port block. */
    bool
    portFree() const
    {
        return portBlockRemaining_ == 0 && port_.canAccept();
    }

    RtosUnitConfig config_;
    ArchState &state_;
    UnitMemPort &port_;

    PhaseObserver *phaseObserver_ = nullptr;
    const Cycle *clock_ = nullptr;

    HwReadyList ready_;
    HwDelayList delay_;

    /** Hardware counting semaphores (future-work extension, §7). */
    struct HwSemaphore
    {
        Word count = 0;
        std::unique_ptr<HwReadyList> waiters;
    };
    std::vector<HwSemaphore> sems_;

    /** Task whose context currently occupies the application RF. */
    TaskId currentCtxId_ = 0;
    /** Priority of that task (from the last ready-list pop). */
    Priority currentPrio_ = 0;

    // ---- store FSM ----------------------------------------------------
    bool storeActive_ = false;
    unsigned storeIdx_ = 0;
    TaskId storeTask_ = 0;
    Word storeMepc_ = 0;
    Word storeMstatus_ = 0;
    std::array<bool, 32> storeDirty_{};

    // ---- restore FSM ---------------------------------------------------
    bool restoreActive_ = false;
    bool restorePending_ = false;
    TaskId restoreTask_ = 0;
    unsigned restoreReqIdx_ = 0;
    unsigned restoreRespIdx_ = 0;

    /** Which task's context the application RF holds (load omission). */
    TaskId rfHolds_ = 0;
    bool rfHoldsValid_ = false;

    // ---- preloader ------------------------------------------------------
    bool preActive_ = false;
    bool preAborting_ = false;
    unsigned preReqIdx_ = 0;
    unsigned preRespIdx_ = 0;
    TaskId preTask_ = 0;
    std::array<Word, kCtxWords> preBuf_{};
    bool preBufValid_ = false;
    TaskId preBufId_ = 0;
    /** Lockstep application armed for the current switch episode. */
    bool lockstepActive_ = false;
    TaskId lockstepId_ = 0;
    bool lockstepSatisfies_ = false;  ///< prediction confirmed correct

    // ---- injected faults -------------------------------------------------
    Cycle stallRemaining_ = 0;      ///< whole-unit freeze ticks left
    Cycle portBlockRemaining_ = 0;  ///< port-deny ticks left

    RtosUnitStats stats_;
};

} // namespace rtu

#endif // RTU_RTOSUNIT_RTOSUNIT_HH
