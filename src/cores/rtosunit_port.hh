/**
 * @file
 * The narrow interface a core sees of the RTOSUnit (and of the CV32RT
 * comparison unit): functional execution of the custom instructions,
 * stall queries, and trap-boundary event hooks.
 *
 * Keeping this interface in the cores layer lets core models stay
 * independent of the RTOSUnit implementation (the paper's "minimal
 * intrusion" integration contract, Section 5).
 */

#ifndef RTU_CORES_RTOSUNIT_PORT_HH
#define RTU_CORES_RTOSUNIT_PORT_HH

#include "asm/insn.hh"
#include "common/types.hh"

namespace rtu {

class RtosUnitPort
{
  public:
    virtual ~RtosUnitPort() = default;

    /** True if this unit's configuration has custom op @p op. The
     *  executor raises an illegal-instruction fault for any other
     *  custom op, so the methods below only see their own ops. */
    virtual bool implements(Op op) const = 0;

    // ---- custom instructions (functional semantics) ------------------
    virtual void setContextId(Word id) = 0;
    virtual Word getHwSched() = 0;
    virtual void addReady(Word id, Word prio) = 0;
    virtual void addDelay(Word prio, Word ticks) = 0;
    virtual void rmTask(Word id) = 0;
    virtual void switchRf() = 0;

    // Hardware synchronization extension (paper future work, §7).
    /** SEM_TAKE: returns 1 when acquired; 0 when the caller was
     *  moved to the semaphore's wait queue and must yield. */
    virtual Word semTake(Word sem_id) = 0;
    /** SEM_GIVE: returns 1 when a higher-priority waiter woke (the
     *  caller should yield); 0 otherwise. */
    virtual Word semGive(Word sem_id) = 0;

    // ---- stall conditions (sampled before the insn executes) ---------
    /** SWITCH_RF must wait for the store FSM (Section 4.2). */
    virtual bool switchRfStall() const = 0;
    /** GET_HW_SCHED must wait while the ready list is mid-sort. */
    virtual bool getHwSchedStall() const = 0;
    /** mret must wait for context restore completion (Section 4.3). */
    virtual bool mretStall() const = 0;
    /** SEM_GIVE must wait while any wait queue is mid-sort. */
    virtual bool semOpStall() const { return false; }

    // ---- trap boundary events ----------------------------------------
    /** Interrupt entry: RF bank switch + store FSM start + delay tick. */
    virtual void onTrapEntry(Word cause) = 0;
    /** mret executed: automatic RF bank switch back (with (L)). */
    virtual void onMretExecuted() = 0;
};

} // namespace rtu

#endif // RTU_CORES_RTOSUNIT_PORT_HH
