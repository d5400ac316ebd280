/**
 * @file
 * The narrow interface a core sees of the RTOSUnit (and of the CV32RT
 * comparison unit): five methods. implements() names the custom ops
 * the unit has, execute() applies one of them, stalls() is the stall
 * condition sampled before an op issues, and two hooks mark the trap
 * boundaries.
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
     *  custom op, so execute() only sees the unit's own ops. */
    virtual bool implements(Op op) const = 0;

    /** Functional semantics of custom op @p op on the source register
     *  values. @return the rd value of the ops that write rd
     *  (GET_HW_SCHED, SEM_TAKE, SEM_GIVE); 0 for the others. */
    virtual Word execute(Op op, Word rs1, Word rs2) = 0;

    /** True while @p op (a custom op or mret) must wait, sampled
     *  before it issues: SWITCH_RF on the store FSM (Section 4.2),
     *  GET_HW_SCHED on a mid-sort ready list, SEM_TAKE/SEM_GIVE on a
     *  mid-sort wait queue, mret on the context restore (Section 4.3). */
    virtual bool stalls(Op op) const = 0;

    /** Interrupt entry: RF bank switch + store FSM start + delay tick. */
    virtual void onTrapEntry(Word cause) = 0;
    /** mret executed: automatic RF bank switch back (with (L)). */
    virtual void onMretExecuted() = 0;
};

} // namespace rtu

#endif // RTU_CORES_RTOSUNIT_PORT_HH
