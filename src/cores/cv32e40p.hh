/**
 * @file
 * CV32E40P-class timing model: a microcontroller-grade 4-stage
 * in-order pipeline (paper Section 5.1).
 *
 * Key properties reproduced:
 *  - single issue, one instruction in execution at a time;
 *  - tightly-coupled single-cycle instruction and data SRAM
 *    (no caches), so loads/stores occupy the shared DMEM port for
 *    exactly one cycle;
 *  - deterministic interrupt entry: in-flight multi-cycle operations
 *    (div) are killed so the trap is taken with constant latency —
 *    the property that lets the (SLT) configuration eliminate jitter
 *    entirely (paper Section 6.1);
 *  - data-dependent divider latency, taken-branch and jump penalties,
 *    load-use hazard stall.
 */

#ifndef RTU_CORES_CV32E40P_HH
#define RTU_CORES_CV32E40P_HH

#include <cstdint>

#include "core.hh"

namespace rtu {

struct Cv32e40pParams
{
    unsigned trapEntryCycles = 4;   ///< constant interrupt entry
    unsigned mretCycles = 5;        ///< pipeline refill on return
    unsigned takenBranchCycles = 3; ///< branch resolved in EX
    unsigned jumpCycles = 2;
    unsigned loadUseStall = 1;
    unsigned divBaseCycles = 3;     ///< plus one per significant bit
};

class Cv32e40pCore : public Core
{
  public:
    Cv32e40pCore(const Env &env, const Cv32e40pParams &params = {})
        : Core(env), params_(params)
    {}

    void tick(Cycle now) override;

    /** Earliest cycle the core can change observable state. */
    Cycle nextEventAt(Cycle now) const override;

    /** Bulk-advance a fixed-latency stall or wfi sleep. */
    void skipTo(Cycle now, Cycle target) override;

    /** Superblock fast path: execute straight-line runs up to the
     *  event horizon with one bound check per block. */
    Cycle blockRun(Cycle now, Cycle bound) override;

    const char *name() const override { return "cv32e40p"; }

  private:
    /** Cycles the instruction at hand occupies the pipeline. */
    unsigned costOf(const DecodedInsn &insn, const ExecResult &res) const;

    /** True while a custom-instruction / mret stall condition holds. */
    bool stalledByUnit(const DecodedInsn &insn) const;

    /** Outcome of one in-block instruction step. */
    enum class BlockStep
    {
        kDone,     ///< retired, run continues at the next word
        kControl,  ///< retired a branch/jump: block boundary
        kBailMem,  ///< unsafe access, nothing executed: fall back
        kHorizon,  ///< issued, stall crosses the bound: window full
    };
    /** Execute the (pre-validated non-stop) instruction at pc; @p t is
     *  advanced by the instruction's full pipeline occupancy. */
    BlockStep blockStep(Cycle &t, Cycle bound);

    Cv32e40pParams params_;

    /** Remaining busy cycles of the instruction in flight. */
    unsigned remaining_ = 0;
    /** The in-flight op may be killed by an interrupt (mul/div). */
    bool abortable_ = false;
    /** Pending mret-completion notification at the end of the stall. */
    bool mretInFlight_ = false;
    /** Destination of the most recent load (load-use hazard). */
    RegIndex lastLoadRd_ = 0;
    bool lastWasLoad_ = false;
    /** Sleeping in wfi. */
    bool sleeping_ = false;
    /** Significant dividend bits of the div in flight (latency). */
    unsigned divOperandBits_ = 0;
};

} // namespace rtu

#endif // RTU_CORES_CV32E40P_HH
