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

/** The CV32E40P timing state steady-loop replay compares at anchors:
 *  the pipeline is empty there, so only the hazard bookkeeping of the
 *  last instruction is left. No field is a cycle. */
struct Cv32e40pTiming
{
    bool lastWasLoad = false;
    RegIndex lastLoadRd = 0;
    bool abortable = false;
    unsigned divOperandBits = 0;
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
     *  event horizon with one bound check per block, replaying steady
     *  loop iterations (LoopReplay). */
    [[gnu::aligned(64)]] Cycle blockRun(Cycle now, Cycle bound) override;

  private:
    template <class> friend class LoopReplay;

    /** Cycles the instruction at hand occupies the pipeline. */
    unsigned costOf(const DecodedInsn &insn, const ExecResult &res) const;

    /** Load-use bubble cycles @p insn owes the previous instruction. */
    unsigned loadUseStall(const DecodedInsn &insn) const;

    /** Execute the image word @p word, verified for the block path at
     *  @p pc, advancing @p pc to the next instruction and @p t by the
     *  word's full pipeline occupancy, and record it in @p replay.
     *  @return true if that occupancy crosses @p bound: t is then the
     *  bound and the remainder resumes per-cycle. */
    bool blockStep(const DecodedInsn *word, Addr &pc, Cycle &t, Cycle bound,
                   LoopReplay<Cv32e40pTiming> &replay);

    // LoopReplay hooks: nothing of this state is a cycle, so a steady
    // interval leaves it equal and the shift has nothing to move.
    void
    captureTiming(Cv32e40pTiming &out) const
    {
        out = {lastWasLoad_, lastLoadRd_, abortable_, divOperandBits_};
    }
    bool
    timingSteady(const Cv32e40pTiming &before, Cycle, Cycle,
                 std::uint32_t) const
    {
        return before.lastWasLoad == lastWasLoad_ &&
               before.lastLoadRd == lastLoadRd_ &&
               before.abortable == abortable_ &&
               before.divOperandBits == divOperandBits_;
    }
    void shiftTiming(const Cv32e40pTiming &, Cycle) {}

    Cv32e40pParams params_;

    /** Remaining busy cycles of the instruction in flight. */
    unsigned remaining_ = 0;
    /** The in-flight op may be killed by an interrupt (mul/div). */
    bool abortable_ = false;
    /** Destination of the most recent load (load-use hazard). */
    RegIndex lastLoadRd_ = 0;
    bool lastWasLoad_ = false;
    /** Significant dividend bits of the div in flight (latency). */
    unsigned divOperandBits_ = 0;
};

} // namespace rtu

#endif // RTU_CORES_CV32E40P_HH
