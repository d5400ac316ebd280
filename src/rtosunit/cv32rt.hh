/**
 * @file
 * Re-implementation of the CV32RT comparison baseline (Balas et al.,
 * paper Section 6): on interrupt entry, half the register file
 * (x16..x31) is snapshotted into a shadow bank in a single cycle and
 * drained to the task's stack frame in the background through a
 * *dedicated* memory port. The other half of the context, scheduling
 * and the entire restore path remain in software.
 *
 * The drain destination follows the kernel's fixed ISR frame
 * convention: the frame is 128 bytes below the interrupted stack
 * pointer, with the hardware-saved half at slots 14..29 (see
 * kernel/layout.hh). The dedicated port never contends with the core,
 * so the drain writes one word per cycle straight to memory. On
 * NaxRiscv the dedicated port bypasses the write-back data cache, and
 * the affected lines are invalidated (paper Section 6, CV32RT variant
 * description).
 */

#ifndef RTU_RTOSUNIT_CV32RT_HH
#define RTU_RTOSUNIT_CV32RT_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "cores/arch_state.hh"
#include "cores/rtosunit_port.hh"
#include "sim/kernel.hh"
#include "sim/mem.hh"
#include "trace/trace.hh"
#include "unit_mem.hh"

namespace rtu {

struct Cv32rtStats
{
    std::uint64_t snapshots = 0;
    std::uint64_t drainedWords = 0;
    std::uint64_t barrierStallCycles = 0;
};

class Cv32rtUnit : public RtosUnitPort, public Clocked
{
  public:
    /** Snapshot covers x16..x31. */
    static constexpr RegIndex kFirstSnapReg = 16;
    static constexpr unsigned kSnapWords = 16;
    /** ISR frame: 32 words; hardware half at word offset 14. */
    static constexpr unsigned kFrameBytes = 128;
    static constexpr unsigned kHwSlotOffset = 14 * 4;

    Cv32rtUnit(ArchState &state, MemSystem &mem,
               UnitCacheHook *cache = nullptr)
        : state_(state), mem_(mem), cache_(cache)
    {}

    void tick(Cycle now) override;

    /** `now` while the background drain is busy. */
    Cycle
    nextEventAt(Cycle now) const override
    {
        return drainBusy() ? now : kNoEvent;
    }

    /** Phase tracing: store-done fires when the drain completes. */
    void setPhaseObserver(PhaseObserver *observer)
    {
        phaseObserver_ = observer;
    }

    // ---- RtosUnitPort ---------------------------------------------------
    /** Only SWITCH_RF, re-purposed as the drain barrier. The other
     *  custom ops are illegal instructions under CV32RT. */
    bool implements(Op op) const override { return op == Op::kSwitchRf; }
    /** The barrier has no effect of its own once it issues. */
    Word execute(Op, Word, Word) override { return 0; }
    /** SWITCH_RF waits for the drain; each stalled cycle counts toward
     *  barrierStallCycles. Nothing else stalls. */
    bool stalls(Op op) const override;
    void onTrapEntry(Word cause) override;
    void onMretExecuted() override {}

    bool drainBusy() const { return drainIdx_ < kSnapWords; }
    const Cv32rtStats &stats() const { return stats_; }

  private:
    ArchState &state_;
    MemSystem &mem_;
    UnitCacheHook *cache_;
    PhaseObserver *phaseObserver_ = nullptr;

    std::array<Word, kSnapWords> snapshot_{};
    Addr drainBase_ = 0;
    unsigned drainIdx_ = kSnapWords;  ///< == kSnapWords when idle

    mutable Cv32rtStats stats_;
};

} // namespace rtu

#endif // RTU_RTOSUNIT_CV32RT_HH
