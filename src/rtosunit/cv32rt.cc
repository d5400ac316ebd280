#include "cv32rt.hh"

#include "common/logging.hh"

namespace rtu {

void
Cv32rtUnit::onTrapEntry(Word cause)
{
    (void)cause;
    rtu_assert(!drainBusy(), "interrupt re-entered while the CV32RT "
               "drain is still in flight");
    // Single-cycle parallel snapshot of the upper register-file half.
    for (unsigned i = 0; i < kSnapWords; ++i) {
        snapshot_[i] = state_.bankReg(
            ArchState::kAppBank,
            static_cast<RegIndex>(kFirstSnapReg + i));
    }
    // The kernel's ISR allocates its frame immediately below the
    // interrupted stack pointer; the hardware half starts at a fixed
    // offset inside it.
    const Word sp = state_.bankReg(ArchState::kAppBank, 2);
    drainBase_ = sp - kFrameBytes + kHwSlotOffset;
    drainIdx_ = 0;
    ++stats_.snapshots;
}

void
Cv32rtUnit::tick(Cycle now)
{
    if (!drainBusy())
        return;
    mem_.write32(drainBase_ + 4 * drainIdx_, snapshot_[drainIdx_]);
    ++stats_.drainedWords;
    ++drainIdx_;
    if (!drainBusy()) {
        if (cache_) {
            // The dedicated port bypassed the write-back cache; the
            // lines covering the drained words must be invalidated.
            cache_->invalidateRange(drainBase_, kSnapWords * 4);
        }
        if (phaseObserver_)
            phaseObserver_->phaseReached(SwitchPhase::kStoreDone, now);
    }
}

bool
Cv32rtUnit::stalls(Op op) const
{
    if (op != Op::kSwitchRf)
        return false;
    const bool stall = drainBusy();
    if (stall)
        ++stats_.barrierStallCycles;
    return stall;
}

} // namespace rtu
