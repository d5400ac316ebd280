#include "clint.hh"

#include "common/logging.hh"

namespace rtu {

Word
Clint::read(Addr addr, MemSize size)
{
    // A guest's bad access is a bus error it must survive, not a
    // simulator bug: raise RISC-V access-fault semantics.
    if (size != MemSize::kWord)
        guest_fault("CLINT read of %u bytes at 0x%08x: word access only",
                    static_cast<unsigned>(size), addr);
    switch (addr) {
      case memmap::kClintMsip:
        return msip_;
      case memmap::kClintMtimecmp:
        return static_cast<Word>(mtimecmp_);
      case memmap::kClintMtimecmpHi:
        return static_cast<Word>(mtimecmp_ >> 32);
      case memmap::kClintMtime:
        return static_cast<Word>(mtime_);
      case memmap::kClintMtimeHi:
        return static_cast<Word>(mtime_ >> 32);
      default:
        guest_fault("CLINT read at unsupported offset 0x%08x", addr);
    }
}

void
Clint::write(Addr addr, Word value, MemSize size)
{
    if (size != MemSize::kWord)
        guest_fault("CLINT write of %u bytes at 0x%08x: word access only",
                    static_cast<unsigned>(size), addr);
    switch (addr) {
      case memmap::kClintMsip:
        msip_ = value & 1;
        break;
      case memmap::kClintMtimecmp:
        mtimecmp_ = (mtimecmp_ & 0xFFFF'FFFF'0000'0000ULL) | value;
        break;
      case memmap::kClintMtimecmpHi:
        mtimecmp_ = (mtimecmp_ & 0xFFFF'FFFFULL) |
                    (static_cast<DWord>(value) << 32);
        break;
      default:
        guest_fault("CLINT write at unsupported offset 0x%08x", addr);
    }
    updateLevels(now_);
}

void
Clint::tick(Cycle now)
{
    now_ = now;
    ++mtime_;
    updateLevels(now);
}

Cycle
Clint::nextEventAt(Cycle now) const
{
    // MSI levels only move inside write() (which updates them
    // synchronously), so a tick never changes them — unless some
    // state drift left the line out of sync. Be conservative then.
    if ((msip_ != 0) != ((lines_.pending() & irq::kMsi) != 0))
        return now;

    bool mtiPending = (lines_.pending() & irq::kMti) != 0;
    if (mtiPending) {
        // timerTaken() may have advanced mtimecmp past mtime while
        // the line is still raised; the very next tick clears it.
        // (mtime_ + 1 is evaluated mod 2^64 on purpose: at
        // mtime == ~0 the next tick wraps mtime to 0, and the wrapped
        // value is exactly what the comparison must use.)
        if (mtime_ + 1 < mtimecmp_)
            return now;
        if (mtimecmp_ == 0)
            return kNoEvent;  // every mtime satisfies mtime >= 0
        // The line stays raised until mtime wraps below mtimecmp —
        // 2^64 - mtime ticks away (== 0 - mtime_ in DWord arithmetic).
        // Far beyond any realistic run, but kNoEvent here would let a
        // fast-forward skip straight past the wrap-induced clear.
        const DWord toWrap = DWord{0} - mtime_;
        if (toWrap - 1 >= kNoEvent - now)
            return kNoEvent;  // unreachable within the cycle space
        return now + (toWrap - 1);
    }
    // Not pending means mtime < mtimecmp (levels are re-derived every
    // tick), so this difference cannot underflow — even with both
    // values pressed against the uint64 ceiling.
    if (mtimecmp_ - mtime_ <= 1)
        return now;  // next tick raises MTIP
    // The tick at now + (mtimecmp - mtime - 1) brings mtime up to
    // mtimecmp and raises the line.
    DWord delta = mtimecmp_ - mtime_ - 1;
    if (delta >= kNoEvent - now)
        return kNoEvent;  // unreachable deadline (e.g. cmp = ~0)
    return now + delta;
}

void
Clint::skipTo(Cycle now, Cycle target)
{
    // Replicates `target - now` pure ticks: mtime advances, levels
    // provably don't move (guaranteed by nextEventAt), and now_ ends
    // up where the last replicated tick would have left it.
    mtime_ += target - now;
    now_ = target - 1;
}

void
Clint::updateLevels(Cycle now)
{
    if (mtime_ >= mtimecmp_)
        lines_.raise(irq::kMti, now);
    else
        lines_.clear(irq::kMti);

    if (msip_)
        lines_.raise(irq::kMsi, now);
    else
        lines_.clear(irq::kMsi);
}

} // namespace rtu
