#include "hostio.hh"

#include "common/logging.hh"

namespace rtu {

Word
HostIo::read(Addr addr, MemSize size)
{
    // A guest's bad access is a bus error it must survive, not a
    // simulator bug: raise RISC-V access-fault semantics.
    if (size != MemSize::kWord)
        guest_fault("host I/O read of %u bytes at 0x%08x: word access only",
                    static_cast<unsigned>(size), addr);
    switch (addr) {
      case memmap::kHostCycleLo:
        return static_cast<Word>(cycleNow());
      case memmap::kHostCycleHi:
        return static_cast<Word>(cycleNow() >> 32);
      case memmap::kHostRand:
        // xorshift32: deterministic across runs, data-dependent enough
        // to vary workload compute phases.
        rng_ ^= rng_ << 13;
        rng_ ^= rng_ >> 17;
        rng_ ^= rng_ << 5;
        return rng_;
      default:
        guest_fault("host I/O read at unsupported offset 0x%08x", addr);
    }
}

void
HostIo::write(Addr addr, Word value, MemSize size)
{
    // The putchar register also takes byte stores.
    if (size != MemSize::kWord && addr != memmap::kHostPutchar)
        guest_fault("host I/O write of %u bytes at 0x%08x: word access only",
                    static_cast<unsigned>(size), addr);
    switch (addr) {
      case memmap::kHostPutchar:
        console_.push_back(static_cast<char>(value & 0xFF));
        break;
      case memmap::kHostExit:
        exited_ = true;
        exitCode_ = value;
        break;
      case memmap::kHostTrace:
        events_.push_back({cycleNow(), static_cast<std::uint8_t>(value >> 24),
                           value & 0x00FF'FFFF});
        break;
      case memmap::kHostExtAck:
        ext_.ack(lines_);
        break;
      default:
        guest_fault("host I/O write at unsupported offset 0x%08x", addr);
    }
}

std::vector<GuestEvent>
HostIo::eventsWithTag(std::uint8_t t) const
{
    std::vector<GuestEvent> out;
    for (const GuestEvent &e : events_) {
        if (e.tag == t)
            out.push_back(e);
    }
    return out;
}

} // namespace rtu
