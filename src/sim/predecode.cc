#include "predecode.hh"

#include "common/logging.hh"

namespace rtu {

void
PredecodedImage::install(MemSystem &mem, Addr base, std::size_t words)
{
    rtu_assert((base & 3u) == 0, "text base 0x%08x is not word-aligned",
               base);
    mem_ = &mem;
    base_ = base;
    size_ = static_cast<Addr>(4 * words);
    insns_.resize(words);
    for (std::size_t i = 0; i < words; ++i)
        insns_[i] = decode(mem.read32(base + 4 * static_cast<Addr>(i)));
    mem.setWriteObserver(base_, size_, this);
}

void
PredecodedImage::memWritten(Addr addr, MemSize size)
{
    // A sub-word store touches one word; an unaligned word store can
    // straddle two. Re-decode every word the byte range overlaps,
    // clamped to the image.
    const Addr first = addr & ~Addr{3};
    const Addr last = (addr + static_cast<Addr>(size) - 1) & ~Addr{3};
    for (Addr w = first; w <= last; w += 4) {
        if (w - base_ >= size_)
            continue;
        insns_[(w - base_) >> 2] = decode(mem_->read32(w));
        ++invalidations_;
    }
}

} // namespace rtu
