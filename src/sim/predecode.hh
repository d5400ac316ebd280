/**
 * @file
 * Decode-once instruction store for the simulator front-end.
 *
 * Every busy cycle of the interpreter used to pay a full data-side
 * MemSystem dispatch (device routing + straddle checks) plus a
 * from-scratch field decode for the instruction at pc. A
 * PredecodedImage decodes the whole text segment once at program
 * install into a dense DecodedInsn array indexed by
 * (pc - text_base) >> 2, so the cores' fetch path collapses to a
 * bounds check and an array load.
 *
 * Soundness under self-modification: the image registers itself as the
 * MemSystem's write observer over the text range, so any store landing
 * in text — a guest store, an RTOSUnit FSM write, or an injected
 * memory-fault bit flip — re-decodes the touched words after the write
 * completes. Fetches outside the image (wild jumps from corrupted
 * contexts) fall back to the memory system and fault like the
 * pre-decode-less front-end did.
 */

#ifndef RTU_SIM_PREDECODE_HH
#define RTU_SIM_PREDECODE_HH

#include <cstdint>
#include <vector>

#include "asm/decode.hh"
#include "common/types.hh"
#include "mem.hh"

namespace rtu {

class PredecodedImage : public MemWriteObserver
{
  public:
    /**
     * Decode @p words instruction words starting at @p base out of
     * @p mem (which must already hold the program text) and watch the
     * range for writes. @p mem is retained for re-decodes.
     */
    void install(MemSystem &mem, Addr base, std::size_t words);

    bool installed() const { return !insns_.empty(); }

    /** True if @p pc hits the image (word-aligned and inside text). */
    bool
    covers(Addr pc) const
    {
        return pc - base_ < size_ && (pc & 3u) == 0;
    }

    /** The pre-decoded instruction at @p pc; covers(pc) must hold. */
    const DecodedInsn &
    at(Addr pc) const
    {
        return insns_[(pc - base_) >> 2];
    }

    /** Re-decode the words touched by a completed write. */
    void memWritten(Addr addr, MemSize size) override;

    /** Text-range writes that forced a re-decode (front-end counter). */
    std::uint64_t invalidations() const { return invalidations_; }

  private:
    MemSystem *mem_ = nullptr;
    Addr base_ = 0;
    Addr size_ = 0;  ///< bytes covered; base_ + size_ = text end
    std::vector<DecodedInsn> insns_;
    std::uint64_t invalidations_ = 0;
};

} // namespace rtu

#endif // RTU_SIM_PREDECODE_HH
