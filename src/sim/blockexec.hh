/**
 * @file
 * Superblock index over the pre-decoded text segment.
 *
 * The pre-decoded image (predecode.hh) removed decode work from the
 * per-cycle path; the remaining interpreter cost on compute-bound
 * workloads is per-instruction dispatch and timing-model bookkeeping.
 * A BlockIndex partitions the text segment into superblocks —
 * straight-line runs ending at a control transfer — and precomputes,
 * per word, the summaries a core needs to execute a whole run inside
 * one kernel fast-forward window with a single horizon check:
 *
 *  - stop/control/memory classification flags (which instructions may
 *    never execute in-block and which terminate a run);
 *  - the run length to the block terminator;
 *  - a worst-case static cycle cost of the remaining run under the
 *    CV32E40P timing model, including the decode-time-resolvable
 *    load-use stall schedule (the in-order single-issue model is the
 *    only one whose block cost is a pure function of the instruction
 *    words; CVA6/Nax carry dynamic scoreboard and cache state, so
 *    their fast paths re-check the horizon per instruction instead);
 *  - whether the remaining run contains a store (a store may rewrite
 *    the very block being executed, so such runs must re-read their
 *    summaries per instruction).
 *
 * Soundness under self-modification: the index registers as the
 * pre-decoded image's invalidation listener. Every re-decoded word —
 * guest store, RTOSUnit FSM write, injected bit flip — recomputes that
 * word's flags and then re-forms every block whose summary depended on
 * it by walking backward while the recomputed summaries change. A
 * store straddling a block boundary therefore invalidates both blocks,
 * not just the two touched words.
 */

#ifndef RTU_SIM_BLOCKEXEC_HH
#define RTU_SIM_BLOCKEXEC_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "predecode.hh"

namespace rtu {

/**
 * CV32E40P timing parameters. They live here, below the cores, because
 * the block index precomputes worst-case CV32E40P block costs from the
 * same values the core charges; the WCET analyzer reads them too.
 */
struct Cv32e40pParams
{
    unsigned trapEntryCycles = 4;   ///< constant interrupt entry
    unsigned mretCycles = 5;        ///< pipeline refill on return
    unsigned takenBranchCycles = 3; ///< branch resolved in EX
    unsigned jumpCycles = 2;
    unsigned loadUseStall = 1;
    unsigned divBaseCycles = 3;     ///< plus one per significant bit
};

/** The parameters a BlockIndex costs its blocks with. */
using Cv32e40pCostParams = Cv32e40pParams;

class BlockIndex : public PredecodeListener
{
  public:
    /** Per-word classification flags. */
    enum : std::uint8_t {
        /** May trap, touch CSRs/devices via side channels, or stall on
         *  the RTOSUnit: never executed in-block (CSR, system, custom,
         *  invalid encodings). */
        kStop = 1u << 0,
        /** Branch or jump: executable in-block, terminates the run. */
        kControl = 1u << 1,
        /** Load or store: needs an address pre-check before in-block
         *  execution (MMIO/host-IO must fall back to single-step). */
        kMem = 1u << 2,
        /** Store (subset of kMem): may modify text. */
        kStoreOp = 1u << 3,
        /** The previous word is a load whose destination this word
         *  consumes (decode-time load-use stall schedule). */
        kHazPrev = 1u << 4,
        /** A store occurs somewhere in [word, block end]. */
        kSuffixStore = 1u << 5,
    };

    /**
     * Build the index over @p image (which must be installed) and
     * subscribe to its invalidations. @p cost parameterizes the static
     * CV32E40P worst-case block costs.
     */
    void install(PredecodedImage &image, const Cv32e40pParams &cost);

    bool installed() const { return !flags_.empty(); }

    /** True if @p pc has an index entry (word-aligned, inside text). */
    bool
    covers(Addr pc) const
    {
        return pc - base_ < size_ && (pc & 3u) == 0;
    }

    /** Classification flags of the word at @p pc; covers(pc) holds. */
    std::uint8_t
    flagsAt(Addr pc) const
    {
        return flags_[(pc - base_) >> 2];
    }

    /** Instructions from @p pc to the block terminator, terminator
     *  included; 0 for stop words (no in-block execution at all). */
    std::uint32_t
    runLenAt(Addr pc) const
    {
        return runLen_[(pc - base_) >> 2];
    }

    /** Worst-case CV32E40P cycles to execute runLenAt(pc) straight-
     *  line instructions starting at @p pc. Does not include a
     *  load-use stall inherited from before the block — callers add
     *  one loadUseStall of margin at block entry. */
    std::uint32_t
    worstCyclesAt(Addr pc) const
    {
        return suffixWorst_[(pc - base_) >> 2];
    }

    /** Block-summary words recomputed by text writes. Each re-decoded
     *  word re-forms every block whose summary depended on it, so this
     *  is at least the pre-decoded image's invalidation count. */
    std::uint64_t invalidations() const { return invalidations_; }

    /** PredecodeListener: word @p index was re-decoded in place. */
    void wordRedecoded(std::size_t index) override;

  private:
    std::uint8_t classify(const DecodedInsn &insn) const;
    bool hazardPair(const DecodedInsn &prev, const DecodedInsn &cur) const;
    unsigned worstCostOf(const DecodedInsn &insn) const;
    /** Recompute runLen/worst/suffix-store of word @p i from its flags
     *  and word i+1's summaries. @return true if anything changed. */
    bool recomputeSummary(std::size_t i);

    const PredecodedImage *image_ = nullptr;
    Cv32e40pParams cost_;
    Addr base_ = 0;
    Addr size_ = 0;  ///< bytes covered
    std::vector<std::uint8_t> flags_;
    std::vector<std::uint32_t> runLen_;
    std::vector<std::uint32_t> suffixWorst_;
    std::uint64_t invalidations_ = 0;
};

} // namespace rtu

#endif // RTU_SIM_BLOCKEXEC_HH
