/**
 * @file
 * CVA6-class timing model: a 6-stage application-class pipeline with
 * in-order issue, scoreboarded out-of-order write-back, a
 * write-through data cache and bus-level RTOSUnit arbitration
 * (paper Section 5.2).
 *
 * Modelled mechanisms:
 *  - scoreboard: independent instructions issue past long-latency
 *    producers (div/mul, cache-miss loads); consumers stall on RAW;
 *  - bimodal branch predictor; mispredictions cost a frontend flush;
 *  - write-through, no-write-allocate D$ with a draining store
 *    buffer; refills and write-throughs occupy the shared bus, which
 *    the RTOSUnit uses at lower priority (Section 5.2: bus-level
 *    arbitration trades mean latency for lower jitter);
 *  - interrupts are taken at issue boundaries *after draining*
 *    in-flight operations, so trap-entry latency is variable — the
 *    residual jitter the paper attributes to micro-architecture.
 */

#ifndef RTU_CORES_CVA6_HH
#define RTU_CORES_CVA6_HH

#include <array>

#include "cache.hh"
#include "core.hh"

namespace rtu {

struct Cva6Params
{
    unsigned trapEntryBase = 6;
    unsigned mretCycles = 7;
    unsigned mispredictPenalty = 5;
    unsigned jalCycles = 1;
    unsigned jalrCycles = 3;
    unsigned mulLatency = 2;
    unsigned divBaseLatency = 2;  ///< plus one per significant bit
    unsigned loadHitLatency = 2;
    unsigned missPenalty = 5;     ///< refill from single-cycle SRAM
    unsigned storeBufferDepth = 4;
    unsigned predictorEntries = 128;
    CacheParams cache{4 * 1024, 4, 16, /*writeBack=*/false};
};

/** The CVA6 timing state steady-loop replay compares at anchors. */
struct Cva6Timing
{
    Cycle issueReadyAt = 0;
    Cycle drainAt = 0;
    Cycle busBusyUntil = 0;
    unsigned storeBuf = 0;
    std::array<Cycle, 32> regReadyAt{};
};

class Cva6Core : public Core
{
  public:
    Cva6Core(const Env &env, SharedPort &bus_port,
             const Cva6Params &params = {});

    void tick(Cycle now) override;

    /** Earliest cycle the core can change observable state. */
    Cycle nextEventAt(Cycle now) const override;

    /** Bulk-advance stall/sleep cycles with a closed-form store-buffer
     *  drain. */
    void skipTo(Cycle now, Cycle target) override;

    /** Superblock fast path: issue straight-line runs up to the event
     *  horizon, verifying each word before it issues, and replaying
     *  steady loop iterations (LoopReplay). */
    [[gnu::aligned(64)]] Cycle blockRun(Cycle now, Cycle bound) override;

    CacheModel &dcache() { return dcache_; }

  private:
    template <class> friend class LoopReplay;

    /** Fetch and issue one instruction; updates timing state. */
    void issue(Cycle now);
    /** Issue @p insn, fetched from @p pc and past the RTOSUnit stall
     *  check (by value: a store may re-decode its own word). True if
     *  it retired, false on a RAW/structural stall or a trap. */
    bool issueDecoded(Cycle now, Addr pc, DecodedInsn insn);

    // LoopReplay hooks. An ALU/branch interval reads and writes the
    // issue boundary, the drain point and the scoreboard entries of
    // the registers it touches (@p regs); it reads the bus state only
    // through store-buffer drains and refills, which must be idle.
    void captureTiming(Cva6Timing &out) const;
    bool timingSteady(const Cva6Timing &before, Cycle a0, Cycle a1,
                      std::uint32_t regs) const;
    void shiftTiming(const Cva6Timing &before, Cycle d);

    Cva6Params params_;
    SharedPort &busPort_;
    CacheModel dcache_;

    /** Next cycle the issue stage may accept an instruction. */
    Cycle issueReadyAt_ = 0;
    /** Completion cycle per architectural register (scoreboard). */
    std::array<Cycle, 32> regReadyAt_{};
    /** Latest completion among issued instructions (trap drain). */
    Cycle drainAt_ = 0;
    /** Bus busy with core traffic until this cycle (refills/WT). */
    Cycle busBusyUntil_ = 0;
    /** Write-through store buffer occupancy. */
    unsigned storeBuf_ = 0;
    BimodalPredictor predictor_;
};

} // namespace rtu

#endif // RTU_CORES_CVA6_HH
