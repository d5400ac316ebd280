/**
 * @file
 * Memory access abstraction for the RTOSUnit's FSMs.
 *
 * The unit pushes at most one request per cycle; the port decides
 * acceptance (arbitration against the core, queue capacity) and
 * delivers read responses strictly in request order. Two
 * implementations exist:
 *  - DirectUnitPort: single-cycle tightly-coupled SRAM behind the
 *    shared LSU port (CV32E40P, paper Section 5.1) or the shared bus
 *    (CVA6, Section 5.2);
 *  - the NaxRiscv LSU ctxQueue port (Section 5.3, Fig 8), defined with
 *    the NaxRiscv core model.
 * The CV32RT baseline's dedicated port needs no model: its drain only
 * writes, one word per cycle, uncontended (see Cv32rtUnit).
 */

#ifndef RTU_RTOSUNIT_UNIT_MEM_HH
#define RTU_RTOSUNIT_UNIT_MEM_HH

#include <cstdint>
#include <deque>

#include "common/types.hh"
#include "sim/mem.hh"

namespace rtu {

/** Cache back-invalidation hook (implemented by cache models). */
class UnitCacheHook
{
  public:
    virtual ~UnitCacheHook() = default;
    virtual void invalidateRange(Addr base, unsigned bytes) = 0;
};

struct UnitMemStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rejectCycles = 0;  ///< canAccept() sampled false
};

class UnitMemPort
{
  public:
    virtual ~UnitMemPort() = default;

    /** May one request be pushed this cycle? */
    virtual bool canAccept() const = 0;

    virtual void pushRead(Addr addr) = 0;
    virtual void pushWrite(Addr addr, Word data) = 0;

    /** Pop the next in-order read response if one is ready. */
    virtual bool popResponse(Word *data) = 0;

    /** No requests in flight: writes drained, responses delivered. */
    virtual bool idle() const = 0;

    /** Advance internal pipelining one cycle. */
    virtual void tick() = 0;

    /** Bulk-advance an internal clock across @p delta quiescent
     *  cycles (ports without one ignore this). */
    virtual void skipCycles(Cycle delta) { (void)delta; }

    UnitMemStats &stats() { return stats_; }

  protected:
    UnitMemStats stats_;
};

/**
 * One word per cycle against single-cycle SRAM, arbitrated on a
 * SharedPort where the core has priority (paper Section 4.2(2)).
 */
class DirectUnitPort : public UnitMemPort
{
  public:
    DirectUnitPort(SharedPort &arb, MemSystem &mem)
        : arb_(arb), mem_(mem)
    {}

    bool
    canAccept() const override
    {
        return arb_.available();
    }

    void
    pushRead(Addr addr) override
    {
        const bool granted = arb_.tryUse();
        rtu_assert(granted, "pushRead without arbitration grant");
        responses_.push_back(mem_.read32(addr));
        ++stats_.reads;
    }

    void
    pushWrite(Addr addr, Word data) override
    {
        const bool granted = arb_.tryUse();
        rtu_assert(granted, "pushWrite without arbitration grant");
        mem_.write32(addr, data);
        ++stats_.writes;
    }

    bool
    popResponse(Word *data) override
    {
        if (responses_.empty())
            return false;
        *data = responses_.front();
        responses_.pop_front();
        return true;
    }

    bool idle() const override { return responses_.empty(); }

    void tick() override {}

  private:
    SharedPort &arb_;
    MemSystem &mem_;
    std::deque<Word> responses_;
};

} // namespace rtu

#endif // RTU_RTOSUNIT_UNIT_MEM_HH
