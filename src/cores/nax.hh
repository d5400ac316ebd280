/**
 * @file
 * NaxRiscv-class timing model: a superscalar out-of-order core with
 * register renaming, speculative execution and a write-back data
 * cache (paper Section 5.3).
 *
 * The model follows the classic dataflow-timing simplification:
 * instructions execute functionally in program order at dispatch (the
 * oracle front-end), while timing honours true dependencies
 * (renaming removes WAW/WAR), functional-unit contention, ROB
 * capacity, in-order commit, branch-resolution redirects and cache
 * behaviour. Wrong-path instructions are charged as front-end
 * redirect bubbles rather than executed. Custom RTOSUnit instructions
 * dispatch in order and non-speculatively by construction, matching
 * the paper's commit-coupled instruction queue (Fig 6) without extra
 * stalls.
 *
 * The RTOSUnit's memory interface is the paper's ctxQueue (Fig 8): an
 * 8-entry load/store queue that shares the D$ port with the core's
 * LSU at lower priority.
 */

#ifndef RTU_CORES_NAX_HH
#define RTU_CORES_NAX_HH

#include <array>
#include <deque>
#include <vector>

#include "cache.hh"
#include "core.hh"
#include "rtosunit/unit_mem.hh"

namespace rtu {

struct NaxParams
{
    unsigned robEntries = 32;
    unsigned trapEntryPenalty = 8;
    unsigned mretPenalty = 8;
    unsigned redirectPenalty = 2;   ///< after branch resolution
    unsigned mulLatency = 3;
    unsigned divBaseLatency = 4;    ///< plus one per significant bit
    unsigned loadHitLatency = 3;
    unsigned missPenalty = 8;       ///< line refill from 1-cycle SRAM
    unsigned writebackPenalty = 4;  ///< dirty victim eviction
    unsigned predictorEntries = 256;
    unsigned ctxQueueEntries = 8;   ///< paper: Pareto-optimal depth
    CacheParams cache{16 * 1024, 4, 32, /*writeBack=*/true};
};

/**
 * The ctxQueue: RTOSUnit requests buffered into the LSU, serviced one
 * per free D$-port cycle (paper Fig 8). Read responses return in
 * request order.
 */
class NaxCtxQueuePort : public UnitMemPort
{
  public:
    NaxCtxQueuePort(MemSystem &mem, CacheModel &dcache,
                    SharedPort &cache_port, const NaxParams &params)
        : mem_(mem), dcache_(dcache), cachePort_(cache_port),
          params_(params)
    {}

    bool
    canAccept() const override
    {
        return queue_.size() < params_.ctxQueueEntries;
    }

    void pushRead(Addr addr) override;
    void pushWrite(Addr addr, Word data) override;
    bool popResponse(Word *data) override;
    bool idle() const override;
    void tick() override;
    void skipCycles(Cycle delta) override { now_ += delta; }

  private:
    struct Entry
    {
        bool isRead = false;
        Addr addr = 0;
        Word data = 0;
        bool serviced = false;  ///< issued into the cache pipeline
        Cycle doneAt = 0;
    };

    MemSystem &mem_;
    CacheModel &dcache_;
    SharedPort &cachePort_;
    const NaxParams &params_;
    std::deque<Entry> queue_;
    std::deque<Word> responses_;
    Cycle now_ = 0;
    /** A miss blocks new issues until the refill completes. */
    Cycle pipeBlockedUntil_ = 0;
};

/**
 * The ROB's commit-cycle queue: a fixed ring of robEntries slots,
 * allocated once. Commit cycles are pushed in non-decreasing order, so
 * retiring is a pop from the head while the oldest entry has
 * committed.
 */
class CommitRing
{
  public:
    explicit CommitRing(unsigned capacity) : slots_(capacity) {}

    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == slots_.size(); }
    /** Commit cycle of the oldest in-flight instruction; !empty(). */
    Cycle front() const { return slots_[head_]; }

    void
    push(Cycle commit)
    {
        slots_[slotOf(count_)] = commit;
        ++count_;
    }

    /** Pop every entry that has committed by @p now. */
    void
    retire(Cycle now)
    {
        while (count_ > 0 && slots_[head_] <= now) {
            if (++head_ == slots_.size())
                head_ = 0;
            --count_;
        }
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

    std::size_t size() const { return count_; }

    /** Commit cycle of the @p i-th oldest in-flight entry. */
    Cycle at(std::size_t i) const { return slots_[slotOf(i)]; }

    /** Delay every in-flight commit by @p d cycles. */
    void
    shift(Cycle d)
    {
        for (std::size_t i = 0; i < count_; ++i)
            slots_[slotOf(i)] += d;
    }

  private:
    /** Ring slot of the @p i-th oldest entry. */
    std::size_t
    slotOf(std::size_t i) const
    {
        const std::size_t slot = head_ + i;
        return slot >= slots_.size() ? slot - slots_.size() : slot;
    }

    std::vector<Cycle> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

/** The NaxRiscv timing state steady-loop replay compares at anchors.
 *  The multiply/divide unit and the LSU are left out: ALU ops and
 *  branches never read or write them. */
struct NaxTiming
{
    /** ROB entries a snapshot holds; a fuller ROB is never steady. */
    static constexpr std::size_t kMaxRob = 64;

    Cycle dispatchBlockedUntil = 0;
    Cycle cacheBusyUntil = 0;
    Cycle lastCommitAt = 0;
    unsigned commitsAtLast = 0;
    Cycle drainAt = 0;
    std::array<Cycle, 2> aluFreeAt{};
    std::array<Cycle, 32> regReadyAt{};
    std::size_t robCount = 0;
    std::array<Cycle, kMaxRob> rob{};
};

class NaxCore : public Core
{
  public:
    NaxCore(const Env &env, const NaxParams &params = {});

    void tick(Cycle now) override;

    /** Earliest cycle the core can change observable state. */
    Cycle nextEventAt(Cycle now) const override;

    /** Bulk-advance stall/sleep cycles, retiring ROB entries exactly
     *  where the per-cycle path would. */
    void skipTo(Cycle now, Cycle target) override;

    /** Superblock fast path: dispatch straight-line runs up to the
     *  event horizon. Each dispatch group is pre-verified as a whole
     *  (slot 1 included, branch direction resolved via
     *  Executor::evalBranch) before slot 0 executes, because a bail
     *  between the slots would leave a half-dispatched pair the
     *  per-cycle path can never reproduce. Steady loop iterations are
     *  replayed (LoopReplay). */
    [[gnu::aligned(64)]] Cycle blockRun(Cycle now, Cycle bound) override;

    CacheModel &dcache() { return dcache_; }
    SharedPort &cachePort() { return cachePort_; }
    /** The RTOSUnit-side memory port (LSU ctxQueue, Fig 8). */
    UnitMemPort &ctxQueuePort() { return ctxPort_; }

  private:
    template <class> friend class LoopReplay;

    /** Instructions dispatched (and committed) per cycle. blockRun()'s
     *  group verification covers exactly two slots. */
    static constexpr unsigned kDispatchWidth = 2;

    /** Fetch and dispatch one instruction; false ends the group. */
    bool dispatchOne(Cycle now);
    /** Dispatch @p insn, fetched from @p pc into a free ROB entry and
     *  past the RTOSUnit stall check (by value: a slot-0 store may
     *  re-decode its own word). False ends the group (redirect, mret,
     *  wfi or trap). */
    bool dispatchDecoded(Cycle now, Addr pc, DecodedInsn insn);

    // LoopReplay hooks. The two ALU pipes are compared with each other
    // (the older one takes the next op), so both must be periodic; the
    // ROB must hold the same entries relative to the anchor.
    void captureTiming(NaxTiming &out) const;
    bool timingSteady(const NaxTiming &before, Cycle a0, Cycle a1,
                      std::uint32_t regs) const;
    void shiftTiming(const NaxTiming &before, Cycle d);

    NaxParams params_;
    CacheModel dcache_;
    SharedPort cachePort_;
    NaxCtxQueuePort ctxPort_;

    Cycle dispatchBlockedUntil_ = 0;
    std::array<Cycle, 32> regReadyAt_{};
    std::array<Cycle, 2> aluFreeAt_{};
    Cycle mulDivFreeAt_ = 0;
    Cycle lsuFreeAt_ = 0;
    Cycle cacheBusyUntil_ = 0;
    Cycle lastCommitAt_ = 0;
    unsigned commitsAtLast_ = 0;
    Cycle drainAt_ = 0;
    CommitRing rob_;  ///< commit cycles of in-flight insns
    BimodalPredictor predictor_;
};

} // namespace rtu

#endif // RTU_CORES_NAX_HH
