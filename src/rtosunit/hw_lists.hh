/**
 * @file
 * The hardware scheduler's ready and delay lists (paper Fig 5).
 *
 * Both lists are fixed-size slot arrays kept sorted by an iterative
 * in-place sorting network: one odd-even transposition phase per
 * clock cycle, restarted on every mutation. A list of N slots is
 * guaranteed sorted after N phases. While a sort is in flight the
 * head must not be sampled, so GET_HW_SCHED stalls — the modelled
 * source of the small residual jitter of the (T) configuration.
 *
 * Ready-list order: priority descending, FIFO among equal priorities
 * (stable via an insertion sequence number). Invalid slots sort to
 * the tail. Delay-list order: remaining delay ascending, ties broken
 * by priority descending.
 */

#ifndef RTU_RTOSUNIT_HW_LISTS_HH
#define RTU_RTOSUNIT_HW_LISTS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace rtu {

struct HwSlot
{
    bool valid = false;
    TaskId id = 0;
    Priority prio = 0;
    Word delay = 0;       ///< remaining ticks (delay list only)
    std::uint32_t seq = 0; ///< insertion order (stability)
};

/** Statistics shared by both lists (consumed by the power model). */
struct HwListStats
{
    std::uint64_t inserts = 0;
    std::uint64_t removes = 0;
    std::uint64_t pops = 0;
    std::uint64_t sortPhases = 0;
    std::uint64_t swaps = 0;
    unsigned maxOccupancy = 0;
};

class HwListBase
{
  public:
    explicit HwListBase(unsigned slots);
    virtual ~HwListBase() = default;

    /** One clock: perform a sort phase if unsorted. */
    void tick();

    /** True while the sorting network is still settling. */
    bool sorting() const { return phasesLeft_ > 0; }

    unsigned occupancy() const;
    unsigned capacity() const { return static_cast<unsigned>(slots_.size()); }
    bool full() const { return occupancy() == capacity(); }

    /** Clear valid bits of all slots matching @p id (RM_TASK). */
    void remove(TaskId id);

    const std::vector<HwSlot> &slots() const { return slots_; }
    const HwListStats &stats() const { return stats_; }

  protected:
    /** Strict ordering: should a sort before b? */
    virtual bool before(const HwSlot &a, const HwSlot &b) const = 0;

    void insertSlot(const HwSlot &slot);
    // Odd-even transposition sorts N elements in N phases; one extra
    // phase covers an arbitrary starting parity.
    void restartSort() { phasesLeft_ = capacity() + 1; }

    std::vector<HwSlot> slots_;
    std::uint32_t nextSeq_ = 0;
    unsigned phasesLeft_ = 0;
    bool phaseOdd_ = false;
    HwListStats stats_;
};

class HwReadyList : public HwListBase
{
  public:
    explicit HwReadyList(unsigned slots) : HwListBase(slots) {}

    /** ADD_READY: insert @p id with @p prio; a GuestFault when full. */
    void insert(TaskId id, Priority prio);

    /**
     * GET_HW_SCHED data path: return the head and requeue it at the
     * tail of its priority class (round-robin). Must only be called
     * when !sorting(). A GuestFault on an empty list (the kernel
     * guarantees an always-ready idle task). Optionally reports the
     * priority.
     */
    TaskId popHeadRoundRobin(Priority *prio = nullptr);

    /** Peek the head (used by the preloader). */
    bool peekHead(TaskId *id) const;

    /**
     * Pop the head and *remove* it (no round-robin requeue) — used by
     * the hardware-semaphore wait queues. Returns false on an empty
     * list. Must only be called when !sorting().
     */
    bool popHeadRemove(TaskId *id, Priority *prio);

  protected:
    bool before(const HwSlot &a, const HwSlot &b) const override;
};

class HwDelayList : public HwListBase
{
  public:
    HwDelayList(unsigned slots, HwReadyList &ready)
        : HwListBase(slots), ready_(ready)
    {}

    /** ADD_DELAY: insert the running task; a GuestFault when full or
     *  for zero @p ticks. */
    void insert(TaskId id, Priority prio, Word ticks);

    /** Timer interrupt: decrement every valid entry (paper Fig 5(e)). */
    void timerTick();

    /**
     * One expired entry per cycle migrates to the ready list (call
     * from the owner's tick, after the sort tick).
     */
    void transferTick();

    /** True while expired entries still await migration. */
    bool transferring() const;

  protected:
    bool before(const HwSlot &a, const HwSlot &b) const override;

  private:
    HwReadyList &ready_;
};

} // namespace rtu

#endif // RTU_RTOSUNIT_HW_LISTS_HH
