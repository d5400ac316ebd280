#include "hw_lists.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rtu {

HwListBase::HwListBase(unsigned slots)
{
    rtu_assert(slots > 0, "hardware list needs at least one slot");
    slots_.resize(slots);
}

unsigned
HwListBase::occupancy() const
{
    unsigned n = 0;
    for (const HwSlot &s : slots_)
        n += s.valid ? 1 : 0;
    return n;
}

void
HwListBase::insertSlot(const HwSlot &slot)
{
    for (HwSlot &s : slots_) {
        if (!s.valid) {
            s = slot;
            s.seq = nextSeq_++;
            s.valid = true;
            ++stats_.inserts;
            stats_.maxOccupancy = std::max(stats_.maxOccupancy,
                                           occupancy());
            restartSort();
            return;
        }
    }
    // A guest can add more tasks than the list holds: the paper's
    // fallback to software scheduling is out of scope, so the act is
    // the guest's architectural error.
    guest_fault("hardware list overflow (%u slots)", capacity());
}

void
HwListBase::remove(TaskId id)
{
    bool any = false;
    for (HwSlot &s : slots_) {
        if (s.valid && s.id == id) {
            s.valid = false;
            any = true;
        }
    }
    if (any) {
        ++stats_.removes;
        restartSort();
    }
}

void
HwListBase::tick()
{
    if (phasesLeft_ == 0)
        return;
    ++stats_.sortPhases;
    // Odd-even transposition phase: compare-exchange all disjoint
    // adjacent pairs starting at 0 (even phase) or 1 (odd phase).
    // Invalid slots order after all valid slots.
    const unsigned n = capacity();
    for (unsigned i = phaseOdd_ ? 1 : 0; i + 1 < n; i += 2) {
        HwSlot &a = slots_[i];
        HwSlot &b = slots_[i + 1];
        const bool swap = b.valid && (!a.valid || before(b, a));
        if (swap) {
            std::swap(a, b);
            ++stats_.swaps;
        }
    }
    phaseOdd_ = !phaseOdd_;
    --phasesLeft_;
}

// ---- ready list -------------------------------------------------------

bool
HwReadyList::before(const HwSlot &a, const HwSlot &b) const
{
    if (a.prio != b.prio)
        return a.prio > b.prio;
    return a.seq < b.seq;  // FIFO within a priority class
}

void
HwReadyList::insert(TaskId id, Priority prio)
{
    HwSlot s;
    s.id = id;
    s.prio = prio;
    insertSlot(s);
}

bool
HwReadyList::peekHead(TaskId *id) const
{
    if (!slots_[0].valid)
        return false;
    *id = slots_[0].id;
    return true;
}

TaskId
HwReadyList::popHeadRoundRobin(Priority *prio)
{
    rtu_assert(!sorting(), "ready-list head sampled while sorting");
    HwSlot &head = slots_[0];
    if (!head.valid)
        guest_fault("hardware ready list empty: no runnable task (the "
                    "kernel must keep the idle task ready)");
    const TaskId id = head.id;
    if (prio)
        *prio = head.prio;
    // Requeue at the tail of its priority class: newest sequence
    // number, then let the sorting network re-settle.
    head.seq = nextSeq_++;
    ++stats_.pops;
    restartSort();
    return id;
}

bool
HwReadyList::popHeadRemove(TaskId *id, Priority *prio)
{
    rtu_assert(!sorting(), "wait-queue head sampled while sorting");
    HwSlot &head = slots_[0];
    if (!head.valid)
        return false;
    *id = head.id;
    *prio = head.prio;
    head.valid = false;
    ++stats_.pops;
    restartSort();
    return true;
}

// ---- delay list -------------------------------------------------------

bool
HwDelayList::before(const HwSlot &a, const HwSlot &b) const
{
    if (a.delay != b.delay)
        return a.delay < b.delay;
    if (a.prio != b.prio)
        return a.prio > b.prio;
    return a.seq < b.seq;
}

void
HwDelayList::insert(TaskId id, Priority prio, Word ticks)
{
    if (ticks == 0)
        guest_fault("rtu.adddelay: zero-tick delay for task %u", id);
    HwSlot s;
    s.id = id;
    s.prio = prio;
    s.delay = ticks;
    insertSlot(s);
}

void
HwDelayList::timerTick()
{
    bool changed = false;
    for (HwSlot &s : slots_) {
        if (s.valid && s.delay > 0) {
            --s.delay;
            changed = true;
        }
    }
    if (changed)
        restartSort();
}

bool
HwDelayList::transferring() const
{
    for (const HwSlot &s : slots_) {
        if (s.valid && s.delay == 0)
            return true;
    }
    return false;
}

void
HwDelayList::transferTick()
{
    // Expired-entry detection is a parallel comparator per slot, so a
    // transfer can proceed even while the sorting network settles.
    for (HwSlot &s : slots_) {
        if (s.valid && s.delay == 0) {
            s.valid = false;
            ready_.insert(s.id, s.prio);
            restartSort();
            return;  // one migration per cycle
        }
    }
}

} // namespace rtu
