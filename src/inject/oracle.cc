#include "oracle.hh"

#include <cstdarg>

#include "common/logging.hh"
#include "cores/arch_state.hh"
#include "rtosunit/hw_lists.hh"

namespace rtu {

using namespace kernel;

namespace {

/** Registers a context switch must preserve: x1, x2, x5..x31 (x3/x4
 *  are never saved — the generated kernel and tasks don't use gp/tp,
 *  matching the paper's 29-word context). */
bool
savedReg(unsigned r)
{
    return r == 1 || r == 2 || (r >= 5 && r <= 31);
}

/** Cap on stored hit details; hitCount() keeps the full tally. */
constexpr unsigned kMaxStoredHits = 32;

/** Ready-list names for the detail text, by priority (a constant
 *  table: the list walk runs on every mret). */
constexpr std::array<const char *, 8> kReadyListNames = {
    "ready list 0", "ready list 1", "ready list 2", "ready list 3",
    "ready list 4", "ready list 5", "ready list 6", "ready list 7",
};
static_assert(kReadyListNames.size() == kNumPriorities,
              "one ready-list name per priority");

} // namespace

KernelOracle::KernelOracle(Simulation &sim, const RtosUnitConfig &unit)
    : sim_(sim), unit_(unit)
{
    taskTableAddr_ = sim_.symbolAddr("k_task_table");
    currentTcbAddr_ = sim_.symbolAddr("k_current_tcb");
    if (!unit_.sched) {
        readyListsAddr_ = sim_.symbolAddr("k_ready_lists");
        delaySentinelAddr_ = sim_.symbolAddr("k_delay_sentinel");
        topReadyPrioAddr_ = sim_.symbolAddr("k_top_ready_prio");
    }
    // One stack symbol exists per created task; probe to find them.
    for (unsigned i = 0; i < kMaxTasks; ++i)
        stackBase_[i] = sim_.findSymbolAddr(csprintf("k_stack_%u", i));
    isrStackBase_ = sim_.symbolAddr("k_isr_stack");
}

void
KernelOracle::plantCanaries()
{
    for (unsigned i = 0; i < kMaxTasks; ++i) {
        if (stackBase_[i] != 0)
            sim_.mem().write32(stackBase_[i], kCanary);
    }
    sim_.mem().write32(isrStackBase_, kCanary);
}

Word
KernelOracle::read(Addr addr) const
{
    return sim_.mem().read32(addr);
}

Word
KernelOracle::taskTcb(unsigned id) const
{
    return read(taskTableAddr_ + 4 * id);
}

void
KernelOracle::report(const char *oracle, Cycle cycle, const char *fmt, ...)
{
    ++hitCount_;
    // Past the cap only the tally grows, so the detail is never
    // formatted: a corrupted list can fire on every mret of a hang.
    if (hits_.size() >= kMaxStoredHits)
        return;
    OracleHit hit;
    hit.oracle = oracle;
    hit.cycle = cycle;
    hit.episode = mretCount_;
    va_list ap;
    va_start(ap, fmt);
    hit.detail = vcsprintf(fmt, ap);
    va_end(ap);
    hits_.push_back(std::move(hit));
}

void
KernelOracle::trapTaken(Word cause, Cycle entry_cycle, Word from_task)
{
    (void)cause;
    ++trapCount_;
    if (from_task >= kMaxTasks) {
        report("list", entry_cycle,
               "currentTaskId %u out of range at trap entry",
               from_task);
        return;
    }
    // Snapshot the interrupted task's application-bank context. The
    // listener runs before any same-cycle unit tick, so lockstep
    // preload overwrites cannot have touched the bank yet.
    const ArchState &st = sim_.archState();
    CtxSnapshot &s = snaps_[from_task];
    for (unsigned r = 0; r < 32; ++r)
        s.regs[r] = st.bankReg(ArchState::kAppBank, r);
    s.mepc = st.csrs.mepc;
    s.valid = true;
}

void
KernelOracle::checkContext(Cycle cycle, Word to_task)
{
    if (to_task >= kMaxTasks) {
        report("list", cycle,
               "currentTaskId %u out of range at mret", to_task);
        return;
    }
    CtxSnapshot &s = snaps_[to_task];
    if (!s.valid)
        return;  // first dispatch of this task: nothing to compare
    s.valid = false;
    const ArchState &st = sim_.archState();
    for (unsigned r = 1; r < 32; ++r) {
        if (!savedReg(r))
            continue;
        const Word got = st.bankReg(ArchState::kAppBank, r);
        if (got != s.regs[r]) {
            report("context", cycle,
                   "task %u resumed with x%u=0x%08x, switched "
                   "out with 0x%08x",
                   to_task, r, got, s.regs[r]);
            return;
        }
    }
    if (st.pc() != s.mepc) {
        report("context", cycle,
               "task %u resumed at pc 0x%08x, switched out at "
               "0x%08x",
               to_task, st.pc(), s.mepc);
    }
}

void
KernelOracle::checkSoftLists(Cycle cycle)
{
    // Map TCB address -> id for the linkage walk.
    std::array<Word, kMaxTasks> tcbOf{};
    for (unsigned i = 0; i < kMaxTasks; ++i) {
        tcbOf[i] = taskTcb(i);
        if (tcbOf[i] != 0 && read(tcbOf[i] + kTcbId) != i) {
            report("list", cycle,
                   "task table slot %u holds TCB with id %u", i,
                   read(tcbOf[i] + kTcbId));
        }
    }
    const auto idOfTcb = [&](Word tcb) -> int {
        for (unsigned i = 0; i < kMaxTasks; ++i) {
            if (tcbOf[i] != 0 && tcbOf[i] == tcb)
                return static_cast<int>(i);
        }
        return -1;
    };

    // membership[id]: 0 = unseen, 1 + list ordinal otherwise
    // (ready lists are ordinals 0..7, the delay list is 8).
    std::array<int, kMaxTasks> membership{};
    membership.fill(-1);
    int maxReadyPrio = -1;

    const auto walk = [&](Addr sentinel, int listOrdinal,
                          const char *what) {
        Word prev = sentinel;
        Word node = read(sentinel + kTcbNext);
        unsigned hops = 0;
        Word lastWake = 0;
        while (node != sentinel) {
            if (++hops > kMaxTasks) {
                report("list", cycle,
                       "%s not sentinel-terminated after %u hops", what,
                       hops);
                return;
            }
            const int id = idOfTcb(node);
            if (id < 0) {
                report("list", cycle,
                       "%s links unknown node 0x%08x", what, node);
                return;
            }
            if (read(node + kTcbPrev) != prev) {
                report("list", cycle,
                       "%s: task %u prev link broken", what, id);
                return;
            }
            if (membership[id] != -1) {
                report("list", cycle,
                       "task %u on two kernel lists", id);
                return;
            }
            membership[id] = listOrdinal;
            if (listOrdinal < static_cast<int>(kNumPriorities)) {
                const Word prio = read(node + kTcbPrio);
                if (prio != static_cast<Word>(listOrdinal)) {
                    report("list", cycle,
                           "%s holds task %u with priority %u",
                           what, id, prio);
                    return;
                }
                maxReadyPrio = std::max(maxReadyPrio, listOrdinal);
            } else {
                const Word wake = read(node + kTcbWake);
                if (hops > 1 && wake < lastWake) {
                    report("list", cycle,
                           "delay list unsorted: task %u wakes "
                           "at %u after %u",
                           id, wake, lastWake);
                    return;
                }
                lastWake = wake;
            }
            prev = node;
            node = read(node + kTcbNext);
        }
        if (read(sentinel + kTcbPrev) != prev) {
            report("list", cycle,
                   "%s sentinel prev link broken", what);
        }
    };

    for (unsigned p = 0; p < kNumPriorities; ++p) {
        walk(readyListsAddr_ + p * kSentinelSize, static_cast<int>(p),
             kReadyListNames[p]);
    }
    walk(delaySentinelAddr_, static_cast<int>(kNumPriorities),
         "delay list");

    // Scheduler cross-check against the reference fixed-priority
    // policy: the running task sits on its ready list and no ready
    // task outranks it; the top-priority hint never understates.
    const Word cur = read(currentTcbAddr_);
    const int curId = idOfTcb(cur);
    if (curId < 0) {
        report("sched", cycle,
               "current TCB 0x%08x not in the task table",
               cur);
        return;
    }
    const Word curPrio = read(cur + kTcbPrio);
    if (membership[curId] != static_cast<int>(curPrio)) {
        report("sched", cycle,
               "running task %u (priority %u) not on its "
               "ready list",
               curId, curPrio);
    }
    if (maxReadyPrio >= 0 && static_cast<Word>(maxReadyPrio) > curPrio) {
        report("sched", cycle,
               "running task %u has priority %u but a ready "
               "task has %d",
               curId, curPrio, maxReadyPrio);
    }
    const Word topHint = read(topReadyPrioAddr_);
    if (maxReadyPrio >= 0 && topHint < static_cast<Word>(maxReadyPrio)) {
        report("sched", cycle,
               "top-ready-priority hint %u below actual %d",
               topHint, maxReadyPrio);
    }
}

void
KernelOracle::checkHwLists(Cycle cycle)
{
    RtosUnit *unit = sim_.unit();
    rtu_assert(unit != nullptr, "hw list oracle without an RTOSUnit");
    for (unsigned i = 0; i < kMaxTasks; ++i) {
        const Word tcb = taskTcb(i);
        if (tcb != 0 && read(tcb + kTcbId) != i) {
            report("list", cycle,
                   "task table slot %u holds TCB with id %u", i,
                   read(tcb + kTcbId));
        }
    }
    std::array<int, kMaxTasks> membership{};
    membership.fill(-1);

    const auto scan = [&](const std::vector<HwSlot> &slots, int ordinal,
                          const char *what) {
        for (const HwSlot &s : slots) {
            if (!s.valid)
                continue;
            if (s.id >= kMaxTasks) {
                report("list", cycle,
                       "%s slot holds out-of-range id %u",
                       what, s.id);
                continue;
            }
            if (membership[s.id] != -1) {
                report("list", cycle,
                       "task %u duplicated across hardware "
                       "lists",
                       s.id);
                continue;
            }
            membership[s.id] = ordinal;
        }
    };
    scan(unit->readyList().slots(), 0, "hw ready list");
    scan(unit->delayList().slots(), 1, "hw delay list");

    const Word cur = read(currentTcbAddr_);
    Word curId = kMaxTasks;
    for (unsigned i = 0; i < kMaxTasks; ++i) {
        if (taskTcb(i) != 0 && taskTcb(i) == cur)
            curId = i;
    }
    if (curId >= kMaxTasks) {
        report("sched", cycle,
               "current TCB 0x%08x not in the task table",
               cur);
        return;
    }
    const Word curPrio = read(cur + kTcbPrio);
    if (membership[curId] != 0) {
        report("sched", cycle,
               "running task %u not on the hw ready list",
               curId);
    }
    // Priority comparison is order-independent, so an in-flight sort
    // phase doesn't matter; membership above likewise.
    for (const HwSlot &s : unit->readyList().slots()) {
        if (s.valid && s.prio > curPrio) {
            report("sched", cycle,
                   "running task %u has priority %u but ready "
                   "task %u has %u",
                   curId, curPrio, s.id, s.prio);
            break;
        }
    }
}

void
KernelOracle::checkStructure(Cycle cycle)
{
    if (unit_.sched)
        checkHwLists(cycle);
    else
        checkSoftLists(cycle);
}

void
KernelOracle::checkCanaries(Cycle cycle)
{
    for (unsigned i = 0; i < kMaxTasks; ++i) {
        if (stackBase_[i] == 0)
            continue;
        const Word got = read(stackBase_[i]);
        if (got != kCanary) {
            report("canary", cycle,
                   "task %u stack canary smashed (0x%08x)", i,
                   got);
        }
    }
    if (read(isrStackBase_) != kCanary) {
        report("canary", cycle,
               "ISR stack canary smashed (0x%08x)",
               read(isrStackBase_));
    }
}

void
KernelOracle::mretCompleted(Cycle cycle, Word to_task)
{
    ++mretCount_;
    checkContext(cycle, to_task);
    checkStructure(cycle);
    checkCanaries(cycle);
}

void
KernelOracle::finalCheck()
{
    const Cycle cycle = sim_.now();
    checkCanaries(cycle);
    if (mretCount_ > 0)
        checkStructure(cycle);
}

} // namespace rtu
