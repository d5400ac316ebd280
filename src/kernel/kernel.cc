#include "kernel.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/hostio.hh"
#include "sim/memmap.hh"

namespace rtu {

using namespace kernel;

namespace {

/** Registers saved in software ISR frames: x1, then x5..x15 (lower
 *  half) and x16..x31 (upper half). */
constexpr unsigned kLowerHalfFirst = 5;
constexpr unsigned kLowerHalfLast = 15;
constexpr unsigned kUpperHalfFirst = 16;
constexpr unsigned kUpperHalfLast = 31;

Reg
xreg(unsigned n)
{
    rtu_assert(n < 32, "register x%u", n);
    return static_cast<Reg>(n);
}

} // namespace

KernelBuilder::KernelBuilder(const KernelParams &params)
    : params_(params), asm_(memmap::kImemBase, memmap::kDmemBase)
{
    std::string why;
    if (!params_.unit.validate(&why))
        fatal("kernel generation with invalid RTOSUnit config: %s",
              why.c_str());
}

std::string
KernelBuilder::tcbSym(unsigned i) const
{
    return csprintf("k_tcb_%u", i);
}

std::string
KernelBuilder::stackTopSym(unsigned i) const
{
    return csprintf("k_stack_%u_top", i);
}

std::string
KernelBuilder::createMutex(const std::string &name)
{
    rtu_assert(!built_, "createMutex after build()");
    asm_.dataArray(name, kMutexSize / 4, 0);
    mutexes_.push_back(name);
    return name;
}

std::string
KernelBuilder::createSemaphore(const std::string &name, Word initial)
{
    rtu_assert(!built_, "createSemaphore after build()");
    const Addr base = asm_.dataArray(name, kSemSize / 4, 0);
    (void)base;
    // The count word is plain data; patch it by re-reserving is not
    // possible, so emit the initial count from boot instead.
    semaphores_.push_back(name);
    semInitials_.push_back(initial);
    return name;
}

unsigned
KernelBuilder::createHwSemaphore(Word initial)
{
    rtu_assert(!built_, "createHwSemaphore after build()");
    rtu_assert(params_.unit.hwsync,
               "hardware semaphores need a +HS configuration");
    rtu_assert(hwSemInitials_.size() < params_.unit.semSlots,
               "out of hardware semaphore slots (%u)",
               params_.unit.semSlots);
    hwSemInitials_.push_back(initial);
    return static_cast<unsigned>(hwSemInitials_.size() - 1);
}

void
KernelBuilder::addTask(const TaskSpec &spec)
{
    rtu_assert(!built_, "addTask after build()");
    rtu_assert(spec.priority >= 1 && spec.priority < kNumPriorities,
               "task '%s' priority %u outside [1, %u]",
               spec.name.c_str(), spec.priority, kNumPriorities - 1);
    rtu_assert(static_cast<bool>(spec.body), "task '%s' has no body",
               spec.name.c_str());
    tasks_.push_back(spec);
}

// ---- inline primitives --------------------------------------------------
//
// Register conventions: kernel code clobbers t0..t6 / a0..a7 / ra
// freely; task bodies follow the standard calling convention.

void
KernelBuilder::inlineListRemove(Reg node, Reg t_a, Reg t_b)
{
    Assembler &a = asm_;
    a.lw(t_a, kTcbNext, node);
    a.lw(t_b, kTcbPrev, node);
    a.sw(t_a, kTcbNext, t_b);
    a.sw(t_b, kTcbPrev, t_a);
}

void
KernelBuilder::inlineListInsertEnd(Reg sentinel, Reg node, Reg t_a)
{
    Assembler &a = asm_;
    a.lw(t_a, kTcbPrev, sentinel);
    a.sw(sentinel, kTcbNext, node);
    a.sw(t_a, kTcbPrev, node);
    a.sw(node, kTcbNext, t_a);
    a.sw(node, kTcbPrev, sentinel);
}

void
KernelBuilder::inlineReadyInsert(Reg node, Reg t_a, Reg t_b, Reg t_c,
                                 const std::string &unique)
{
    Assembler &a = asm_;
    // t_a = priority; t_b = ready-list sentinel for it.
    a.lw(t_a, kTcbPrio, node);
    a.la(t_b, "k_ready_lists");
    a.slli(t_c, t_a, 5);
    a.add(t_b, t_b, t_c);
    inlineListInsertEnd(t_b, node, t_c);
    // topReadyPriority = max(topReadyPriority, priority).
    a.la(t_b, "k_top_ready_prio");
    a.lw(t_c, 0, t_b);
    const std::string skip = "k_ri_skip_" + unique;
    a.bge(t_c, t_a, skip);
    a.sw(t_a, 0, t_b);
    a.label(skip);
}

void
KernelBuilder::inlineEventInsert(Reg sentinel_base, Reg node, Reg t_a,
                                 Reg t_b, Reg t_c,
                                 const std::string &unique)
{
    Assembler &a = asm_;
    const std::string loop = "k_ei_loop_" + unique;
    const std::string ins = "k_ei_ins_" + unique;
    // Priority-ordered event list (descending, FIFO within a class):
    // walk while walker.prio >= node.prio.
    a.lw(t_a, kTcbPrio, node);
    a.lw(t_b, kTcbNext, sentinel_base);
    a.label(loop);
    a.beq(t_b, sentinel_base, ins);
    a.lw(t_c, kTcbPrio, t_b);
    a.blt(t_c, t_a, ins);
    a.lw(t_b, kTcbNext, t_b);
    a.loopBound(kMaxTasks);
    a.j(loop);
    a.label(ins);
    // Insert node before walker t_b.
    a.lw(t_c, kTcbPrev, t_b);
    a.sw(t_b, kTcbNext, node);
    a.sw(t_c, kTcbPrev, node);
    a.sw(node, kTcbNext, t_c);
    a.sw(node, kTcbPrev, t_b);
}

void
KernelBuilder::inlineRaiseMsip(Reg t_a, Reg t_b)
{
    Assembler &a = asm_;
    a.li(t_a, static_cast<SWord>(memmap::kClintMsip));
    a.li(t_b, 1);
    a.sw(t_b, 0, t_a);
}

// ---- data section ---------------------------------------------------------

void
KernelBuilder::emitDataSection()
{
    Assembler &a = asm_;
    a.dataWord("k_current_tcb", 0);
    a.dataWord("currentTaskId", 0);
    a.dataWord("k_tick_count", 0);
    a.dataWord("k_top_ready_prio", 0);
    a.dataArray("k_ready_lists", kNumPriorities * kSentinelSize / 4, 0);
    a.dataArray("k_delay_sentinel", kSentinelSize / 4, 0);
    a.dataArray("k_task_table", kMaxTasks, 0);
    if (params_.usesExternalIrq)
        createSemaphore("k_ext_sem", 0);
    for (unsigned i = 0; i < tasks_.size(); ++i) {
        a.dataArray(tcbSym(i), kTcbSize / 4, 0);
        a.dataAlign(16);
        a.dataArray(csprintf("k_stack_%u", i), kTaskStackBytes / 4, 0);
        a.dataWord(stackTopSym(i), 0);  // its own address == stack top
    }
    a.dataAlign(16);
    a.dataArray("k_isr_stack", kIsrStackBytes / 4, 0);
    a.dataWord("k_isr_stack_top", 0);
}

// ---- boot ------------------------------------------------------------------

void
KernelBuilder::emitBoot()
{
    Assembler &a = asm_;
    const RtosUnitConfig &u = params_.unit;
    a.fnBegin("_start");
    a.la(SP, "k_isr_stack_top");
    a.la(T0, "k_isr");
    a.csrw(csr::kMtvec, T0);

    // Ready-list and delay-list sentinels (software scheduler only;
    // the event lists below are always software).
    if (!u.sched) {
        for (unsigned p = 0; p < kNumPriorities; ++p) {
            a.la(T1, "k_ready_lists");
            if (p > 0)
                a.addi(T1, T1, static_cast<SWord>(p * kSentinelSize));
            a.sw(T1, kTcbNext, T1);
            a.sw(T1, kTcbPrev, T1);
        }
        a.la(T1, "k_delay_sentinel");
        a.sw(T1, kTcbNext, T1);
        a.sw(T1, kTcbPrev, T1);
    }

    // Mutex / semaphore wait-list sentinels and semaphore counts.
    for (const std::string &m : mutexes_) {
        a.la(T1, m);
        a.addi(T1, T1, kMutexSentinel);
        a.sw(T1, kTcbNext, T1);
        a.sw(T1, kTcbPrev, T1);
    }
    for (size_t i = 0; i < semaphores_.size(); ++i) {
        a.la(T1, semaphores_[i]);
        if (semInitials_[i] != 0) {
            a.li(T2, static_cast<SWord>(semInitials_[i]));
            a.sw(T2, kSemCount, T1);
        }
        a.addi(T1, T1, kSemSentinel);
        a.sw(T1, kTcbNext, T1);
        a.sw(T1, kTcbPrev, T1);
    }

    // Per-task initialization.
    Priority max_prio = 0;
    for (unsigned i = 0; i < tasks_.size(); ++i) {
        const TaskSpec &t = tasks_[i];
        max_prio = std::max(max_prio, t.priority);
        a.la(T1, tcbSym(i));
        a.li(T2, static_cast<SWord>(i));
        a.sw(T2, kTcbId, T1);
        a.li(T2, t.priority);
        a.sw(T2, kTcbPrio, T1);
        a.la(T3, "k_task_table");
        a.sw(T1, static_cast<SWord>(4 * i), T3);

        if (u.sched) {
            a.li(T2, static_cast<SWord>(i));
            a.li(T3, t.priority);
            a.rtuAddReady(T2, T3);
        } else {
            a.la(T3, "k_ready_lists");
            if (t.priority > 0)
                a.addi(T3, T3,
                       static_cast<SWord>(t.priority * kSentinelSize));
            inlineListInsertEnd(T3, T1, T4);
        }

        const std::string entry = "k_task_" + t.name;
        if (u.store) {
            // Initial context in the fixed RTOSUnit context region.
            a.li(T3, static_cast<SWord>(
                         memmap::ctxAddr(static_cast<TaskId>(i))));
            a.la(T4, entry);
            a.sw(T4, kCtxMepc, T3);
            a.li(T4, kInitialMstatus);
            a.sw(T4, kCtxMstatus, T3);
            a.la(T4, stackTopSym(i));
            a.sw(T4, kCtxX2, T3);
            if (t.arg != 0) {
                a.li(T4, static_cast<SWord>(t.arg));
                a.sw(T4, static_cast<SWord>(ctxSlotOfReg(10)), T3);
            }
        } else {
            // Initial stack frame at the top of the task stack.
            a.la(T3, stackTopSym(i));
            a.addi(T3, T3, -static_cast<SWord>(kFrameBytes));
            a.la(T4, entry);
            a.sw(T4, kFrameMepc, T3);
            a.li(T4, kInitialMstatus);
            a.sw(T4, kFrameMstatus, T3);
            if (t.arg != 0) {
                a.li(T4, static_cast<SWord>(t.arg));
                a.sw(T4, static_cast<SWord>(frameSlotOfReg(10)), T3);
            }
            a.sw(T3, kTcbTop, T1);
        }
    }

    if (!u.sched) {
        a.la(T1, "k_top_ready_prio");
        a.li(T2, max_prio);
        a.sw(T2, 0, T1);
    }

    // Seed hardware semaphore counts by giving tokens (no waiters can
    // exist yet, so each give increments the count).
    for (size_t id = 0; id < hwSemInitials_.size(); ++id) {
        if (hwSemInitials_[id] == 0)
            continue;
        a.li(A0, static_cast<SWord>(id));
        for (Word n = 0; n < hwSemInitials_[id]; ++n)
            a.rtuSemGive(T0, A0);
    }

    // Timer: clear the compare high word, then program the first tick.
    a.li(T0, static_cast<SWord>(memmap::kClintMtimecmp));
    a.li(T1, static_cast<SWord>(params_.timerPeriodCycles));
    a.sw(T1, 0, T0);
    a.li(T0, static_cast<SWord>(memmap::kClintMtimecmpHi));
    a.sw(Zero, 0, T0);

    // Enable machine software/timer/external interrupts.
    a.li(T0, static_cast<SWord>(irq::kMsi | irq::kMti | irq::kMei));
    a.csrw(csr::kMie, T0);

    // Start the first task.
    if (u.load) {
        // With hardware context loading, the restore FSM writes the
        // application register file while it runs — boot executes on
        // that same bank, so it must not trigger a restore directly.
        // Instead, enter the first task through a software-interrupt
        // trap: the ISR performs scheduling and restoring on the ISR
        // bank, exactly as for every later switch (this mirrors how
        // FreeRTOS ports start the first task via a trap). The store
        // FSM archives the boot state into the idle task's context
        // slot (currentCtxId defaults to 0 == idle), so the idle task
        // resumes at the jump below.
        a.la(T1, "k_current_tcb");
        a.la(T2, tcbSym(0));
        a.sw(T2, 0, T1);
        a.la(T1, "currentTaskId");
        a.sw(Zero, 0, T1);
        inlineRaiseMsip(T0, T1);
        a.csrrsi(Zero, csr::kMstatus, 8);  // trap fires here
        a.j("k_idle_loop");
        a.fnEnd();
        return;
    }
    if (u.sched) {
        a.rtuGetHwSched(T0);
        a.la(T1, "k_task_table");
        a.slli(T2, T0, 2);
        a.add(T1, T1, T2);
        a.lw(A0, 0, T1);
        a.mv(A2, T0);
    } else {
        a.call("k_select");
        a.lw(A2, kTcbId, A0);
        if (u.store)
            a.rtuSetContextId(A2);
    }
    a.la(T1, "k_current_tcb");
    a.sw(A0, 0, T1);
    a.la(T1, "currentTaskId");
    a.sw(A2, 0, T1);

    if (u.store) {
        a.slli(T3, A2, memmap::kCtxShift);
        a.li(T4, static_cast<SWord>(memmap::kCtxBase));
        a.add(T3, T3, T4);
        a.csrw(csr::kMscratch, T3);
        a.j("k_isr_restore_ctx");
    } else {
        a.lw(SP, kTcbTop, A0);
        a.j("k_isr_restore");
    }
    a.fnEnd();
}

// ---- ISR -------------------------------------------------------------------

void
KernelBuilder::emitCauseDispatch(const std::string &prefix)
{
    Assembler &a = asm_;
    a.csrr(T0, csr::kMcause);
    a.bge(T0, Zero, "k_fatal_sync");  // interrupt bit clear: bug
    a.andi(T0, T0, 63);
    a.li(T1, 7);
    a.beq(T0, T1, prefix + "_timer");
    a.li(T1, 3);
    a.beq(T0, T1, prefix + "_sw");
    a.li(T1, 11);
    a.beq(T0, T1, prefix + "_ext");
    a.j("k_fatal_sync");
}

void
KernelBuilder::emitSwSaveFrame(bool hw_saves_upper_half)
{
    Assembler &a = asm_;
    a.addi(SP, SP, -static_cast<SWord>(kFrameBytes));
    a.sw(RA, static_cast<SWord>(kFrameX1), SP);
    for (unsigned n = kLowerHalfFirst; n <= kLowerHalfLast; ++n)
        a.sw(xreg(n), static_cast<SWord>(frameSlotOfReg(n)), SP);
    if (!hw_saves_upper_half) {
        for (unsigned n = kUpperHalfFirst; n <= kUpperHalfLast; ++n)
            a.sw(xreg(n), static_cast<SWord>(frameSlotOfReg(n)), SP);
    }
    a.csrr(T0, csr::kMepc);
    a.sw(T0, static_cast<SWord>(kFrameMepc), SP);
    a.csrr(T0, csr::kMstatus);
    a.sw(T0, static_cast<SWord>(kFrameMstatus), SP);
}

void
KernelBuilder::emitSwRestoreFrameAndRet()
{
    Assembler &a = asm_;
    a.label("k_isr_restore");
    a.lw(T0, static_cast<SWord>(kFrameMepc), SP);
    a.csrw(csr::kMepc, T0);
    a.lw(T0, static_cast<SWord>(kFrameMstatus), SP);
    a.csrw(csr::kMstatus, T0);
    a.lw(RA, static_cast<SWord>(kFrameX1), SP);
    for (unsigned n = kLowerHalfFirst; n <= kUpperHalfLast; ++n)
        a.lw(xreg(n), static_cast<SWord>(frameSlotOfReg(n)), SP);
    a.addi(SP, SP, static_cast<SWord>(kFrameBytes));
    a.mret();
}

void
KernelBuilder::emitSwRestoreCtxAndRet()
{
    Assembler &a = asm_;
    // Expects mscratch = context-region address of the next task.
    a.label("k_isr_restore_ctx");
    a.rtuSwitchRf();  // stalls until the store FSM drained; now on RF1
    a.csrr(T6, csr::kMscratch);
    a.lw(T5, static_cast<SWord>(kCtxMepc), T6);
    a.csrw(csr::kMepc, T5);
    a.lw(T5, static_cast<SWord>(kCtxMstatus), T6);
    a.csrw(csr::kMstatus, T5);
    a.lw(RA, static_cast<SWord>(kCtxX1), T6);
    a.lw(SP, static_cast<SWord>(kCtxX2), T6);
    // x5..x30 in slot order; x31 (t6, the pointer itself) last.
    for (unsigned n = 5; n <= 30; ++n)
        a.lw(xreg(n), static_cast<SWord>(ctxSlotOfReg(n)), T6);
    a.lw(T6, static_cast<SWord>(ctxSlotOfReg(31)), T6);
    a.mret();
}

void
KernelBuilder::emitIsrVanillaFamily()
{
    Assembler &a = asm_;
    const RtosUnitConfig &u = params_.unit;
    a.fnBegin("k_isr");
    emitSwSaveFrame(/*hw_saves_upper_half=*/u.cv32rt);
    // Save the interrupted stack pointer into the outgoing TCB.
    a.la(T0, "k_current_tcb");
    a.lw(T1, 0, T0);
    a.sw(SP, kTcbTop, T1);

    emitCauseDispatch("k_isrv");

    a.label("k_isrv_timer");
    if (!u.sched) {
        // Reprogram the compare register and process the delay list.
        a.li(T0, static_cast<SWord>(memmap::kClintMtimecmp));
        a.lw(T1, 0, T0);
        a.li(T2, static_cast<SWord>(params_.timerPeriodCycles));
        a.add(T1, T1, T2);
        a.sw(T1, 0, T0);
        a.call("k_tick");
    }
    // With (T), the auto-resetting timer and the hardware delay list
    // leave nothing to do (paper Section 4.4) — unless k_delay_until
    // needs a live tick count to convert absolute wake ticks into the
    // relative counts the hardware delay list consumes.
    if (u.sched && params_.usesDelayUntil) {
        a.la(T0, "k_tick_count");
        a.lw(T1, 0, T0);
        a.addi(T1, T1, 1);
        a.sw(T1, 0, T0);
    }
    a.j("k_isrv_select");

    a.label("k_isrv_sw");
    a.li(T0, static_cast<SWord>(memmap::kClintMsip));
    a.sw(Zero, 0, T0);
    a.j("k_isrv_select");

    a.label("k_isrv_ext");
    a.li(T0, static_cast<SWord>(memmap::kHostExtAck));
    a.sw(Zero, 0, T0);
    if (params_.usesExternalIrq) {
        a.la(A0, "k_ext_sem");
        a.call("k_sem_give_isr");
    }
    a.j("k_isrv_select");

    a.label("k_isrv_select");
    if (u.sched) {
        a.rtuGetHwSched(T0);
        a.la(T1, "k_task_table");
        a.slli(T2, T0, 2);
        a.add(T1, T1, T2);
        a.lw(A0, 0, T1);
        a.mv(A2, T0);
    } else {
        a.call("k_select");
        a.lw(A2, kTcbId, A0);
    }
    a.la(T1, "k_current_tcb");
    a.sw(A0, 0, T1);
    a.la(T1, "currentTaskId");
    a.sw(A2, 0, T1);
    a.lw(SP, kTcbTop, A0);
    if (u.cv32rt) {
        // Barrier: the dedicated-port drain of the snapshot half must
        // be in memory before software reloads the frame.
        a.rtuSwitchRf();
    }
    emitSwRestoreFrameAndRet();
    a.fnEnd();
}

void
KernelBuilder::emitIsrStoreFamily()
{
    Assembler &a = asm_;
    const RtosUnitConfig &u = params_.unit;
    a.fnBegin("k_isr");
    // The store FSM freed the whole register file; only a stack for
    // possible calls is needed.
    a.la(SP, "k_isr_stack_top");

    emitCauseDispatch("k_isrs");

    a.label("k_isrs_timer");
    if (!u.sched) {
        a.li(T0, static_cast<SWord>(memmap::kClintMtimecmp));
        a.lw(T1, 0, T0);
        a.li(T2, static_cast<SWord>(params_.timerPeriodCycles));
        a.add(T1, T1, T2);
        a.sw(T1, 0, T0);
        a.call("k_tick");
    }
    // See emitIsrVanillaFamily: k_delay_until keeps the tick count
    // live even when the hardware scheduler owns the delay list.
    if (u.sched && params_.usesDelayUntil) {
        a.la(T0, "k_tick_count");
        a.lw(T1, 0, T0);
        a.addi(T1, T1, 1);
        a.sw(T1, 0, T0);
    }
    a.j("k_isrs_select");

    a.label("k_isrs_sw");
    a.li(T0, static_cast<SWord>(memmap::kClintMsip));
    a.sw(Zero, 0, T0);
    a.j("k_isrs_select");

    a.label("k_isrs_ext");
    a.li(T0, static_cast<SWord>(memmap::kHostExtAck));
    a.sw(Zero, 0, T0);
    if (params_.usesExternalIrq) {
        a.la(A0, "k_ext_sem");
        a.call("k_sem_give_isr");
    }
    a.j("k_isrs_select");

    a.label("k_isrs_select");
    if (u.sched) {
        a.rtuGetHwSched(T0);
        a.la(T1, "k_task_table");
        a.slli(T2, T0, 2);
        a.add(T1, T1, T2);
        a.lw(A0, 0, T1);
        a.mv(A2, T0);
    } else {
        a.call("k_select");
        a.lw(A2, kTcbId, A0);
        a.rtuSetContextId(A2);
    }
    a.la(T1, "k_current_tcb");
    a.sw(A0, 0, T1);
    a.la(T1, "currentTaskId");
    a.sw(A2, 0, T1);

    if (u.load) {
        // Restore runs in hardware; mret stalls until it completes and
        // switches back to the application register file.
        a.mret();
    } else {
        a.slli(T3, A2, memmap::kCtxShift);
        a.li(T4, static_cast<SWord>(memmap::kCtxBase));
        a.add(T3, T3, T4);
        a.csrw(csr::kMscratch, T3);
        emitSwRestoreCtxAndRet();
    }
    a.fnEnd();
}

void
KernelBuilder::emitIsr()
{
    if (params_.unit.store)
        emitIsrStoreFamily();
    else
        emitIsrVanillaFamily();

    // Synchronous traps indicate a kernel bug: stop loudly.
    Assembler &a = asm_;
    a.fnBegin("k_fatal_sync");
    a.li(T0, static_cast<SWord>(memmap::kHostExit));
    a.li(T1, 0xDEAD);
    a.sw(T1, 0, T0);
    a.j("k_fatal_sync");
    a.fnEnd();
}

// ---- software scheduler ------------------------------------------------------

void
KernelBuilder::emitSelect()
{
    Assembler &a = asm_;
    // Returns a0 = next TCB; rotates its ready list (round robin).
    a.fnBegin("k_select");
    a.la(T0, "k_top_ready_prio");
    a.lw(T1, 0, T0);
    a.label("k_select_scan");
    a.la(T2, "k_ready_lists");
    a.slli(T3, T1, 5);
    a.add(T2, T2, T3);
    a.lw(T4, kTcbNext, T2);
    a.bne(T4, T2, "k_select_found");
    a.addi(T1, T1, -1);
    a.loopBound(kNumPriorities);
    a.j("k_select_scan");
    a.label("k_select_found");
    a.sw(T1, 0, T0);
    a.mv(A0, T4);
    inlineListRemove(A0, T5, T6);
    inlineListInsertEnd(T2, A0, T5);
    a.ret();
    a.fnEnd();
}

void
KernelBuilder::emitTickHandler()
{
    Assembler &a = asm_;
    // Timer tick: advance the tick count, move expired delayed tasks
    // to their ready lists (paper Fig 2 (g)).
    a.fnBegin("k_tick");
    a.la(T0, "k_tick_count");
    a.lw(T1, 0, T0);
    a.addi(T1, T1, 1);
    a.sw(T1, 0, T0);
    a.label("k_tick_wake");
    a.la(T2, "k_delay_sentinel");
    a.lw(T3, kTcbNext, T2);
    a.beq(T3, T2, "k_tick_done");
    a.lw(T4, kTcbWake, T3);
    a.bltu(T1, T4, "k_tick_done");  // head wakes in the future
    inlineListRemove(T3, T5, T6);
    inlineReadyInsert(T3, T4, T5, T6, "tick");
    a.loopBound(kMaxTasks);
    a.j("k_tick_wake");
    a.label("k_tick_done");
    a.ret();
    a.fnEnd();
}

// ---- task API -------------------------------------------------------------

void
KernelBuilder::emitTaskApi()
{
    Assembler &a = asm_;
    const bool hw = params_.unit.sched;

    // -- k_yield ---------------------------------------------------------
    a.fnBegin("k_yield");
    inlineRaiseMsip(T0, T1);
    a.ret();
    a.fnEnd();

    // -- k_delay(a0 = ticks) ----------------------------------------------
    a.fnBegin("k_delay");
    a.csrrci(Zero, csr::kMstatus, 8);
    a.la(T0, "k_current_tcb");
    a.lw(T1, 0, T0);
    if (hw) {
        a.lw(T2, kTcbId, T1);
        a.lw(T3, kTcbPrio, T1);
        a.rtuRmTask(T2);
        a.mv(T4, A0);
        a.rtuAddDelay(T3, T4);
    } else {
        a.la(T2, "k_tick_count");
        a.lw(T3, 0, T2);
        a.add(T3, T3, A0);
        a.sw(T3, kTcbWake, T1);
        inlineListRemove(T1, T4, T5);
        // Wake-time-sorted insert into the delay list.
        a.la(T4, "k_delay_sentinel");
        a.lw(T5, kTcbNext, T4);
        a.label("k_delay_loop");
        a.beq(T5, T4, "k_delay_ins");
        a.lw(T6, kTcbWake, T5);
        a.bltu(T3, T6, "k_delay_ins");
        a.lw(T5, kTcbNext, T5);
        a.loopBound(kMaxTasks);
        a.j("k_delay_loop");
        a.label("k_delay_ins");
        a.lw(T6, kTcbPrev, T5);
        a.sw(T5, kTcbNext, T1);
        a.sw(T6, kTcbPrev, T1);
        a.sw(T1, kTcbNext, T6);
        a.sw(T1, kTcbPrev, T5);
    }
    inlineRaiseMsip(T4, T5);
    a.csrrsi(Zero, csr::kMstatus, 8);  // interrupt fires here
    a.ret();
    a.fnEnd();

    // -- k_delay_until(a0 = absolute wake tick) ---------------------------
    // Periodic-release primitive: the whole read-compare-insert runs
    // inside one interrupt-disabled window, so the relative count
    // handed to the hardware delay list cannot be stale by a tick.
    if (params_.usesDelayUntil) {
        a.fnBegin("k_delay_until");
        a.csrrci(Zero, csr::kMstatus, 8);
        a.la(T0, "k_tick_count");
        a.lw(T1, 0, T0);
        a.sub(T2, A0, T1);
        // Tardy release (wake tick already passed): run immediately.
        a.bge(Zero, T2, "k_duntil_now");
        a.la(T0, "k_current_tcb");
        a.lw(T1, 0, T0);
        if (hw) {
            a.lw(T3, kTcbId, T1);
            a.lw(T4, kTcbPrio, T1);
            a.rtuRmTask(T3);
            a.rtuAddDelay(T4, T2);
        } else {
            a.sw(A0, kTcbWake, T1);
            a.mv(T3, A0);
            inlineListRemove(T1, T4, T5);
            // Wake-time-sorted insert, same shape as k_delay.
            a.la(T4, "k_delay_sentinel");
            a.lw(T5, kTcbNext, T4);
            a.label("k_duntil_loop");
            a.beq(T5, T4, "k_duntil_ins");
            a.lw(T6, kTcbWake, T5);
            a.bltu(T3, T6, "k_duntil_ins");
            a.lw(T5, kTcbNext, T5);
            a.loopBound(kMaxTasks);
            a.j("k_duntil_loop");
            a.label("k_duntil_ins");
            a.lw(T6, kTcbPrev, T5);
            a.sw(T5, kTcbNext, T1);
            a.sw(T6, kTcbPrev, T1);
            a.sw(T1, kTcbNext, T6);
            a.sw(T1, kTcbPrev, T5);
        }
        inlineRaiseMsip(T4, T5);
        a.label("k_duntil_now");
        a.csrrsi(Zero, csr::kMstatus, 8);  // interrupt fires here
        a.ret();
        a.fnEnd();
    }

    // -- k_mutex_take(a0 = mutex) -------------------------------------------
    a.fnBegin("k_mutex_take");
    a.csrrci(Zero, csr::kMstatus, 8);
    a.lw(T0, kMutexOwner, A0);
    a.bnez(T0, "k_mtx_block");
    a.la(T1, "k_current_tcb");
    a.lw(T2, 0, T1);
    a.sw(T2, kMutexOwner, A0);
    a.csrrsi(Zero, csr::kMstatus, 8);
    a.ret();
    a.label("k_mtx_block");
    a.la(T1, "k_current_tcb");
    a.lw(T2, 0, T1);
    if (hw) {
        a.lw(T3, kTcbId, T2);
        a.rtuRmTask(T3);
    } else {
        inlineListRemove(T2, T3, T4);
    }
    a.addi(T3, A0, kMutexSentinel);
    inlineEventInsert(T3, T2, T4, T5, T6, "mtx");
    inlineRaiseMsip(T4, T5);
    a.csrrsi(Zero, csr::kMstatus, 8);
    // Resumed here as the owner (ownership handed over by the giver).
    a.ret();
    a.fnEnd();

    // -- k_mutex_give(a0 = mutex) ---------------------------------------------
    a.fnBegin("k_mutex_give");
    a.csrrci(Zero, csr::kMstatus, 8);
    a.addi(T0, A0, kMutexSentinel);
    a.lw(T1, kTcbNext, T0);
    a.bne(T1, T0, "k_mtx_wake");
    a.sw(Zero, kMutexOwner, A0);
    a.csrrsi(Zero, csr::kMstatus, 8);
    a.ret();
    a.label("k_mtx_wake");
    inlineListRemove(T1, T2, T3);
    a.sw(T1, kMutexOwner, A0);
    if (hw) {
        a.lw(T2, kTcbId, T1);
        a.lw(T3, kTcbPrio, T1);
        a.rtuAddReady(T2, T3);
    } else {
        inlineReadyInsert(T1, T2, T3, T4, "mg");
    }
    // Preempt if the woken waiter outranks us.
    a.la(T2, "k_current_tcb");
    a.lw(T3, 0, T2);
    a.lw(T4, kTcbPrio, T3);
    a.lw(T5, kTcbPrio, T1);
    a.bge(T4, T5, "k_mtx_nopre");
    inlineRaiseMsip(T2, T6);
    a.label("k_mtx_nopre");
    a.csrrsi(Zero, csr::kMstatus, 8);
    a.ret();
    a.fnEnd();

    // -- k_sem_take(a0 = sem) ----------------------------------------------------
    a.fnBegin("k_sem_take");
    a.csrrci(Zero, csr::kMstatus, 8);
    a.lw(T0, kSemCount, A0);
    a.beqz(T0, "k_sem_block");
    a.addi(T0, T0, -1);
    a.sw(T0, kSemCount, A0);
    a.csrrsi(Zero, csr::kMstatus, 8);
    a.ret();
    a.label("k_sem_block");
    a.la(T1, "k_current_tcb");
    a.lw(T2, 0, T1);
    if (hw) {
        a.lw(T3, kTcbId, T2);
        a.rtuRmTask(T3);
    } else {
        inlineListRemove(T2, T3, T4);
    }
    a.addi(T3, A0, kSemSentinel);
    inlineEventInsert(T3, T2, T4, T5, T6, "sem");
    inlineRaiseMsip(T4, T5);
    a.csrrsi(Zero, csr::kMstatus, 8);
    a.ret();
    a.fnEnd();

    // -- k_sem_give(a0 = sem), task context ------------------------------------
    a.fnBegin("k_sem_give");
    a.csrrci(Zero, csr::kMstatus, 8);
    a.addi(T0, A0, kSemSentinel);
    a.lw(T1, kTcbNext, T0);
    a.bne(T1, T0, "k_sem_wake");
    a.lw(T2, kSemCount, A0);
    a.addi(T2, T2, 1);
    a.sw(T2, kSemCount, A0);
    a.csrrsi(Zero, csr::kMstatus, 8);
    a.ret();
    a.label("k_sem_wake");
    inlineListRemove(T1, T2, T3);
    if (hw) {
        a.lw(T2, kTcbId, T1);
        a.lw(T3, kTcbPrio, T1);
        a.rtuAddReady(T2, T3);
    } else {
        inlineReadyInsert(T1, T2, T3, T4, "sg");
    }
    a.la(T2, "k_current_tcb");
    a.lw(T3, 0, T2);
    a.lw(T4, kTcbPrio, T3);
    a.lw(T5, kTcbPrio, T1);
    a.bge(T4, T5, "k_sem_nopre");
    inlineRaiseMsip(T2, T6);
    a.label("k_sem_nopre");
    a.csrrsi(Zero, csr::kMstatus, 8);
    a.ret();
    a.fnEnd();
}

void
KernelBuilder::emitSemGiveIsr()
{
    Assembler &a = asm_;
    const bool hw = params_.unit.sched;
    // ISR-context give: no critical section (MIE is already 0), no
    // self-preemption (the ISR reschedules right after).
    a.fnBegin("k_sem_give_isr");
    a.addi(T0, A0, kSemSentinel);
    a.lw(T1, kTcbNext, T0);
    a.bne(T1, T0, "k_sgi_wake");
    a.lw(T2, kSemCount, A0);
    a.addi(T2, T2, 1);
    a.sw(T2, kSemCount, A0);
    a.ret();
    a.label("k_sgi_wake");
    inlineListRemove(T1, T2, T3);
    if (hw) {
        a.lw(T2, kTcbId, T1);
        a.lw(T3, kTcbPrio, T1);
        a.rtuAddReady(T2, T3);
    } else {
        inlineReadyInsert(T1, T2, T3, T4, "sgi");
    }
    a.ret();
    a.fnEnd();
}

// ---- tasks -----------------------------------------------------------------

void
KernelBuilder::emitIdleTask()
{
    Assembler &a = asm_;
    a.fnBegin("k_task_idle");
    a.label("k_idle_loop");
    a.wfi();
    a.j("k_idle_loop");
    a.fnEnd();
}

void
KernelBuilder::emitTaskBodies()
{
    for (unsigned i = 1; i < tasks_.size(); ++i) {
        Assembler &a = asm_;
        const TaskSpec &t = tasks_[i];
        a.fnBegin("k_task_" + t.name);
        t.body(*this);
        // A task body must never fall through; trap loudly if it does.
        const std::string trap = csprintf("k_task_end_%u", i);
        a.label(trap);
        a.li(T0, static_cast<SWord>(memmap::kHostExit));
        a.li(T1, 0xDEAD);
        a.sw(T1, 0, T0);
        a.j(trap);
        a.fnEnd();
    }
}

// ---- body emission helpers ------------------------------------------------

void
KernelBuilder::callYield()
{
    asm_.call("k_yield");
}

void
KernelBuilder::callDelay(Word ticks)
{
    asm_.li(A0, static_cast<SWord>(ticks));
    asm_.call("k_delay");
}

void
KernelBuilder::callDelayUntil(Reg tick_reg)
{
    rtu_assert(params_.usesDelayUntil,
               "callDelayUntil requires KernelParams::usesDelayUntil");
    if (tick_reg != A0)
        asm_.mv(A0, tick_reg);
    asm_.call("k_delay_until");
}

void
KernelBuilder::callMutexTake(const std::string &m)
{
    asm_.la(A0, m);
    asm_.call("k_mutex_take");
}

void
KernelBuilder::callMutexGive(const std::string &m)
{
    asm_.la(A0, m);
    asm_.call("k_mutex_give");
}

void
KernelBuilder::callSemTake(const std::string &s)
{
    asm_.la(A0, s);
    asm_.call("k_sem_take");
}

void
KernelBuilder::callSemGive(const std::string &s)
{
    asm_.la(A0, s);
    asm_.call("k_sem_give");
}

void
KernelBuilder::callHwSemTake(unsigned sem_id)
{
    rtu_assert(params_.unit.hwsync,
               "callHwSemTake needs a +HS configuration");
    Assembler &a = asm_;
    a.li(A0, static_cast<SWord>(sem_id));
    a.rtuSemTake(T0, A0);
    const std::string done = csprintf("k_hst_done_%u", uniqueCounter_++);
    a.bnez(T0, done);
    // Blocked: the unit already parked us in the wait queue; yield.
    // If a wake races the yield we merely reschedule once — the token
    // stays ours.
    inlineRaiseMsip(T1, T2);
    a.nop();
    a.label(done);
}

void
KernelBuilder::callHwSemGive(unsigned sem_id)
{
    rtu_assert(params_.unit.hwsync,
               "callHwSemGive needs a +HS configuration");
    Assembler &a = asm_;
    a.li(A0, static_cast<SWord>(sem_id));
    a.rtuSemGive(T0, A0);
    const std::string done = csprintf("k_hsg_done_%u", uniqueCounter_++);
    a.beqz(T0, done);
    // A higher-priority waiter woke: yield to it immediately.
    inlineRaiseMsip(T1, T2);
    a.nop();
    a.label(done);
}

void
KernelBuilder::emitTrace(std::uint8_t tag, Word value24)
{
    asm_.li(T0, static_cast<SWord>(memmap::kHostTrace));
    asm_.li(T1, static_cast<SWord>((static_cast<Word>(tag) << 24) |
                                   (value24 & 0x00FF'FFFF)));
    asm_.sw(T1, 0, T0);
}

void
KernelBuilder::emitTraceReg(std::uint8_t tag, Reg value_reg)
{
    rtu_assert(value_reg != T0 && value_reg != T1 && value_reg != T2,
               "emitTraceReg clobbers t0..t2");
    Assembler &a = asm_;
    a.li(T0, static_cast<SWord>(memmap::kHostTrace));
    a.slli(T2, value_reg, 8);
    a.srli(T2, T2, 8);
    a.li(T1, static_cast<SWord>(static_cast<Word>(tag) << 24));
    a.or_(T1, T1, T2);
    a.sw(T1, 0, T0);
}

void
KernelBuilder::emitExit(Word code)
{
    asm_.li(T0, static_cast<SWord>(memmap::kHostExit));
    asm_.li(T1, static_cast<SWord>(code));
    asm_.sw(T1, 0, T0);
}

void
KernelBuilder::emitBusyLoop(Word iterations)
{
    Assembler &a = asm_;
    const std::string loop = csprintf("k_busy_%u", uniqueCounter_++);
    a.li(T0, static_cast<SWord>(iterations));
    a.li(T1, 0x9E37);
    a.label(loop);
    a.add(T1, T1, T0);
    a.xori(T1, T1, 0x2F);
    a.addi(T0, T0, -1);
    a.bnez(T0, loop);
}

void
KernelBuilder::emitBusyDivLoop(Word iterations)
{
    Assembler &a = asm_;
    const std::string loop = csprintf("k_busydiv_%u", uniqueCounter_++);
    a.li(T0, static_cast<SWord>(iterations));
    a.li(T1, 0x7FFF'1234);
    a.label(loop);
    // Long-latency divides keep the iterative divider busy so that
    // interrupt arrival samples many in-flight states.
    a.divu(T2, T1, T0);
    a.add(T1, T1, T2);
    a.addi(T0, T0, -1);
    a.bnez(T0, loop);
}

// ---- build ------------------------------------------------------------------

Program
KernelBuilder::build()
{
    rtu_assert(!built_, "build() called twice");

    TaskSpec idle;
    idle.name = "idle";
    idle.priority = 0;
    idle.body = [](KernelBuilder &) {};
    tasks_.insert(tasks_.begin(), idle);
    rtu_assert(tasks_.size() >= 2, "no user tasks");
    rtu_assert(tasks_.size() <= kMaxTasks,
               "too many tasks (%zu > %u)", tasks_.size(), kMaxTasks);

    emitDataSection();
    emitBoot();
    emitIsr();
    if (!params_.unit.sched) {
        emitSelect();
        emitTickHandler();
    }
    emitTaskApi();
    emitSemGiveIsr();
    emitIdleTask();
    emitTaskBodies();

    built_ = true;
    return asm_.finish();
}

} // namespace rtu
