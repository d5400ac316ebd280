/** Direct tests of the RTOSUnit's context FSMs: store, restore,
 *  SWITCH_RF / mret stalls, dirty bits, load omission, preloading; and
 *  guest programs that start an FSM while one is busy, which end the
 *  run as a guest fault on every core. */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "cores/arch_state.hh"
#include "kernel/layout.hh"
#include "harness/simulation.hh"
#include "rtosunit/rtosunit.hh"
#include "sim/mem.hh"
#include "sim/memmap.hh"

namespace rtu {
namespace {

class FsmTest : public ::testing::Test
{
  protected:
    FsmTest()
    {
        mem.addDevice(&dmem);
    }

    void
    makeUnit(const std::string &config_name)
    {
        config = RtosUnitConfig::fromName(config_name);
        port = std::make_unique<DirectUnitPort>(arb, mem);
        unit = std::make_unique<RtosUnit>(config, state, *port);
    }

    /** Advance @p n cycles with the core leaving the port idle. */
    void
    idleCycles(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            arb.beginCycle();
            unit->tick(cycle++);
        }
    }

    /** Advance @p n cycles with the core hogging the memory port. */
    void
    busyCycles(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            arb.beginCycle();
            arb.claim();
            unit->tick(cycle++);
        }
    }

    void
    fillAppRegs(Word seed)
    {
        for (RegIndex r = 1; r < 32; ++r)
            state.setBankReg(ArchState::kAppBank, r, seed + r);
    }

    ArchState state;
    MemSystem mem;
    Sram dmem{"dmem", memmap::kDmemBase, memmap::kDmemSize};
    SharedPort arb{"dmem"};
    RtosUnitConfig config;
    std::unique_ptr<DirectUnitPort> port;
    std::unique_ptr<RtosUnit> unit;
    Cycle cycle = 0;
};

TEST_F(FsmTest, StoreFsmDrainsFullContext)
{
    makeUnit("S");
    fillAppRegs(1000);
    state.csrs.mepc = 0x1234;
    state.csrs.mstatus = mstatus::kMpie;
    unit->setContextId(3);

    unit->onTrapEntry(mcause::kMachineTimer);
    EXPECT_TRUE(unit->storeBusy());
    EXPECT_EQ(state.activeBank(), ArchState::kIsrBank);

    idleCycles(kCtxWords + 2);
    EXPECT_FALSE(unit->storeBusy());

    const Addr base = memmap::ctxAddr(3);
    EXPECT_EQ(mem.read32(base + 0), 0x1234u);           // mepc
    EXPECT_EQ(mem.read32(base + 4), mstatus::kMpie);    // mstatus
    EXPECT_EQ(mem.read32(base + 8), 1000u + 1);         // x1
    EXPECT_EQ(mem.read32(base + 12), 1000u + 2);        // x2
    EXPECT_EQ(mem.read32(base + 16), 1000u + 5);        // x5
    EXPECT_EQ(mem.read32(base + 4 * 30), 1000u + 31);   // x31
    EXPECT_EQ(unit->stats().storeWords, kCtxWords);
}

TEST_F(FsmTest, StoreFsmTakesExactly31FreeCycles)
{
    makeUnit("S");
    unit->setContextId(0);
    unit->onTrapEntry(mcause::kMachineTimer);
    idleCycles(kCtxWords - 1);
    EXPECT_TRUE(unit->storeBusy());
    idleCycles(1);
    EXPECT_FALSE(unit->storeBusy());
}

TEST_F(FsmTest, StoreFsmYieldsToTheCore)
{
    makeUnit("S");
    unit->setContextId(0);
    unit->onTrapEntry(mcause::kMachineTimer);
    // While the core owns the port, no word transfers.
    busyCycles(100);
    EXPECT_TRUE(unit->storeBusy());
    EXPECT_EQ(unit->stats().storeWords, 0u);
    idleCycles(kCtxWords);
    EXPECT_FALSE(unit->storeBusy());
}

TEST_F(FsmTest, SwitchRfStallsWhileStoring)
{
    makeUnit("S");
    unit->setContextId(0);
    unit->onTrapEntry(mcause::kMachineSoftware);
    EXPECT_TRUE(unit->switchRfStall());
    idleCycles(kCtxWords);
    EXPECT_FALSE(unit->switchRfStall());
    unit->switchRf();
    EXPECT_EQ(state.activeBank(), ArchState::kAppBank);
}

TEST_F(FsmTest, RestoreFsmLoadsContextAndStallsMret)
{
    makeUnit("SL");
    // Prepare task 2's context image in memory.
    const Addr base = memmap::ctxAddr(2);
    mem.write32(base + 0, 0x4444);               // mepc
    mem.write32(base + 4, mstatus::kMpie);       // mstatus
    for (unsigned i = 2; i < kCtxWords; ++i)
        mem.write32(base + 4 * i, 0xAA00 + i);

    unit->setContextId(0);
    idleCycles(kCtxWords + 4);  // boot-time restore of task 0 drains
    unit->onTrapEntry(mcause::kMachineSoftware);
    unit->setContextId(2);  // schedules the restore
    EXPECT_TRUE(unit->mretStall());

    // Store (31) then restore (31) serialized on the single port.
    idleCycles(2 * kCtxWords + 2);
    EXPECT_FALSE(unit->mretStall());
    EXPECT_EQ(state.csrs.mepc, 0x4444u);
    EXPECT_EQ(state.csrs.mstatus, mstatus::kMpie);
    EXPECT_EQ(state.bankReg(ArchState::kAppBank, 1), 0xAA02u);
    EXPECT_EQ(state.bankReg(ArchState::kAppBank, 31),
              0xAA00u + kCtxWords - 1);

    unit->onMretExecuted();
    EXPECT_EQ(state.activeBank(), ArchState::kAppBank);
}

TEST_F(FsmTest, StoreThenRestoreRoundTripsThroughMemory)
{
    makeUnit("SL");
    unit->setContextId(5);
    idleCycles(kCtxWords + 4);  // boot-time restore of task 5 drains
    fillAppRegs(7000);
    state.csrs.mepc = 0xBEE0;
    unit->onTrapEntry(mcause::kMachineTimer);
    // Switch back to the same task: restore must read what the store
    // wrote (restore is ordered after the store drain).
    unit->setContextId(5);
    idleCycles(2 * kCtxWords + 2);
    EXPECT_FALSE(unit->mretStall());
    for (RegIndex r : {1, 2, 5, 17, 31}) {
        EXPECT_EQ(state.bankReg(ArchState::kAppBank, r), 7000u + r)
            << "x" << unsigned(r);
    }
    EXPECT_EQ(state.csrs.mepc, 0xBEE0u);
}

TEST_F(FsmTest, DirtyBitsSkipCleanRegisters)
{
    makeUnit("SD");
    state.clearDirtyBits();
    state.setReg(A0, 42);  // dirties x10 only
    state.setReg(T0, 43);  // dirties x5
    unit->setContextId(1);
    unit->onTrapEntry(mcause::kMachineTimer);
    idleCycles(kCtxWords);
    EXPECT_FALSE(unit->storeBusy());
    // mepc + mstatus + two dirty registers.
    EXPECT_EQ(unit->stats().storeWords, 4u);
    EXPECT_EQ(unit->stats().dirtySkippedWords, 27u);
    EXPECT_EQ(mem.read32(memmap::ctxAddr(1) + kernel::ctxSlotOfReg(10)),
              42u);
    EXPECT_EQ(mem.read32(memmap::ctxAddr(1) + kernel::ctxSlotOfReg(5)),
              43u);
}

TEST_F(FsmTest, DirtyBitsClearedAtMret)
{
    makeUnit("SD");
    state.setReg(A0, 42);
    EXPECT_TRUE(state.regDirty(A0));
    unit->setContextId(1);
    unit->onTrapEntry(mcause::kMachineTimer);
    idleCycles(kCtxWords);
    unit->switchRf();
    unit->onMretExecuted();
    EXPECT_FALSE(state.regDirty(A0));
}

TEST_F(FsmTest, LoadOmissionSkipsRestoreForSameTask)
{
    makeUnit("SDLO");
    unit->setContextId(4);
    idleCycles(kCtxWords + 4);  // boot-time restore (counts one run)
    state.markAllDirty();
    unit->onTrapEntry(mcause::kMachineTimer);
    unit->setContextId(4);  // next == previous
    idleCycles(2 * kCtxWords);
    EXPECT_EQ(unit->stats().loadOmissions, 1u);
    EXPECT_EQ(unit->stats().restoreRuns, 1u);  // the boot restore only
    EXPECT_FALSE(unit->mretStall());
}

TEST_F(FsmTest, LoadOmissionStillRestoresDifferentTask)
{
    makeUnit("SDLO");
    unit->setContextId(4);
    idleCycles(kCtxWords + 4);
    state.markAllDirty();
    unit->onTrapEntry(mcause::kMachineTimer);
    unit->setContextId(6);
    idleCycles(2 * kCtxWords + 2);
    EXPECT_EQ(unit->stats().loadOmissions, 0u);
    EXPECT_EQ(unit->stats().restoreRuns, 2u);  // boot + this switch
}

class PreloadTest : public FsmTest
{
  protected:
    void
    SetUp() override
    {
        makeUnit("SPLIT");
        // Seed contexts for tasks 0..2.
        for (TaskId id : {0, 1, 2}) {
            const Addr base = memmap::ctxAddr(id);
            for (unsigned i = 0; i < kCtxWords; ++i)
                mem.write32(base + 4 * i, 0x1000u * id + i);
        }
        // Boot like the SLT kernel: make everything ready, pop the
        // first task (0, the highest priority), let its restore
        // drain, then retire it from the ready list so task 1 is the
        // prefetch candidate.
        unit->addReady(0, 7);
        unit->addReady(1, 5);
        unit->addReady(2, 5);
        idleCycles(12);  // sort settles
        ASSERT_FALSE(unit->getHwSchedStall());
        ASSERT_EQ(unit->getHwSched(), 0u);  // current := 0, restores 0
        idleCycles(kCtxWords + 6);
        unit->rmTask(0);
        idleCycles(60);  // resort + prefetch of the new head (task 1)
    }
};

TEST_F(PreloadTest, PrefetchesReadyListHead)
{
    EXPECT_EQ(unit->stats().preloadFetches, 1u);
}

TEST_F(PreloadTest, CorrectPredictionMakesRestoreFree)
{
    unit->onTrapEntry(mcause::kMachineSoftware);
    idleCycles(3);
    // GET pops task 1 == the preloaded context.
    while (unit->getHwSchedStall())
        idleCycles(1);
    const Word next = unit->getHwSched();
    EXPECT_EQ(next, 1u);
    // The store drain doubles as the restore (lockstep): no restore
    // FSM run, registers already carry task 1's context afterwards.
    idleCycles(kCtxWords + 2);
    EXPECT_FALSE(unit->mretStall());
    EXPECT_EQ(unit->stats().preloadHits, 1u);
    EXPECT_EQ(unit->stats().restoreRuns, 1u);  // only the boot restore
    EXPECT_EQ(state.csrs.mepc, 0x1000u & ~1u);
    EXPECT_EQ(state.bankReg(ArchState::kAppBank, 1), 0x1000u + 2);
}

TEST_F(PreloadTest, WrongPredictionFallsBackToFullRestore)
{
    // A higher-priority task becomes ready right at the interrupt —
    // the paper's canonical misprediction scenario.
    unit->onTrapEntry(mcause::kMachineSoftware);
    unit->addReady(3, 7);
    const Addr base = memmap::ctxAddr(3);
    for (unsigned i = 0; i < kCtxWords; ++i)
        mem.write32(base + 4 * i, 0x3000u + i);
    while (unit->getHwSchedStall())
        idleCycles(1);
    const Word next = unit->getHwSched();
    EXPECT_EQ(next, 3u);
    idleCycles(2 * kCtxWords + 4);
    EXPECT_FALSE(unit->mretStall());
    EXPECT_EQ(unit->stats().preloadMisses, 1u);
    EXPECT_EQ(unit->stats().restoreRuns, 2u);  // boot + fallback
    EXPECT_EQ(state.bankReg(ArchState::kAppBank, 1), 0x3000u + 2);
}

TEST_F(PreloadTest, NeverPrefetchesTheRunningTask)
{
    // Leave only the running task (0) ready: its context memory is
    // stale while it runs, so the prefetcher must stay idle.
    unit->rmTask(1);
    unit->rmTask(2);
    unit->addReady(0, 7);
    idleCycles(12);
    const auto fetches = unit->stats().preloadFetches;
    idleCycles(80);
    EXPECT_EQ(unit->stats().preloadFetches, fetches);
}

// A task id comes from a guest register, so an out-of-range one (a
// corrupted TCB field) ends the run as a guest fault, not the host.
TEST_F(FsmTest, OutOfRangeContextIdIsAGuestFault)
{
    makeUnit("SLT");
    EXPECT_THROW(unit->setContextId(memmap::kCtxMaxTasks), GuestFault);
}

TEST_F(FsmTest, OutOfRangeReadyIdIsAGuestFault)
{
    makeUnit("T");
    EXPECT_THROW(unit->addReady(memmap::kCtxMaxTasks, 1), GuestFault);
    EXPECT_EQ(unit->readyList().occupancy(), 0u);
}

TEST_F(FsmTest, SchedulerStallsGetDuringSortAndTransfer)
{
    makeUnit("T");
    unit->addReady(1, 3);
    EXPECT_TRUE(unit->getHwSchedStall());
    idleCycles(config.listSlots + 2);
    EXPECT_FALSE(unit->getHwSchedStall());

    // Latch task 1 as current the way the kernel does (via GET), then
    // delay it exactly like k_delay: remove from ready, add to delay.
    EXPECT_EQ(unit->getHwSched(), 1u);
    idleCycles(config.listSlots + 2);
    unit->rmTask(1);
    unit->addDelay(3, 1);
    idleCycles(config.listSlots + 2);
    unit->onTrapEntry(mcause::kMachineTimer);  // delay 1 -> 0
    EXPECT_TRUE(unit->getHwSchedStall());      // expiry transfer pending
    idleCycles(2 * config.listSlots + 4);
    EXPECT_FALSE(unit->getHwSchedStall());
    EXPECT_EQ(unit->getHwSched(), 1u);
}

TEST_F(FsmTest, TimerTrapWithSchedMovesExpiredTasks)
{
    makeUnit("SLT");
    unit->addReady(0, 0);
    unit->setContextId(2);        // also schedules a boot restore
    unit->addDelay(4, 2);         // delay current (2) for two ticks
    idleCycles(kCtxWords + 10);   // restore + sorts settle
    unit->onTrapEntry(mcause::kMachineTimer);
    idleCycles(kCtxWords + 20);
    // One tick elapsed: task 2 still delayed; idle (0) schedulable.
    EXPECT_FALSE(unit->delayList().slots().empty());
    EXPECT_EQ(unit->delayList().occupancy(), 1u);
    unit->getHwSched();  // pops idle
    // wait for pending restore of idle to finish before next episode
    idleCycles(2 * kCtxWords + 8);
    unit->onTrapEntry(mcause::kMachineTimer);
    idleCycles(2 * config.listSlots + 8);
    EXPECT_EQ(unit->delayList().occupancy(), 0u);
    EXPECT_TRUE(unit->readyList().occupancy() >= 2);
}

// ---- guest programs that overrun an FSM ------------------------------

/** Run @p p on every core under @p config: each run must end as a
 *  guest fault whose diagnostic contains @p what. */
void
expectGuestFaultOnEveryCore(const Program &p, const char *config,
                            const std::string &what)
{
    for (CoreKind core :
         {CoreKind::kCv32e40p, CoreKind::kCva6, CoreKind::kNax}) {
        SimConfig cfg;
        cfg.core = core;
        cfg.unit = RtosUnitConfig::fromName(config);
        cfg.maxCycles = 10'000;
        Simulation sim(cfg, p);
        EXPECT_FALSE(sim.run()) << coreKindName(core);
        EXPECT_STREQ(runStatusName(sim.status()), "guest-fault")
            << coreKindName(core);
        EXPECT_NE(sim.statusDiagnostic().find(what), std::string::npos)
            << coreKindName(core) << ": " << sim.statusDiagnostic();
    }
}

TEST(FsmGuestFault, InterruptWhileTheStoreDrains)
{
    // A pending software interrupt traps into the ISR, which starts
    // the SL store FSM; the ISR's first instruction re-enables
    // interrupts while the interrupt is still pending, so the core
    // traps again before the 31-word drain is done.
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.la(T0, "isr");
    a.csrw(csr::kMtvec, T0);
    a.li(T0, static_cast<SWord>(irq::kMsi));
    a.csrw(csr::kMie, T0);
    a.li(T0, 1);
    a.li(T1, static_cast<SWord>(memmap::kClintMsip));
    a.sw(T0, 0, T1);
    a.csrrsi(Zero, csr::kMstatus, mstatus::kMie);
    a.label("spin");
    a.j("spin");
    a.label("isr");
    a.csrrsi(Zero, csr::kMstatus, mstatus::kMie);
    a.label("isr_spin");
    a.j("isr_spin");
    expectGuestFaultOnEveryCore(a.finish(), "SL",
                                "context switch episode while FSMs are "
                                "busy");
}

TEST(FsmGuestFault, SecondContextIdWhileARestoreRuns)
{
    // The first SET_CONTEXT_ID schedules a 31-word restore that starts
    // on the next free cycle; the second one lands while it runs.
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.li(A0, 1);
    a.rtuSetContextId(A0);
    a.nop();
    a.nop();
    a.rtuSetContextId(A0);
    a.label("spin");
    a.j("spin");
    expectGuestFaultOnEveryCore(a.finish(), "SL",
                                "restore scheduled while one is running");
}

} // namespace
} // namespace rtu
