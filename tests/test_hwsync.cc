/** Tests for the hardware-semaphore extension (the paper's future
 *  work, Section 7): unit-level semantics and full-kernel behaviour. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "harness/simulation.hh"
#include "kernel/kernel.hh"
#include "rtosunit/rtosunit.hh"
#include "sim/hostio.hh"
#include "sim/memmap.hh"

namespace rtu {
namespace {

class HwSemUnit : public ::testing::Test
{
  protected:
    HwSemUnit()
    {
        mem.addDevice(&dmem);
        config = RtosUnitConfig::fromName("T+HS");
        port = std::make_unique<DirectUnitPort>(arb, mem);
        unit = std::make_unique<RtosUnit>(config, state, *port);
    }

    void
    settle(unsigned n = 24)
    {
        for (unsigned i = 0; i < n; ++i) {
            arb.beginCycle();
            unit->tick(cycle++);
        }
    }

    /** Make @p id the running task via the scheduler. */
    void
    schedule(TaskId id, Priority prio)
    {
        unit->addReady(id, prio);
        settle();
        ASSERT_EQ(unit->getHwSched(), id);
        settle();
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

TEST_F(HwSemUnit, CountingSemantics)
{
    schedule(1, 3);
    EXPECT_EQ(unit->semGive(0), 0u);  // no waiter: count -> 1
    EXPECT_EQ(unit->semGive(0), 0u);  // count -> 2
    EXPECT_EQ(unit->semTake(0), 1u);  // count -> 1
    EXPECT_EQ(unit->semTake(0), 1u);  // count -> 0
    EXPECT_EQ(unit->stats().semTakes, 2u);
    EXPECT_EQ(unit->stats().semBlocks, 0u);
}

// Semaphore ids come from guest registers: an id past the configured
// slots ends the run as a guest fault instead of aborting the host.
TEST_F(HwSemUnit, OutOfRangeTakeIsAGuestFault)
{
    schedule(1, 3);
    EXPECT_THROW(unit->semTake(config.semSlots), GuestFault);
    EXPECT_EQ(unit->stats().semTakes, 0u);
}

TEST_F(HwSemUnit, OutOfRangeGiveIsAGuestFault)
{
    schedule(1, 3);
    EXPECT_THROW(unit->semGive(config.semSlots), GuestFault);
    EXPECT_EQ(unit->stats().semGives, 0u);
}

TEST_F(HwSemUnit, TakeOnEmptyBlocksAndRemovesFromReady)
{
    schedule(1, 3);
    const unsigned ready_before = unit->readyList().occupancy();
    EXPECT_EQ(unit->semTake(0), 0u);  // blocks
    settle();
    EXPECT_EQ(unit->readyList().occupancy(), ready_before - 1);
    EXPECT_EQ(unit->stats().semBlocks, 1u);
}

TEST_F(HwSemUnit, GiveHandsTokenToHighestPriorityWaiter)
{
    // Three tasks block on semaphore 0 with different priorities.
    for (TaskId id : {1, 2, 3}) {
        schedule(id, static_cast<Priority>(id));
        EXPECT_EQ(unit->semTake(0), 0u);
        settle();
    }
    schedule(4, 7);  // the giver
    EXPECT_EQ(unit->semGive(0), 0u);  // prio 3 waiter < giver prio 7
    settle();
    // The highest-priority waiter (3) is ready again; others not.
    bool found3 = false;
    for (const HwSlot &s : unit->readyList().slots()) {
        if (s.valid && s.id == 3)
            found3 = true;
        EXPECT_FALSE(s.valid && (s.id == 1 || s.id == 2));
    }
    EXPECT_TRUE(found3);
    EXPECT_EQ(unit->stats().semWakes, 1u);
}

TEST_F(HwSemUnit, GiveSignalsPreemptionForHigherPriorityWaiter)
{
    schedule(5, 6);
    EXPECT_EQ(unit->semTake(0), 0u);  // prio-6 task blocks
    settle();
    schedule(1, 2);  // low-priority giver
    EXPECT_EQ(unit->semGive(0), 1u);  // waiter outranks the giver
}

TEST_F(HwSemUnit, ValidationRequiresScheduling)
{
    RtosUnitConfig c = RtosUnitConfig::fromName("SLT");
    c.hwsync = true;
    std::string why;
    EXPECT_TRUE(c.validate(&why)) << why;
    c = RtosUnitConfig::fromName("SL");
    c.hwsync = true;
    EXPECT_FALSE(c.validate(&why));
    EXPECT_EQ(RtosUnitConfig::fromName("SLT+HS").name(), "SLT+HS");
    EXPECT_EQ(RtosUnitConfig::fromName("SPLIT+HS").name(), "SPLIT+HS");
}

// ---- full-kernel behaviour -------------------------------------------

class HwSemKernel : public ::testing::TestWithParam<std::string>
{
  protected:
    std::vector<GuestEvent>
    runMutexScenario(unsigned iterations, bool *ok)
    {
        KernelParams kp;
        kp.unit = RtosUnitConfig::fromName(GetParam());
        KernelBuilder kb(kp);
        const unsigned sem = kb.createHwSemaphore(1);  // binary

        kb.a().dataWord("w_done", 0);
        for (unsigned t = 0; t < 3; ++t) {
            TaskSpec spec;
            spec.name = csprintf("hws%u", t);
            spec.priority = t == 2 ? 3 : 2;
            spec.body = [=](KernelBuilder &k) {
                Assembler &a = k.a();
                const std::string loop = csprintf("w_hwl_%u", t);
                a.li(S0, static_cast<SWord>(iterations));
                a.label(loop);
                k.callHwSemTake(sem);
                k.emitTrace(tag::kMutexAcq, t);
                k.emitBusyLoop(50);
                k.emitTrace(tag::kMutexRel, t);
                k.callHwSemGive(sem);
                if (t == 2)
                    k.callDelay(2);
                else
                    k.emitBusyLoop(30);
                a.addi(S0, S0, -1);
                a.bnez(S0, loop);
                // Finish accounting (same pattern as the workloads).
                a.csrrci(Zero, csr::kMstatus, 8);
                a.la(T0, "w_done");
                a.lw(T1, 0, T0);
                a.addi(T1, T1, 1);
                a.sw(T1, 0, T0);
                a.csrrsi(Zero, csr::kMstatus, 8);
                a.li(T2, 3);
                const std::string park = csprintf("w_hwp_%u", t);
                a.bne(T1, T2, park);
                k.emitExit(0);
                a.label(park);
                const std::string ploop = csprintf("w_hwpl_%u", t);
                a.label(ploop);
                a.li(A0, 1'000'000);
                a.call("k_delay");
                a.j(ploop);
            };
            kb.addTask(spec);
        }
        const Program program = kb.build();
        SimConfig sc;
        sc.core = CoreKind::kCv32e40p;
        sc.unit = kp.unit;
        Simulation sim(sc, program);
        const bool exited = sim.run();
        *ok = exited && sim.exitCode() == 0;
        return sim.hostIo().events();
    }
};

TEST_P(HwSemKernel, MutualExclusionHolds)
{
    bool ok = false;
    const auto events = runMutexScenario(6, &ok);
    ASSERT_TRUE(ok);
    bool held = false;
    Word holder = 0;
    unsigned acquisitions = 0;
    unsigned per_task[3] = {0, 0, 0};
    for (const GuestEvent &e : events) {
        if (e.tag == tag::kMutexAcq) {
            EXPECT_FALSE(held) << "task " << e.value << " entered while "
                               << holder << " holds the semaphore";
            held = true;
            holder = e.value;
            ++acquisitions;
            if (e.value < 3)
                ++per_task[e.value];
        } else if (e.tag == tag::kMutexRel) {
            EXPECT_TRUE(held);
            EXPECT_EQ(e.value, holder);
            held = false;
        }
    }
    EXPECT_EQ(acquisitions, 18u);
    for (unsigned t = 0; t < 3; ++t)
        EXPECT_EQ(per_task[t], 6u) << "task " << t;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HwSemKernel,
    ::testing::Values("T+HS", "ST+HS", "SLT+HS", "SPLIT+HS"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (char &c : n) {
            if (c == '+')
                c = '_';
        }
        return n;
    });

} // namespace
} // namespace rtu
