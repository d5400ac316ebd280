/** Harness tests: workload registry, experiment driver, cross-core
 *  runs and activity counters. */

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace rtu {
namespace {

TEST(Workloads, SuiteHasSevenScenarios)
{
    const auto suite = standardSuite(5);
    EXPECT_EQ(suite.size(), 7u);
    std::set<std::string> names;
    for (const auto &w : suite)
        names.insert(w->info().name);
    EXPECT_EQ(names.size(), suite.size());
}

TEST(Workloads, RegistryFindsEveryName)
{
    for (const char *n :
         {"yield_pingpong", "round_robin", "mutex_workload",
          "delay_wake", "sem_pingpong", "priority_preempt",
          "ext_interrupt"}) {
        auto w = makeWorkload(n, 3);
        EXPECT_EQ(w->info().name, n);
    }
}

TEST(WorkloadsDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(makeWorkload("nope", 3),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(Workloads, ExtInterruptSchedulesOneIrqPerIteration)
{
    auto w = makeExtInterrupt(7);
    const WorkloadInfo info = w->info();
    EXPECT_TRUE(info.usesExternalIrq);
    EXPECT_EQ(info.extIrqSchedule.size(), 7u);
    for (size_t i = 1; i < info.extIrqSchedule.size(); ++i)
        EXPECT_GT(info.extIrqSchedule[i], info.extIrqSchedule[i - 1]);
}

class CrossCore : public ::testing::TestWithParam<CoreKind>
{
};

TEST_P(CrossCore, VanillaAndSltRunEverywhere)
{
    for (const char *cfg : {"vanilla", "SLT"}) {
        auto w = makeYieldPingPong(5);
        const RunResult r =
            runWorkload(GetParam(), RtosUnitConfig::fromName(cfg), *w);
        EXPECT_TRUE(r.ok) << coreKindName(GetParam()) << "/" << cfg;
        EXPECT_GT(r.switchLatency.count(), 5u);
        EXPECT_GT(r.activity.instret, 100u);
        EXPECT_GT(r.activity.cycles, 100u);
    }
}

TEST_P(CrossCore, UnitActivityOnlyWithHardware)
{
    auto w1 = makeYieldPingPong(5);
    const RunResult vanilla =
        runWorkload(GetParam(), RtosUnitConfig::vanilla(), *w1);
    auto w2 = makeYieldPingPong(5);
    const RunResult slt = runWorkload(
        GetParam(), RtosUnitConfig::fromName("SLT"), *w2);
    EXPECT_EQ(vanilla.activity.unitMemWords, 0u);
    EXPECT_GT(slt.activity.unitMemWords, 100u);
    EXPECT_GT(slt.activity.sortPhases, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cores, CrossCore,
    ::testing::Values(CoreKind::kCv32e40p, CoreKind::kCva6,
                      CoreKind::kNax),
    [](const ::testing::TestParamInfo<CoreKind> &info) {
        return coreKindName(info.param);
    });

TEST(EngineMode, NamesRoundTrip)
{
    for (EngineMode m : {EngineMode::kFull, EngineMode::kNoBlock,
                         EngineMode::kNoPredecode, EngineMode::kReference})
        EXPECT_EQ(engineModeFromName(engineModeName(m)), m)
            << engineModeName(m);
    EXPECT_STREQ(engineModeName(EngineMode::kFull), "full");
    EXPECT_STREQ(engineModeName(EngineMode::kNoBlock), "no-block");
    EXPECT_STREQ(engineModeName(EngineMode::kNoPredecode), "no-predecode");
    EXPECT_STREQ(engineModeName(EngineMode::kReference), "reference");
}

TEST(EngineModeDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(engineModeFromName("fast"), ::testing::ExitedWithCode(1),
                "unknown engine 'fast'");
}

TEST(CoreKind, NamesParse)
{
    EXPECT_EQ(coreKindFromName("cv32e40p"), CoreKind::kCv32e40p);
    EXPECT_EQ(coreKindFromName("cva6"), CoreKind::kCva6);
    EXPECT_EQ(coreKindFromName("nax"), CoreKind::kNax);
    EXPECT_EQ(coreKindFromName("naxriscv"), CoreKind::kNax);
}

TEST(CoreKindDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(coreKindFromName("rocket"), ::testing::ExitedWithCode(1),
                "unknown core 'rocket'");
}

TEST(Simulation, ReadSymbolWordSeesGuestState)
{
    auto w = makeYieldPingPong(3);
    KernelParams kp;
    kp.unit = RtosUnitConfig::vanilla();
    KernelBuilder kb(kp);
    w->addTasks(kb);
    const Program program = kb.build();
    SimConfig sc;
    sc.core = CoreKind::kCv32e40p;
    sc.unit = kp.unit;
    Simulation sim(sc, program);
    ASSERT_TRUE(sim.run());
    // Both tasks finished: the shared done counter reached 2.
    EXPECT_EQ(sim.readSymbolWord("w_done"), 2u);
    // The tick counter advanced with the 1000-cycle timer.
    EXPECT_GE(sim.readSymbolWord("k_tick_count"), sim.now() / 1000 - 1);
}

TEST(Simulation, SwitchRecordsCarryValidTaskIds)
{
    auto w = makeRoundRobin(3);
    const WorkloadInfo info = w->info();
    KernelParams kp;
    kp.unit = RtosUnitConfig::fromName("SLT");
    KernelBuilder kb(kp);
    w->addTasks(kb);
    const Program program = kb.build();
    SimConfig sc;
    sc.core = CoreKind::kCv32e40p;
    sc.unit = kp.unit;
    sc.maxCycles = info.maxCycles;
    Simulation sim(sc, program);
    ASSERT_TRUE(sim.run());
    for (const SwitchRecord &r : sim.recorder().records()) {
        EXPECT_LT(r.fromTask, 5u);  // idle + 4 workers
        EXPECT_LT(r.toTask, 5u);
        EXPECT_GE(r.entryCycle, r.assertCycle);
        EXPECT_GT(r.mretCycle, r.entryCycle);
    }
}

} // namespace
} // namespace rtu
