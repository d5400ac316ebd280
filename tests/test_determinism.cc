/** Determinism and cross-core semantics: identical runs produce
 *  identical traces; scheduling invariants hold on every core model. */

#include <gtest/gtest.h>

#include <deque>

#include "harness/experiment.hh"
#include "sim/hostio.hh"

namespace rtu {
namespace {

struct RunCapture
{
    Cycle cycles = 0;
    std::deque<SwitchRecord> switches;
    std::vector<GuestEvent> events;
    Word exitCode = 0;
};

RunCapture
capture(CoreKind core, const std::string &config,
        const std::string &workload)
{
    auto w = makeWorkload(workload, 8);
    const WorkloadInfo info = w->info();
    KernelParams kp;
    kp.unit = RtosUnitConfig::fromName(config);
    kp.usesExternalIrq = info.usesExternalIrq;
    KernelBuilder kb(kp);
    w->addTasks(kb);
    const Program program = kb.build();
    SimConfig sc;
    sc.core = core;
    sc.unit = kp.unit;
    sc.maxCycles = info.maxCycles;
    Simulation sim(sc, program);
    for (Cycle at : info.extIrqSchedule)
        sim.scheduleExtIrq(at);
    sim.run();
    RunCapture out;
    out.cycles = sim.now();
    out.switches = sim.recorder().records();
    out.events = sim.hostIo().events();
    out.exitCode = sim.exitCode();
    return out;
}

class Determinism
    : public ::testing::TestWithParam<std::tuple<CoreKind, std::string>>
{
};

TEST_P(Determinism, IdenticalRunsProduceIdenticalTraces)
{
    const auto [core, config] = GetParam();
    const RunCapture a = capture(core, config, "mutex_workload");
    const RunCapture b = capture(core, config, "mutex_workload");
    ASSERT_EQ(a.cycles, b.cycles);
    ASSERT_EQ(a.exitCode, b.exitCode);
    ASSERT_EQ(a.switches.size(), b.switches.size());
    for (size_t i = 0; i < a.switches.size(); ++i) {
        EXPECT_EQ(a.switches[i].assertCycle, b.switches[i].assertCycle);
        EXPECT_EQ(a.switches[i].mretCycle, b.switches[i].mretCycle);
        EXPECT_EQ(a.switches[i].fromTask, b.switches[i].fromTask);
        EXPECT_EQ(a.switches[i].toTask, b.switches[i].toTask);
    }
    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].cycle, b.events[i].cycle);
        EXPECT_EQ(a.events[i].value, b.events[i].value);
    }
}

TEST_P(Determinism, MutexExclusionHoldsOnEveryCore)
{
    const auto [core, config] = GetParam();
    const RunCapture r = capture(core, config, "mutex_workload");
    ASSERT_EQ(r.exitCode, 0u);
    bool held = false;
    for (const GuestEvent &e : r.events) {
        if (e.tag == tag::kMutexAcq) {
            EXPECT_FALSE(held);
            held = true;
        } else if (e.tag == tag::kMutexRel) {
            EXPECT_TRUE(held);
            held = false;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    CoreConfig, Determinism,
    ::testing::Combine(::testing::Values(CoreKind::kCv32e40p,
                                         CoreKind::kCva6,
                                         CoreKind::kNax),
                       ::testing::Values("vanilla", "CV32RT", "SLT",
                                         "SPLIT")),
    [](const auto &info) {
        return std::string(coreKindName(std::get<0>(info.param))) + "_" +
               std::get<1>(info.param);
    });

} // namespace
} // namespace rtu
