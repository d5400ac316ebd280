/** A custom RTOSUnit instruction the configured hardware lacks is an
 *  illegal instruction: the run ends as guest-fault and the host
 *  process lives on. Ten programs, each on all three cores:
 *   - vanilla (no unit at all) executing ADD_READY;
 *   - CV32RT executing each of the seven custom ops it lacks (all
 *     but SWITCH_RF);
 *   - S (no hardware scheduler) executing GET_HW_SCHED;
 *   - SLT (no +HS extension) executing SEM_TAKE. */

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "asm/assembler.hh"
#include "harness/simulation.hh"
#include "sim/memmap.hh"

namespace rtu {
namespace {

struct LackingCase
{
    const char *config;
    std::function<void(Assembler &)> emitOp;
};

class IllegalCustomOp : public ::testing::TestWithParam<CoreKind>
{};

TEST_P(IllegalCustomOp, EndsTheRunAsGuestFault)
{
    const LackingCase cases[] = {
        {"vanilla", [](Assembler &a) { a.rtuAddReady(A0, A1); }},
        {"CV32RT", [](Assembler &a) { a.rtuSetContextId(A0); }},
        {"CV32RT", [](Assembler &a) { a.rtuGetHwSched(A0); }},
        {"CV32RT", [](Assembler &a) { a.rtuAddReady(A0, A1); }},
        {"CV32RT", [](Assembler &a) { a.rtuAddDelay(A0, A1); }},
        {"CV32RT", [](Assembler &a) { a.rtuRmTask(A0); }},
        {"CV32RT", [](Assembler &a) { a.rtuSemTake(A0, A1); }},
        {"CV32RT", [](Assembler &a) { a.rtuSemGive(A0, A1); }},
        {"S", [](Assembler &a) { a.rtuGetHwSched(A0); }},
        {"SLT", [](Assembler &a) { a.rtuSemTake(A0, A1); }},
    };
    for (const LackingCase &c : cases) {
        Assembler a(memmap::kImemBase, memmap::kDmemBase);
        a.dataWord("currentTaskId", 0);
        a.li(A0, 1);
        a.li(A1, 1);
        a.label("op");
        c.emitOp(a);
        a.label("spin");
        a.j("spin");
        const Program p = a.finish();

        SimConfig cfg;
        cfg.core = GetParam();
        cfg.unit = RtosUnitConfig::fromName(c.config);
        cfg.maxCycles = 10'000;
        Simulation sim(cfg, p);
        EXPECT_FALSE(sim.run()) << c.config;
        EXPECT_STREQ(runStatusName(sim.status()), "guest-fault")
            << c.config;
        EXPECT_NE(sim.statusDiagnostic().find("illegal instruction"),
                  std::string::npos)
            << c.config << ": " << sim.statusDiagnostic();
        // The faulting op retired nothing: pc still points at it.
        EXPECT_EQ(sim.archState().pc(), p.symbol("op")) << c.config;
    }
}

std::string
coreParamName(const ::testing::TestParamInfo<CoreKind> &info)
{
    return coreKindName(info.param);
}

INSTANTIATE_TEST_SUITE_P(Cores, IllegalCustomOp,
                         ::testing::Values(CoreKind::kCv32e40p,
                                           CoreKind::kCva6,
                                           CoreKind::kNax),
                         coreParamName);

} // namespace
} // namespace rtu
