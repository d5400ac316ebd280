/** Steady-loop replay in the three block engines, and the fault
 *  campaign's one-simulation-per-effect collapsing.
 *
 *  Replay is exact by construction, so every test compares the full
 *  engine against an engine without block runs on the same input:
 *   - a busy-loop workload and an ext_interrupt livelock (a dropped
 *     IRQ leaves the background task spinning between timer ticks);
 *   - a bare-metal loop whose inner branch flips mid-replay, so a
 *     partial interval is discarded (rollback), and whose exit does
 *     the same;
 *   - a bare-metal timer interrupt landing inside a steady loop, at
 *     every phase of the loop's interval (horizon).
 *  Each run must also have replayed instructions, or it shows
 *  nothing. The campaign tests check that a plan with same-effect IRQ
 *  faults reports each of them as its own simulation would. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "harness/experiment.hh"
#include "inject/campaign.hh"
#include "sim/memmap.hh"
#include "sweep/sweep.hh"
#include "trace/trace.hh"

namespace rtu {
namespace {

/** What a run leaves behind that the engines must agree on. */
struct Outcome
{
    RunStatus status = RunStatus::kExited;
    Cycle cycles = 0;
    CoreStats stats;
    std::string trace;
    std::array<Word, 32> regs{};
    std::array<bool, 32> dirty{};
    /** The program's "trap_pc" data word, if it has one. */
    Word trapPc = 0;
};

Outcome
simulate(CoreKind core, const RtosUnitConfig &unit, const Program &program,
         EngineMode engine, Cycle max_cycles,
         const std::vector<Cycle> &ext_irqs = {})
{
    SimConfig cfg;
    cfg.core = core;
    cfg.unit = unit;
    cfg.engine = engine;
    cfg.maxCycles = max_cycles;
    Simulation sim(cfg, program);
    for (Cycle at : ext_irqs)
        sim.scheduleExtIrq(at);

    std::ostringstream trace;
    JsonlTraceSink sink(trace);
    sink.beginRun({coreKindName(core), unit.name(), "replay", 0});
    sim.setTraceSink(&sink);
    sim.run();
    sink.endRun();

    Outcome out;
    out.status = sim.status();
    out.cycles = sim.now();
    out.stats = sim.coreStats();
    out.trace = trace.str();
    for (RegIndex r = 0; r < 32; ++r) {
        out.regs[r] = sim.archState().reg(r);
        out.dirty[r] = sim.archState().regDirty(r);
    }
    if (sim.findSymbolAddr("trap_pc") != 0)
        out.trapPc = sim.readSymbolWord("trap_pc");
    return out;
}

/** Every counter the engines share must match; the fetch split, the
 *  block counters and the replay count belong to the block path. */
void
expectSameRun(const Outcome &full, const Outcome &other,
              const std::string &what)
{
    EXPECT_EQ(full.status, other.status) << what;
    EXPECT_EQ(full.cycles, other.cycles) << what;
    const CoreStats &a = full.stats;
    const CoreStats &b = other.stats;
    EXPECT_EQ(a.instret, b.instret) << what;
    EXPECT_EQ(a.traps, b.traps) << what;
    EXPECT_EQ(a.mrets, b.mrets) << what;
    EXPECT_EQ(a.wfiCycles, b.wfiCycles) << what;
    EXPECT_EQ(a.memOps, b.memOps) << what;
    EXPECT_EQ(a.stallCycles, b.stallCycles) << what;
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts) << what;
    EXPECT_EQ(a.cacheMisses, b.cacheMisses) << what;
    EXPECT_EQ(a.fetchPredecoded + a.fetchSlowPath,
              b.fetchPredecoded + b.fetchSlowPath)
        << what;
    EXPECT_EQ(a.textInvalidations, b.textInvalidations) << what;
    EXPECT_EQ(a.blockInvalidations, b.blockInvalidations) << what;
    EXPECT_EQ(b.replayedInsns, 0u) << what;
    EXPECT_TRUE(full.trace == other.trace) << what << ": traces differ";
    EXPECT_TRUE(full.regs == other.regs) << what << ": registers differ";
    EXPECT_TRUE(full.dirty == other.dirty) << what << ": dirty bits differ";
    EXPECT_EQ(full.trapPc, other.trapPc) << what;
}

class SteadyLoopReplay
    : public ::testing::TestWithParam<std::tuple<CoreKind, const char *>>
{
  protected:
    CoreKind core() const { return std::get<0>(GetParam()); }
    RtosUnitConfig
    unit() const
    {
        return RtosUnitConfig::fromName(std::get<1>(GetParam()));
    }
    std::string
    label() const
    {
        return std::string(coreKindName(core())) + "/" + unit().name();
    }

    /** Run @p program at kFull and @p engine; both must agree and the
     *  full run must have replayed. @return the full run. */
    Outcome
    check(const Program &program, EngineMode engine, Cycle max_cycles,
          const std::vector<Cycle> &ext_irqs, const std::string &what)
    {
        const Outcome full = simulate(core(), unit(), program,
                                      EngineMode::kFull, max_cycles,
                                      ext_irqs);
        const Outcome other =
            simulate(core(), unit(), program, engine, max_cycles, ext_irqs);
        expectSameRun(full, other, label() + " " + what);
        EXPECT_GT(full.stats.replayedInsns, 0u) << label() << " " << what;
        return full;
    }
};

TEST_P(SteadyLoopReplay, BusyLoopWorkloadMatchesNoBlock)
{
    const auto workload = makeWorkload("round_robin", 3);
    const Program image = buildWorkloadImage(unit(), *workload, 1000);
    const Outcome full = check(image, EngineMode::kNoBlock,
                               workload->info().maxCycles, {},
                               "round_robin");
    EXPECT_EQ(full.status, RunStatus::kExited);
}

TEST_P(SteadyLoopReplay, IrqDroppedLivelockMatchesNoBlock)
{
    const auto workload = makeWorkload("ext_interrupt", 5);
    const Program image = buildWorkloadImage(unit(), *workload, 1000);
    std::vector<Cycle> irqs = workload->info().extIrqSchedule;
    irqs.erase(irqs.begin() + 2);
    const Outcome full = check(image, EngineMode::kNoBlock, 2'000'000,
                               irqs, "ext_interrupt irq-dropped");
    EXPECT_EQ(full.status, RunStatus::kCycleLimit);
    // The handler waits forever: the background busy loop is most of
    // the run, and most of it replays.
    EXPECT_GT(2 * full.stats.replayedInsns, full.stats.instret);
}

/** The loop counter in s0 runs down from @p iterations; while it is at
 *  least @p flip_below the body also updates a1, below it the inner
 *  forward branch skips that. Writes before the inner branch (a0, t1)
 *  belong to the interval the flip discards. */
Program
flippingLoop(SWord iterations, SWord flip_below)
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.li(S0, iterations);
    a.li(S1, flip_below);
    a.label("loop");
    a.addi(A0, A0, 3);
    a.slt(T1, S0, S1);
    a.bnez(T1, "skip");
    a.xori(A1, A1, 0x55);
    a.add(A1, A1, A0);
    a.label("skip");
    a.addi(S0, S0, -1);
    a.bnez(S0, "loop");
    a.li(T0, static_cast<SWord>(memmap::kHostExit));
    a.sw(Zero, 0, T0);
    a.label("spin");
    a.j("spin");
    return a.finish();
}

TEST_P(SteadyLoopReplay, BranchLeavingTheIntervalRollsBack)
{
    for (SWord flip : {0, 300, 777}) {
        const Outcome full =
            check(flippingLoop(1000, flip), EngineMode::kReference,
                  200'000, {}, "flip below " + std::to_string(flip));
        EXPECT_EQ(full.status, RunStatus::kExited);
    }
}

/** A long busy loop with the machine timer armed at @p fire_at; the
 *  handler stores mepc to trap_pc, masks the timer and returns into
 *  the loop. */
Program
timerInLoop(Word fire_at)
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.dataWord("trap_pc", 0);
    // A stack for units that save the interrupted context on it.
    a.li(SP, static_cast<SWord>(memmap::kDmemBase + 0x8000));
    a.la(T0, "handler");
    a.csrw(csr::kMtvec, T0);
    a.li(T0, static_cast<SWord>(memmap::kClintMtimecmpHi));
    a.sw(Zero, 0, T0);
    a.li(T0, static_cast<SWord>(memmap::kClintMtimecmp));
    a.li(T1, static_cast<SWord>(fire_at));
    a.sw(T1, 0, T0);
    a.li(T0, static_cast<SWord>(irq::kMti));
    a.csrw(csr::kMie, T0);
    a.csrrsi(Zero, csr::kMstatus, mstatus::kMie);
    a.li(S0, 3000);
    a.li(A1, 0x9E37);
    a.label("loop");
    a.add(A1, A1, S0);
    a.xori(A1, A1, 0x2F);
    a.addi(S0, S0, -1);
    a.bnez(S0, "loop");
    a.li(T0, static_cast<SWord>(memmap::kHostExit));
    a.sw(Zero, 0, T0);
    a.label("spin");
    a.j("spin");
    a.label("handler");
    a.csrr(A2, csr::kMepc);
    a.la(A3, "trap_pc");
    a.sw(A2, 0, A3);
    a.csrw(csr::kMie, Zero);
    a.mret();
    return a.finish();
}

TEST_P(SteadyLoopReplay, TimerInsideASteadyLoopMatchesReference)
{
    // Twelve consecutive cycles cover every phase of the loop's
    // interval on each core.
    for (Word fire = 5000; fire < 5012; ++fire) {
        const Program p = timerInLoop(fire);
        const Outcome full = check(p, EngineMode::kReference, 200'000, {},
                                   "timer at " + std::to_string(fire));
        EXPECT_EQ(full.stats.traps, 1u) << fire;
        // Taken inside the four-word loop body.
        EXPECT_GE(full.trapPc, p.symbol("loop")) << fire;
        EXPECT_LT(full.trapPc, p.symbol("loop") + 16) << fire;
    }
}

INSTANTIATE_TEST_SUITE_P(
    CoresAndConfigs, SteadyLoopReplay,
    ::testing::Combine(::testing::Values(CoreKind::kCv32e40p,
                                         CoreKind::kCva6, CoreKind::kNax),
                       ::testing::Values("vanilla", "CV32RT", "SLT")),
    [](const auto &info) {
        return std::string(coreKindName(std::get<0>(info.param))) + "_" +
               std::get<1>(info.param);
    });

/** CV32E40P vanilla ext_interrupt at campaign seed 2 plans the same
 *  dropped IRQ twice and a coalesced IRQ equal to a dropped one. */
CampaignSpec
duplicateIrqCampaign()
{
    SweepPoint p;
    p.core = CoreKind::kCv32e40p;
    p.unit = RtosUnitConfig::vanilla();
    p.workload = "ext_interrupt";
    p.iterations = 5;
    p.reseed();
    CampaignSpec cs;
    cs.points = {p};
    cs.faultsPerPoint = 8;
    cs.seed = 2;
    return cs;
}

TEST(CampaignCollapse, SameEffectFaultsMatchTheirOwnRuns)
{
    setQuiet(true);
    const CampaignSpec cs = duplicateIrqCampaign();
    const CampaignResult res = runCampaign(cs, SweepRunner(1));
    ASSERT_EQ(res.faults.size(), 8u);

    unsigned repeats = 0;
    for (std::size_t i = 0; i < res.faults.size(); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            const FaultSpec &a = res.faults[i].fault;
            const FaultSpec &b = res.faults[j].fault;
            repeats += a.kind == FaultKind::kIrqDropped &&
                       a.kind == b.kind && a.irqIndex == b.irqIndex;
        }
    }
    EXPECT_GT(repeats, 0u) << "the plan no longer repeats an IRQ fault";

    for (const FaultRunRecord &rec : res.faults) {
        const FaultRunRecord own =
            runSingleFault(cs.points.front(), rec.fault);
        const std::string what = rec.fault.describe();
        EXPECT_EQ(rec.fired, own.fired) << what;
        EXPECT_EQ(rec.outcome, own.outcome) << what;
        EXPECT_EQ(rec.oracleHits, own.oracleHits) << what;
        EXPECT_EQ(rec.oracleName, own.oracleName) << what;
        EXPECT_EQ(rec.oracleCycle, own.oracleCycle) << what;
        EXPECT_EQ(rec.oracleEpisode, own.oracleEpisode) << what;
        EXPECT_EQ(rec.oracleDetail, own.oracleDetail) << what;
        EXPECT_EQ(rec.status, own.status) << what;
        EXPECT_EQ(rec.exitCode, own.exitCode) << what;
        EXPECT_EQ(rec.cycles, own.cycles) << what;
    }
}

TEST(CampaignCollapse, JsonlIdenticalAtOneAndEightThreads)
{
    setQuiet(true);
    const CampaignSpec cs = duplicateIrqCampaign();
    const auto jsonl = [&](unsigned threads) {
        std::ostringstream os;
        writeCampaignJsonl(os, cs, runCampaign(cs, SweepRunner(threads)));
        return os.str();
    };
    const std::string serial = jsonl(1);
    EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'), 8);
    EXPECT_EQ(serial, jsonl(8));
}

} // namespace
} // namespace rtu
