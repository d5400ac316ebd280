/** Fault-injection engine tests: outcome classification (all five
 *  classes), fault-plan determinism, campaign thread-count
 *  independence, seeded defects each runtime oracle is guaranteed to
 *  catch (context flip, TCB corruption, stack-canary smash), the
 *  stop of a decided run at its first oracle hit, and the cycle
 *  budget that ends a hang one watchdog window past its golden. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "harness/experiment.hh"
#include "inject/campaign.hh"
#include "inject/fault.hh"
#include "inject/oracle.hh"
#include "kernel/layout.hh"
#include "sim/hostio.hh"
#include "workloads/workloads.hh"

namespace rtu {
namespace {

GoldenRecord
syntheticGolden()
{
    GoldenRecord g;
    g.run.exitCode = 0;
    g.events = {{tag::kWorkItem, 1}, {tag::kWorkItem, 2}};
    return g;
}

TEST(ClassifyOutcome, OracleBeatsEveryOtherSignal)
{
    const GoldenRecord g = syntheticGolden();
    // Even a crashed or hung run classifies as detected-oracle when
    // an oracle fired first: the oracle is the earliest detector.
    EXPECT_EQ(classifyOutcome(1, RunStatus::kNoRetire, 0, g.events, g),
              FaultOutcome::kDetectedOracle);
    EXPECT_EQ(classifyOutcome(3, RunStatus::kCycleLimit, 7, {}, g),
              FaultOutcome::kDetectedOracle);
    EXPECT_EQ(classifyOutcome(1, RunStatus::kExited, 0, g.events, g),
              FaultOutcome::kDetectedOracle);
}

TEST(ClassifyOutcome, WatchdogCatchesNoRetireAndGuestFaults)
{
    const GoldenRecord g = syntheticGolden();
    EXPECT_EQ(classifyOutcome(0, RunStatus::kNoRetire, 0, g.events, g),
              FaultOutcome::kDetectedWatchdog);
    // A guest crash (illegal instruction, bus error) is platform-level
    // detection, grouped with the watchdog — not silent corruption.
    EXPECT_EQ(classifyOutcome(0, RunStatus::kGuestFault, 0, {}, g),
              FaultOutcome::kDetectedWatchdog);
}

TEST(ClassifyOutcome, CycleLimitIsHang)
{
    const GoldenRecord g = syntheticGolden();
    EXPECT_EQ(classifyOutcome(0, RunStatus::kCycleLimit, 0, g.events, g),
              FaultOutcome::kHang);
}

TEST(ClassifyOutcome, CleanExitMatchingGoldenIsMasked)
{
    const GoldenRecord g = syntheticGolden();
    EXPECT_EQ(classifyOutcome(0, RunStatus::kExited, 0, g.events, g),
              FaultOutcome::kMasked);
}

TEST(ClassifyOutcome, WrongExitCodeOrEventsIsSilentCorruption)
{
    const GoldenRecord g = syntheticGolden();
    EXPECT_EQ(classifyOutcome(0, RunStatus::kExited, 1, g.events, g),
              FaultOutcome::kSilentCorruption);
    SemanticEvents wrong = g.events;
    wrong.back().second ^= 1;
    EXPECT_EQ(classifyOutcome(0, RunStatus::kExited, 0, wrong, g),
              FaultOutcome::kSilentCorruption);
    // A dropped event is as corrupt as a changed one.
    wrong = g.events;
    wrong.pop_back();
    EXPECT_EQ(classifyOutcome(0, RunStatus::kExited, 0, wrong, g),
              FaultOutcome::kSilentCorruption);
}

TEST(CampaignAggregates, CoverageCountsDetectedOverNonMasked)
{
    CampaignResult res;
    const auto push = [&](FaultOutcome o) {
        FaultRunRecord r;
        r.outcome = o;
        res.faults.push_back(r);
    };
    push(FaultOutcome::kMasked);
    push(FaultOutcome::kMasked);
    push(FaultOutcome::kDetectedOracle);
    push(FaultOutcome::kDetectedWatchdog);
    push(FaultOutcome::kHang);
    push(FaultOutcome::kSilentCorruption);
    EXPECT_EQ(res.countOf(FaultOutcome::kMasked), 2u);
    EXPECT_EQ(res.countOf(FaultOutcome::kDetectedOracle), 1u);
    // 2 detected out of 4 non-masked.
    EXPECT_DOUBLE_EQ(res.detectionCoverage(), 0.5);
}

TEST(CampaignAggregates, AllMaskedCampaignHasFullCoverage)
{
    CampaignResult res;
    FaultRunRecord r;
    r.outcome = FaultOutcome::kMasked;
    res.faults = {r, r, r};
    // Nothing escaped because nothing took effect.
    EXPECT_DOUBLE_EQ(res.detectionCoverage(), 1.0);
}

SweepPoint
smallPoint(const char *config, const char *workload = "yield_pingpong")
{
    SweepPoint pt;
    pt.core = CoreKind::kCv32e40p;
    pt.unit = RtosUnitConfig::fromName(config);
    pt.workload = workload;
    pt.iterations = 4;
    pt.timerPeriodCycles = 1000;
    pt.reseed();
    return pt;
}

TEST(FaultPlan, DeterministicInSeedAndPointKey)
{
    const SweepPoint pt = smallPoint("SLT");
    const WorkloadInfo winfo =
        makeWorkload(pt.workload, pt.iterations)->info();
    const auto a = makeFaultPlan(7, pt, winfo, 8);
    const auto b = makeFaultPlan(7, pt, winfo, 8);
    ASSERT_EQ(a.size(), 8u);
    ASSERT_EQ(b.size(), 8u);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].describe(), b[i].describe()) << i;

    // A different campaign seed yields a different plan.
    const auto c = makeFaultPlan(8, pt, winfo, 8);
    bool anyDiff = false;
    for (size_t i = 0; i < a.size(); ++i)
        anyDiff = anyDiff || a[i].describe() != c[i].describe();
    EXPECT_TRUE(anyDiff);
}

TEST(FaultPlan, OnlyApplicableKindsArePlanned)
{
    // Vanilla has no RTOSUnit: no FSM/port perturbations may appear.
    const SweepPoint pt = smallPoint("vanilla");
    const WorkloadInfo winfo =
        makeWorkload(pt.workload, pt.iterations)->info();
    for (const FaultSpec &f : makeFaultPlan(3, pt, winfo, 16)) {
        EXPECT_NE(f.kind, FaultKind::kMemStall) << f.describe();
        EXPECT_NE(f.kind, FaultKind::kFsmStall) << f.describe();
        EXPECT_NE(f.kind, FaultKind::kFsmAbort) << f.describe();
    }
}

/** Seeded defects: each oracle must catch its guaranteed fixture and
 *  the paired clean run must stay silent (soundness). */
class SeededDefect : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }

    FaultRunRecord
    runFixture(const char *config, const FaultSpec &fault)
    {
        GoldenRecord golden;
        const FaultRunRecord rec =
            runSingleFault(smallPoint(config), fault, &golden);
        EXPECT_EQ(golden.oracleHits, 0u)
            << config << " clean run fired: " << golden.oracleDetail;
        EXPECT_TRUE(rec.fired) << fault.describe();
        return rec;
    }
};

TEST_F(SeededDefect, ContextFlipCaughtByContextOracle)
{
    FaultSpec f;
    f.kind = FaultKind::kCtxFlip;
    f.episode = 2;
    f.word = 4;  // x5: compared at every resume
    f.bitMask = 0xFF0;
    for (const char *config : {"vanilla", "S", "SDLOT", "CV32RT"}) {
        const FaultRunRecord rec = runFixture(config, f);
        EXPECT_EQ(rec.outcome, FaultOutcome::kDetectedOracle)
            << config << ": " << faultOutcomeName(rec.outcome);
        EXPECT_EQ(rec.oracleName, "context") << rec.oracleDetail;
    }
}

TEST_F(SeededDefect, TcbIdFlipCaughtByListOracle)
{
    FaultSpec f;
    f.kind = FaultKind::kTcbField;
    f.episode = 2;
    f.tcbField = kernel::kTcbId;  // breaks table<->TCB mapping
    f.bitMask = 0x7;
    f.taskSel = 1;
    for (const char *config : {"vanilla", "T"}) {
        const FaultRunRecord rec = runFixture(config, f);
        EXPECT_EQ(rec.outcome, FaultOutcome::kDetectedOracle)
            << config << ": " << faultOutcomeName(rec.outcome);
        EXPECT_EQ(rec.oracleName, "list") << rec.oracleDetail;
    }
}

TEST_F(SeededDefect, FsmAbortCaughtByContextOracle)
{
    FaultSpec f;
    f.kind = FaultKind::kFsmAbort;
    f.episode = 3;
    f.cycles = 2;  // kill the store drain near its start
    const FaultRunRecord rec = runFixture("S", f);
    EXPECT_EQ(rec.outcome, FaultOutcome::kDetectedOracle)
        << faultOutcomeName(rec.outcome);
    EXPECT_EQ(rec.oracleName, "context") << rec.oracleDetail;
}

TEST_F(SeededDefect, SmashedStackCanaryCaughtByFinalCheck)
{
    // No FaultSpec smashes canaries directly; drive the oracle by
    // hand: plant, overwrite task 0's stack-base magic word, run, and
    // the end-of-run sweep must report it.
    const SweepPoint pt = smallPoint("SLT");
    const auto workload = makeWorkload(pt.workload, pt.iterations);
    RunOptions opts;
    opts.timerPeriodCycles = pt.timerPeriodCycles;
    opts.seed = pt.seed;
    std::unique_ptr<KernelOracle> oracle;
    opts.preRun = [&](Simulation &sim) {
        oracle = std::make_unique<KernelOracle>(sim, pt.unit);
        oracle->plantCanaries();
        const Addr base = sim.findSymbolAddr("k_stack_0");
        ASSERT_NE(base, 0u);
        sim.mem().write32(base, KernelOracle::kCanary ^ 0xFFFF);
    };
    opts.postRun = [&](Simulation &) { oracle->finalCheck(); };
    const RunResult run =
        runWorkload(pt.core, pt.unit, *workload, opts);
    EXPECT_TRUE(run.ok);
    ASSERT_GT(oracle->hitCount(), 0u);
    EXPECT_EQ(oracle->hits().front().oracle, "canary")
        << oracle->hits().front().detail;
}

/** Run @p workload on CV32E40P/vanilla with a KernelOracle attached
 *  as the run observer; @p pre / @p post see the simulation before
 *  run() and after it (post runs before the oracle's final check). */
std::unique_ptr<KernelOracle>
runWithOracle(const char *workload, unsigned iterations,
              const std::function<void(Simulation &)> &pre,
              const std::function<void(Simulation &)> &post)
{
    setQuiet(true);
    SweepPoint pt = smallPoint("vanilla", workload);
    pt.iterations = iterations;
    pt.reseed();
    const auto wl = makeWorkload(pt.workload, pt.iterations);
    RunOptions opts;
    opts.timerPeriodCycles = pt.timerPeriodCycles;
    opts.seed = pt.seed;
    std::unique_ptr<KernelOracle> oracle;
    opts.preRun = [&](Simulation &sim) {
        oracle = std::make_unique<KernelOracle>(sim, pt.unit);
        oracle->plantCanaries();
        sim.setRunObserver(oracle.get());
        if (pre)
            pre(sim);
    };
    opts.postRun = [&](Simulation &sim) {
        if (post)
            post(sim);
        oracle->finalCheck();
    };
    const RunResult run = runWorkload(pt.core, pt.unit, *wl, opts);
    EXPECT_TRUE(run.ok);
    return oracle;
}

TEST(OracleDetail, BrokenPrevLinkNamesTheReadyListAndTask)
{
    // The list walk names ready lists from a constant table and
    // formats only stored hits; the campaign JSONL carries this text
    // (oracle_detail), so it must not change by a byte.
    unsigned task = 0;
    const auto oracle = runWithOracle(
        "sem_pingpong", 4, nullptr, [&](Simulation &sim) {
            const Addr sentinel = sim.symbolAddr("k_ready_lists") +
                                  3 * kernel::kSentinelSize;
            const Word node =
                sim.mem().read32(sentinel + kernel::kTcbNext);
            ASSERT_NE(node, sentinel) << "ready list 3 empty at exit";
            task = sim.mem().read32(node + kernel::kTcbId);
            sim.mem().write32(node + kernel::kTcbPrev, node);
        });
    // The first hit is the walk's; the scheduler cross-check then
    // misses the task the walk abandoned.
    ASSERT_GE(oracle->hitCount(), 1u);
    EXPECT_EQ(oracle->hits().front().oracle, "list");
    EXPECT_EQ(oracle->hits().front().detail,
              csprintf("ready list 3: task %u prev link broken", task));
}

TEST(OracleDetail, HitCountKeepsCountingPastTheStoredCap)
{
    // A smashed canary fires at every mret and once more in the final
    // sweep: far more than the 32 hits whose detail is kept.
    const auto oracle = runWithOracle(
        "yield_pingpong", 20,
        [](Simulation &sim) {
            sim.mem().write32(sim.findSymbolAddr("k_stack_0"),
                              KernelOracle::kCanary ^ 1);
        },
        nullptr);
    EXPECT_GT(oracle->episodes(), 32u);
    EXPECT_EQ(oracle->hitCount(), oracle->episodes() + 1);
    ASSERT_EQ(oracle->hits().size(), 32u);
    for (unsigned i = 0; i < 32; ++i) {
        EXPECT_EQ(oracle->hits()[i].oracle, "canary") << i;
        EXPECT_EQ(oracle->hits()[i].episode, i + 1) << i;
        EXPECT_EQ(oracle->hits()[i].detail,
                  csprintf("task 0 stack canary smashed (0x%08x)",
                           KernelOracle::kCanary ^ 1))
            << i;
    }
}

TEST(Campaign, ByteIdenticalJsonlAtAnyThreadCount)
{
    setQuiet(true);
    SweepSpec spec;
    spec.cores = {CoreKind::kCv32e40p};
    spec.units = {RtosUnitConfig::vanilla(),
                  RtosUnitConfig::fromName("S")};
    spec.workloads = {"yield_pingpong"};
    spec.iterations = 4;
    spec.timerPeriods = {1000};
    CampaignSpec cs;
    cs.points = spec.points();
    cs.faultsPerPoint = 3;
    cs.seed = 11;

    const auto jsonl = [&](unsigned threads) {
        const CampaignResult res = runCampaign(cs, SweepRunner(threads));
        EXPECT_EQ(res.cleanOracleHits(), 0u);
        std::ostringstream os;
        writeCampaignJsonl(os, cs, res);
        return os.str();
    };
    const std::string serial = jsonl(1);
    const std::string parallel = jsonl(4);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    // One record per planned fault, plan order.
    EXPECT_EQ(static_cast<unsigned>(
                  std::count(serial.begin(), serial.end(), '\n')),
              cs.faultsPerPoint *
                  static_cast<unsigned>(cs.points.size()));
}

/** Stops the run at its first mret and remembers that cycle. */
class StopAtFirstMret : public RunObserver
{
  public:
    explicit StopAtFirstMret(Simulation &sim) : sim_(sim) {}

    void trapTaken(Word, Cycle, Word) override {}

    void
    mretCompleted(Cycle cycle, Word) override
    {
        if (stopCycle_ == 0)
            stopCycle_ = cycle;
        sim_.requestStop();
    }

    Cycle stopCycle() const { return stopCycle_; }

  private:
    Simulation &sim_;
    Cycle stopCycle_ = 0;
};

TEST(CampaignStop, RequestStopEndsTheRunOneCyclePastTheCallback)
{
    setQuiet(true);
    const SweepPoint pt = smallPoint("vanilla");
    const auto workload = makeWorkload(pt.workload, pt.iterations);
    for (EngineMode engine :
         {EngineMode::kFull, EngineMode::kNoBlock, EngineMode::kNoPredecode,
          EngineMode::kReference}) {
        RunOptions opts;
        opts.engine = engine;
        std::unique_ptr<StopAtFirstMret> stopper;
        opts.preRun = [&](Simulation &sim) {
            stopper = std::make_unique<StopAtFirstMret>(sim);
            sim.setRunObserver(stopper.get());
        };
        const RunResult run =
            runWorkload(pt.core, pt.unit, *workload, opts);
        const char *name = engineModeName(engine);
        EXPECT_EQ(run.status, RunStatus::kStopped) << name;
        EXPECT_STREQ(runStatusName(run.status), "stopped");
        EXPECT_FALSE(run.ok) << name;
        EXPECT_TRUE(run.diagnostic.empty()) << name;
        ASSERT_GT(stopper->stopCycle(), 0u) << name;
        EXPECT_EQ(run.cycles, stopper->stopCycle() + 1) << name;
    }
}

/** The perfbench inject grid's CVA6 vanilla round_robin point. */
SweepPoint
cva6RoundRobinPoint()
{
    SweepSpec spec;
    spec.cores = {CoreKind::kCva6};
    spec.units = {RtosUnitConfig::vanilla()};
    spec.workloads = {"round_robin"};
    spec.iterations = 5;
    return spec.points().front();
}

TEST(CampaignStop, LivelockedRunStopsAtItsFirstHit)
{
    // Left to its end this tcb-field run livelocks to the 20M-cycle
    // limit, firing 242,790 times; the first hit decides its outcome.
    setQuiet(true);
    CampaignSpec cs;
    cs.points = {cva6RoundRobinPoint()};
    cs.faultsPerPoint = 8;
    cs.seed = 1;
    const CampaignResult res = runCampaign(cs, SweepRunner(1));
    const auto it = std::find_if(
        res.faults.begin(), res.faults.end(), [](const FaultRunRecord &f) {
            return f.fault.kind == FaultKind::kTcbField &&
                   f.fault.episode == 3;
        });
    ASSERT_NE(it, res.faults.end());
    EXPECT_EQ(it->outcome, FaultOutcome::kDetectedOracle);
    EXPECT_EQ(it->oracleName, "list");
    EXPECT_EQ(it->oracleCycle, 3156u);
    EXPECT_EQ(it->oracleEpisode, 4u);
    EXPECT_EQ(it->oracleDetail, "ready list 2: task 4 prev link broken");
    EXPECT_EQ(it->status, RunStatus::kStopped);
    EXPECT_TRUE(it->statusDetail.empty()) << it->statusDetail;
    EXPECT_LE(it->cycles - it->oracleCycle, 1u);
    EXPECT_GT(it->oracleHits, 0u);
}

TEST(CampaignStop, JsonlIdenticalInEveryEngineAndAtAnyThreadCount)
{
    // No run of this grid reaches the cycle limit, so even the
    // reference engine is cheap; most of its runs are decided by an
    // oracle and stop there.
    setQuiet(true);
    SweepSpec spec;
    spec.cores = {CoreKind::kCv32e40p, CoreKind::kCva6, CoreKind::kNax};
    spec.units = {RtosUnitConfig::vanilla(),
                  RtosUnitConfig::fromName("CV32RT")};
    spec.workloads = {"yield_pingpong", "round_robin"};
    spec.iterations = 5;
    CampaignSpec cs;
    cs.points = spec.points();
    cs.faultsPerPoint = 8;
    cs.seed = 1;

    const auto jsonl = [&](EngineMode engine, unsigned threads) {
        cs.engine = engine;
        CampaignResult res = runCampaign(cs, SweepRunner(threads));
        std::ostringstream os;
        writeCampaignJsonl(os, cs, res);
        return std::make_pair(std::move(res), os.str());
    };
    const auto [full, bytes] = jsonl(EngineMode::kFull, 4);
    unsigned stopped = 0;
    for (const FaultRunRecord &f : full.faults) {
        if (f.outcome != FaultOutcome::kDetectedOracle) {
            EXPECT_NE(f.status, RunStatus::kStopped);
            continue;
        }
        // Stopped at the hit, or found only by the end-of-run sweep.
        EXPECT_NE(f.status, RunStatus::kCycleLimit);
        EXPECT_LE(f.cycles - f.oracleCycle, 1u);
        stopped += f.status == RunStatus::kStopped;
    }
    EXPECT_GT(stopped, 0u);

    EXPECT_EQ(jsonl(EngineMode::kFull, 1).second, bytes);
    for (EngineMode engine : {EngineMode::kNoBlock, EngineMode::kNoPredecode,
                              EngineMode::kReference}) {
        EXPECT_EQ(jsonl(engine, 4).second, bytes) << engineModeName(engine);
    }
}

/** The perfbench inject grid: vanilla and CV32RT x 3 cores x 3
 *  workloads x 5 iterations, 8 faults per point. */
CampaignSpec
perfbenchGridCampaign(std::uint64_t seed)
{
    SweepSpec spec;
    spec.cores = {CoreKind::kCv32e40p, CoreKind::kCva6, CoreKind::kNax};
    spec.units = {RtosUnitConfig::vanilla(),
                  RtosUnitConfig::fromName("CV32RT")};
    spec.workloads = {"yield_pingpong", "round_robin", "ext_interrupt"};
    spec.iterations = 5;
    CampaignSpec cs;
    cs.points = spec.points();
    cs.faultsPerPoint = 8;
    cs.seed = seed;
    return cs;
}

/** The CV32E40P vanilla ext_interrupt point of that grid. */
SweepPoint
cv32e40pExtInterruptPoint()
{
    SweepSpec spec;
    spec.cores = {CoreKind::kCv32e40p};
    spec.units = {RtosUnitConfig::vanilla()};
    spec.workloads = {"ext_interrupt"};
    spec.iterations = 5;
    return spec.points().front();
}

TEST(CampaignBudget, LivelockIsAHangOneWatchdogWindowPastItsGolden)
{
    // Dropping the third external interrupt livelocks the kernel: it
    // keeps retiring (the tick ISR runs every period) but never exits.
    setQuiet(true);
    const SweepPoint pt = cv32e40pExtInterruptPoint();
    FaultSpec drop;
    drop.kind = FaultKind::kIrqDropped;
    drop.irqIndex = 2;
    GoldenRecord golden;
    const FaultRunRecord own = runSingleFault(pt, drop, &golden);
    EXPECT_EQ(own.outcome, FaultOutcome::kHang);
    EXPECT_EQ(own.status, RunStatus::kCycleLimit);
    EXPECT_TRUE(own.statusDetail.empty()) << own.statusDetail;
    EXPECT_EQ(own.oracleHits, 0u);
    ASSERT_TRUE(golden.run.ok);
    EXPECT_EQ(own.cycles, golden.run.cycles + RunOptions{}.watchdogCycles);

    // The campaign gives the same record for the same planned fault.
    CampaignSpec cs;
    cs.points = {pt};
    cs.faultsPerPoint = 8;
    cs.seed = 1;
    const CampaignResult res = runCampaign(cs, SweepRunner(1));
    EXPECT_EQ(res.goldens.front().run.cycles, golden.run.cycles);
    const auto it = std::find_if(
        res.faults.begin(), res.faults.end(), [](const FaultRunRecord &f) {
            return f.fault.kind == FaultKind::kIrqDropped &&
                   f.fault.irqIndex == 2;
        });
    ASSERT_NE(it, res.faults.end());
    EXPECT_EQ(it->fired, own.fired);
    EXPECT_EQ(it->outcome, own.outcome);
    EXPECT_EQ(it->oracleHits, own.oracleHits);
    EXPECT_EQ(it->status, own.status);
    EXPECT_EQ(it->statusDetail, own.statusDetail);
    EXPECT_EQ(it->exitCode, own.exitCode);
    EXPECT_EQ(it->cycles, own.cycles);
}

TEST(CampaignBudget, PerfbenchGridOutcomesUnchangedAndHangsEndAtBudget)
{
    // The outcome counts every earlier campaign format gave this grid:
    // the budget moves only the end cycle of its hangs.
    setQuiet(true);
    const struct
    {
        std::uint64_t seed;
        unsigned masked, oracle, watchdog, hang;
    } kExpected[] = {{1, 56, 66, 6, 16}, {2, 59, 58, 3, 24}};
    for (const auto &e : kExpected) {
        const CampaignSpec cs = perfbenchGridCampaign(e.seed);
        const CampaignResult res = runCampaign(cs, SweepRunner(2));
        ASSERT_EQ(res.faults.size(), 144u);
        EXPECT_EQ(res.countOf(FaultOutcome::kMasked), e.masked) << e.seed;
        EXPECT_EQ(res.countOf(FaultOutcome::kDetectedOracle), e.oracle)
            << e.seed;
        EXPECT_EQ(res.countOf(FaultOutcome::kDetectedWatchdog), e.watchdog)
            << e.seed;
        EXPECT_EQ(res.countOf(FaultOutcome::kSilentCorruption), 0u)
            << e.seed;
        EXPECT_EQ(res.countOf(FaultOutcome::kHang), e.hang) << e.seed;
        for (const FaultRunRecord &f : res.faults) {
            if (f.outcome != FaultOutcome::kHang)
                continue;
            const GoldenRecord &g = res.goldens[f.pointIndex];
            EXPECT_EQ(f.status, RunStatus::kCycleLimit);
            EXPECT_EQ(f.cycles, g.run.cycles + RunOptions{}.watchdogCycles)
                << f.fault.describe();
        }
    }
}

TEST(CampaignBudget, JsonlIdenticalInEveryEngine)
{
    // Includes the irq-dropped livelock above: the budget ends a hang
    // at the same cycle whether or not the run fast-forwards or
    // executes blocks.
    setQuiet(true);
    CampaignSpec cs;
    cs.points = {cv32e40pExtInterruptPoint()};
    cs.faultsPerPoint = 8;
    cs.seed = 1;
    const auto jsonl = [&](EngineMode engine) {
        cs.engine = engine;
        const CampaignResult res = runCampaign(cs, SweepRunner(2));
        std::ostringstream os;
        writeCampaignJsonl(os, cs, res);
        return std::make_pair(res.countOf(FaultOutcome::kHang), os.str());
    };
    const auto [hangs, bytes] = jsonl(EngineMode::kFull);
    EXPECT_GT(hangs, 0u);
    for (EngineMode engine : {EngineMode::kNoBlock, EngineMode::kNoPredecode,
                              EngineMode::kReference}) {
        EXPECT_EQ(jsonl(engine).second, bytes) << engineModeName(engine);
    }
}

} // namespace
} // namespace rtu
