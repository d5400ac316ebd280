/** SimKernel tests: next-event min-reduction, fast-forward and
 *  block-run arithmetic on fake components, skip bounds against the
 *  real CLINT and external-irq driver, block execution of a spinning
 *  guest (bit-exact against the per-cycle reference, across an irq
 *  arrival), and the no-retire watchdog (mode-identical abort
 *  cycles). */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "asm/assembler.hh"
#include "harness/simulation.hh"
#include "sim/clint.hh"
#include "sim/kernel.hh"
#include "sim/memmap.hh"

namespace rtu {
namespace {

/** Scripted component: quiescent until a fixed event cycle, active
 *  (and thus un-skippable) from then on. */
class FakeClocked : public Clocked
{
  public:
    explicit FakeClocked(Cycle event) : event_(event) {}

    void
    tick(Cycle now) override
    {
        ++ticks;
        lastTickAt = now;
    }

    Cycle
    nextEventAt(Cycle now) const override
    {
        return event_ <= now ? now : event_;
    }

    void
    skipTo(Cycle now, Cycle target) override
    {
        ++skips;
        lastSkipFrom = now;
        lastSkipTo = target;
    }

    Cycle event_;
    unsigned ticks = 0;
    unsigned skips = 0;
    Cycle lastTickAt = 0;
    Cycle lastSkipFrom = 0;
    Cycle lastSkipTo = 0;
};

/** Always-active component that executes itself forward in chunks of
 *  at most `chunk` cycles when the kernel offers it a block run. */
class FakeBlockRunner : public FakeClocked
{
  public:
    explicit FakeBlockRunner(Cycle chunk) : FakeClocked(0), chunk_(chunk)
    {}

    Cycle
    blockRun(Cycle now, Cycle bound) override
    {
        ++runs;
        lastBound = bound;
        return std::min(chunk_, bound - now);
    }

    Cycle chunk_;
    unsigned runs = 0;
    Cycle lastBound = 0;
};

TEST(SimKernel, NextEventCycleIsMinReduction)
{
    SimKernel k;
    FakeClocked a(25), b(10), c(kNoEvent);
    k.add(&a);
    k.add(&b);
    k.add(&c);
    EXPECT_EQ(k.nextEventCycle(1000), 10u);
    EXPECT_EQ(k.nextEventCycle(7), 7u);  // clamped to the limit
}

TEST(SimKernel, RegistrationOrderDoesNotChangeNextEvent)
{
    FakeClocked a(25), b(10);
    SimKernel fwd, rev;
    fwd.add(&a);
    fwd.add(&b);
    rev.add(&b);
    rev.add(&a);
    EXPECT_EQ(fwd.nextEventCycle(1000), rev.nextEventCycle(1000));
}

TEST(SimKernel, FastForwardSkipsToEarliestEvent)
{
    SimKernel k;
    FakeClocked a(10), b(25);
    k.add(&a);
    k.add(&b);

    ASSERT_TRUE(k.fastForward(1000));
    EXPECT_EQ(k.now(), 10u);
    EXPECT_EQ(a.skips, 1u);
    EXPECT_EQ(a.lastSkipFrom, 0u);
    EXPECT_EQ(a.lastSkipTo, 10u);
    EXPECT_EQ(b.skips, 1u);
    EXPECT_EQ(a.ticks, 0u);

    // `a` is active at cycle 10 and offers no block run: no further
    // skip.
    EXPECT_FALSE(k.fastForward(1000));
    EXPECT_EQ(k.now(), 10u);

    const SimKernelStats &s = k.stats();
    EXPECT_EQ(s.cyclesSkipped, 10u);
    EXPECT_EQ(s.fastForwards, 1u);
    EXPECT_EQ(s.cyclesTicked, 0u);
}

TEST(SimKernel, ActiveComponentVetoesSkip)
{
    SimKernel k;
    FakeClocked busy(0), idle(50);
    k.add(&busy);
    k.add(&idle);
    EXPECT_FALSE(k.fastForward(1000));
    EXPECT_EQ(k.now(), 0u);
    EXPECT_EQ(busy.skips, 0u);
    EXPECT_EQ(idle.skips, 0u);
}

TEST(SimKernel, AllQuiescentSkipsToTheLimit)
{
    SimKernel k;
    FakeClocked a(kNoEvent), b(kNoEvent);
    k.add(&a);
    k.add(&b);
    ASSERT_TRUE(k.fastForward(1000));
    EXPECT_EQ(k.now(), 1000u);
    EXPECT_EQ(k.stats().cyclesSkipped, 1000u);
    // At the limit there is nothing left to fast-forward.
    EXPECT_FALSE(k.fastForward(1000));
}

TEST(SimKernel, BlockRunAdvancesByTheCyclesConsumed)
{
    SimKernel k;
    FakeBlockRunner core(30);
    FakeClocked foreign(100);
    k.add(&core);
    k.add(&foreign);

    // The lone active component runs up to its chunk; the foreign one
    // is skipped over exactly the consumed cycles.
    ASSERT_TRUE(k.fastForward(1000));
    EXPECT_EQ(k.now(), 30u);
    EXPECT_EQ(core.runs, 1u);
    EXPECT_EQ(core.lastBound, 100u);  // the foreign event is the horizon
    EXPECT_EQ(core.skips, 0u);  // the runner executes, never skipTo()s
    EXPECT_EQ(core.ticks, 0u);
    EXPECT_EQ(foreign.skips, 1u);
    EXPECT_EQ(foreign.lastSkipFrom, 0u);
    EXPECT_EQ(foreign.lastSkipTo, 30u);

    // Further runs stop exactly on the foreign event, never past it.
    while (k.now() < 100)
        ASSERT_TRUE(k.fastForward(1000));
    EXPECT_EQ(k.now(), 100u);
    EXPECT_EQ(core.runs, 4u);
    EXPECT_EQ(foreign.lastSkipTo, 100u);

    const SimKernelStats &s = k.stats();
    EXPECT_EQ(s.blockRuns, 4u);
    EXPECT_EQ(s.cyclesBlockExecuted, 100u);
    EXPECT_EQ(s.cyclesSkipped, 0u);
    EXPECT_EQ(s.cyclesTicked, 0u);

    // Both components are active now: nothing may run ahead.
    EXPECT_FALSE(k.fastForward(1000));
    EXPECT_EQ(core.runs, 4u);
}

TEST(SimKernel, TwoActiveComponentsNeverBlockRun)
{
    SimKernel k;
    FakeBlockRunner r1(5), r2(5);
    k.add(&r1);
    k.add(&r2);
    EXPECT_FALSE(k.fastForward(1000));
    EXPECT_EQ(k.now(), 0u);
    EXPECT_EQ(r1.runs, 0u);
    EXPECT_EQ(r2.runs, 0u);
    EXPECT_EQ(k.stats().blockRuns, 0u);
}

TEST(SimKernel, TickOneRunsEveryComponentThenAdvances)
{
    SimKernel k;
    FakeClocked a(kNoEvent), b(kNoEvent);
    k.add(&a);
    k.add(&b);
    k.tickOne();
    EXPECT_EQ(k.now(), 1u);
    EXPECT_EQ(a.ticks, 1u);
    EXPECT_EQ(b.ticks, 1u);
    EXPECT_EQ(a.lastTickAt, 0u);
    EXPECT_EQ(k.stats().cyclesTicked, 1u);
}

TEST(SimKernel, NeverSkipsPastScheduledExtIrq)
{
    IrqLines irq;
    ExtIrqDriver ext(irq);
    ext.schedule(42);
    FakeClocked idle(kNoEvent);

    SimKernel k;
    k.add(&ext);
    k.add(&idle);

    ASSERT_TRUE(k.fastForward(1000));
    EXPECT_EQ(k.now(), 42u);  // stopped exactly on the event
    EXPECT_EQ(irq.pending() & irq::kMei, 0u);  // skip raised nothing
    k.tickOne();
    EXPECT_NE(irq.pending() & irq::kMei, 0u);
    EXPECT_EQ(irq.assertCycle(mcause::kMachineExternal), 42u);
}

TEST(SimKernel, NeverSkipsPastClintExpiry)
{
    IrqLines irq;
    Clint clint(irq);
    clint.write(memmap::kClintMtimecmp, 10, MemSize::kWord);
    clint.write(memmap::kClintMtimecmpHi, 0, MemSize::kWord);
    FakeClocked idle(kNoEvent);

    SimKernel k;
    k.add(&clint);
    k.add(&idle);

    // The tick at cycle 9 moves mtime to 10 == mtimecmp and raises
    // MTIP; the skip must stop just before and replicate mtime.
    ASSERT_TRUE(k.fastForward(1000));
    EXPECT_EQ(k.now(), 9u);
    EXPECT_EQ(clint.mtime(), 9u);
    EXPECT_EQ(irq.pending() & irq::kMti, 0u);
    k.tickOne();
    EXPECT_NE(irq.pending() & irq::kMti, 0u);
    EXPECT_EQ(irq.assertCycle(mcause::kMachineTimer), 9u);
}

TEST(ClintNextEvent, ArithmeticCoversTheProtocol)
{
    IrqLines irq;
    Clint clint(irq);

    // Reset state: mtimecmp = ~0 is an unreachable deadline (either
    // the kNoEvent clamp or a deadline in the astronomically far
    // future, depending on `now`).
    EXPECT_GE(clint.nextEventAt(0), kNoEvent - 1);
    EXPECT_EQ(clint.nextEventAt(2), kNoEvent);

    // Future deadline: the raising tick is at cmp - mtime - 1.
    clint.write(memmap::kClintMtimecmp, 100, MemSize::kWord);
    clint.write(memmap::kClintMtimecmpHi, 0, MemSize::kWord);
    EXPECT_EQ(clint.nextEventAt(0), 99u);
    clint.tick(0);  // mtime = 1
    EXPECT_EQ(clint.nextEventAt(1), 99u);

    // Imminent deadline: the very next tick raises the line.
    clint.write(memmap::kClintMtimecmp, 2, MemSize::kWord);
    EXPECT_EQ(clint.nextEventAt(1), 1u);

    // Pending and cmp <= mtime + 1: the line stays raised forever
    // (mtime only grows), so the CLINT goes quiescent.
    clint.tick(1);  // mtime = 2 -> MTIP
    ASSERT_NE(irq.pending() & irq::kMti, 0u);
    EXPECT_EQ(clint.nextEventAt(2), kNoEvent);

    // Pending but cmp re-armed ahead (auto-reset): next tick clears.
    clint.enableAutoReset(100);
    clint.timerTaken();  // cmp = 102, line still raised
    ASSERT_NE(irq.pending() & irq::kMti, 0u);
    EXPECT_EQ(clint.nextEventAt(2), 2u);
}

/** Infinite register-only spin: with no device event pending the core
 *  is the lone active component, so the kernel block-executes it. */
Program
spinProgram()
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.label("spin");
    a.mv(A0, Zero);
    a.j("spin");
    return a.finish();
}

/** One retired instruction, then sleep with interrupts disabled. */
Program
hangProgram()
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.csrw(csr::kMie, Zero);
    a.wfi();
    a.label("end");
    a.j("end");
    return a.finish();
}

SimConfig
bareConfig(EngineMode engine)
{
    SimConfig cfg;
    cfg.core = CoreKind::kCv32e40p;
    cfg.unit = RtosUnitConfig::vanilla();
    cfg.engine = engine;
    return cfg;
}

TEST(SimKernelGuest, SpinIsBlockExecutedAndPreservesState)
{
    const Program p = spinProgram();

    SimConfig ref = bareConfig(EngineMode::kReference);
    ref.maxCycles = 5000;
    ref.watchdogCycles = 0;  // a spin retires; keep the test focused
    Simulation refSim(ref, p);
    EXPECT_FALSE(refSim.run());

    SimConfig ff = bareConfig(EngineMode::kFull);
    ff.maxCycles = 5000;
    ff.watchdogCycles = 0;
    Simulation ffSim(ff, p);
    EXPECT_FALSE(ffSim.run());

    // The spin must run as block execution...
    EXPECT_GT(ffSim.kernelStats().cyclesBlockExecuted, 0u);
    EXPECT_LT(ffSim.kernelStats().cyclesTicked, ref.maxCycles);
    // ...and reproduce the reference run bit-exactly.
    EXPECT_EQ(ffSim.now(), refSim.now());
    EXPECT_EQ(ffSim.status(), refSim.status());
    EXPECT_EQ(ffSim.coreStats().instret, refSim.coreStats().instret);
    EXPECT_EQ(ffSim.coreStats().stallCycles,
              refSim.coreStats().stallCycles);
    EXPECT_EQ(ffSim.archState().pc(), refSim.archState().pc());
    for (RegIndex r = 0; r < 32; ++r)
        EXPECT_EQ(ffSim.archState().reg(r), refSim.archState().reg(r))
            << "x" << unsigned(r);
}

TEST(SimKernelGuest, BlockExecutedSpinStaysExactAcrossIrqDelivery)
{
    // Same spin, but an external interrupt arrives mid-spin. With
    // interrupts disabled (reset state) delivery is just the MEIP
    // line rising — block execution still must not step over that
    // cycle, so the phase-sensitive state around it stays exact.
    const Program p = spinProgram();

    struct Outcome
    {
        Cycle cycles;
        std::uint64_t instret;
        std::uint64_t stallCycles;
        Addr pc;
        SimKernelStats kernel;
    };
    auto run = [&](EngineMode engine) {
        SimConfig cfg = bareConfig(engine);
        cfg.maxCycles = 3000;
        cfg.watchdogCycles = 0;
        Simulation sim(cfg, p);
        sim.scheduleExtIrq(1777);
        EXPECT_FALSE(sim.run());
        return Outcome{sim.now(), sim.coreStats().instret,
                       sim.coreStats().stallCycles, sim.archState().pc(),
                       sim.kernelStats()};
    };

    const Outcome ff = run(EngineMode::kFull);
    const Outcome ref = run(EngineMode::kReference);
    EXPECT_GT(ff.kernel.cyclesBlockExecuted, 0u);
    EXPECT_LT(ff.kernel.cyclesTicked, 3000u);
    EXPECT_EQ(ff.cycles, ref.cycles);
    EXPECT_EQ(ff.instret, ref.instret);
    EXPECT_EQ(ff.stallCycles, ref.stallCycles);
    EXPECT_EQ(ff.pc, ref.pc);
}

TEST(SimKernelGuest, WatchdogAbortsIdenticallyInBothModes)
{
    const Program p = hangProgram();

    // The no-retire diagnostic ends with the unit's state, which each
    // unit kind describes in its own words.
    const struct
    {
        const char *config;
        const char *unitState;
    } cases[] = {
        {"vanilla", "unit[none]"},
        {"SLT", "unit[store="},
        {"CV32RT", "unit[cv32rt drainBusy="},
    };
    for (const auto &c : cases) {
        auto run = [&](EngineMode engine) {
            SimConfig cfg = bareConfig(engine);
            cfg.unit = RtosUnitConfig::fromName(c.config);
            cfg.maxCycles = 100000;
            cfg.watchdogCycles = 500;
            Simulation sim(cfg, p);
            EXPECT_FALSE(sim.run()) << c.config;
            EXPECT_EQ(sim.status(), RunStatus::kNoRetire) << c.config;
            EXPECT_NE(sim.statusDiagnostic().find(c.unitState),
                      std::string::npos)
                << c.config << ": " << sim.statusDiagnostic();
            return sim.now();
        };

        const Cycle ffAbort = run(EngineMode::kFull);
        const Cycle refAbort = run(EngineMode::kReference);
        EXPECT_EQ(ffAbort, refAbort) << c.config;
        EXPECT_LT(ffAbort, 100000u) << c.config;  // well before the limit
    }
}

} // namespace
} // namespace rtu
