/** Core timing-model tests: deterministic CV32E40P interrupt entry,
 *  data-dependent divider latency, hazards; CVA6 scoreboard overlap
 *  and cache effects; NaxRiscv superscalar throughput, commit-boundary
 *  interrupts and the LSU ctxQueue. */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "cores/cv32e40p.hh"
#include "cores/cva6.hh"
#include "cores/nax.hh"
#include "sim/clint.hh"
#include "sim/memmap.hh"

namespace rtu {
namespace {

/** Minimal bare-metal harness around one core model. */
class CoreHarness : public CoreListener
{
  public:
    explicit CoreHarness(const Program &program)
        : imem("imem", memmap::kImemBase, memmap::kImemSize),
          dmem("dmem", memmap::kDmemBase, memmap::kDmemSize),
          clint(irq), exec(state, mem, irq), dmemPort("dmem"),
          busPort("bus")
    {
        mem.addDevice(&imem);
        mem.addDevice(&dmem);
        mem.addDevice(&clint);
        imem.loadWords(program.textBase, program.text);
        dmem.loadWords(program.dataBase, program.data);
        state.setPc(program.textBase);
        exec.setClock(&now);
    }

    template <typename CoreT, typename... Args>
    CoreT *
    make(Args &&...args)
    {
        Core::Env env;
        env.state = &state;
        env.exec = &exec;
        env.mem = &mem;
        env.irq = &irq;
        env.dmemPort = &dmemPort;
        env.clint = &clint;
        auto c = std::make_unique<CoreT>(env, std::forward<Args>(args)...);
        CoreT *raw = c.get();
        core = std::move(c);
        core->setListener(this);
        return raw;
    }

    /** Run until pc reaches @p stop_pc (or the cycle limit). */
    Cycle
    runUntilPc(Addr stop_pc, Cycle limit = 100000)
    {
        while (state.pc() != stop_pc && now < limit)
            step();
        return now;
    }

    void
    step()
    {
        clint.tick(now);
        dmemPort.beginCycle();
        busPort.beginCycle();
        core->tick(now);
        ++now;
    }

    void trapTaken(Word cause, Cycle entry) override
    {
        lastTrapCause = cause;
        lastTrapEntry = entry;
        ++traps;
    }
    void mretCompleted(Cycle cycle) override { lastMret = cycle; }

    IrqLines irq;
    MemSystem mem;
    Sram imem;
    Sram dmem;
    Clint clint;
    ArchState state;
    Executor exec;
    SharedPort dmemPort;
    SharedPort busPort;
    std::unique_ptr<Core> core;
    Cycle now = 0;
    Word lastTrapCause = 0;
    Cycle lastTrapEntry = 0;
    Cycle lastMret = 0;
    unsigned traps = 0;
};

Program
straightLine(unsigned alu_insns)
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    for (unsigned i = 0; i < alu_insns; ++i)
        a.addi(A0, A0, 1);
    a.label("end");
    a.j("end");
    return a.finish();
}

TEST(Cv32e40pTiming, OneCyclePerAluInsn)
{
    const Program p = straightLine(50);
    CoreHarness h(p);
    h.make<Cv32e40pCore>();
    const Cycle t = h.runUntilPc(p.symbol("end"));
    EXPECT_EQ(t, 50u);
    EXPECT_EQ(h.state.reg(A0), 50u);
}

TEST(Cv32e40pTiming, TakenBranchCostsTwoExtraCycles)
{
    // The timing model charges an instruction's cost before the next
    // one may start, so a trailing marker observes the branch penalty.
    auto measure = [](bool taken) {
        Assembler a(memmap::kImemBase, memmap::kDmemBase);
        if (taken)
            a.beq(Zero, Zero, "t");
        else
            a.bne(Zero, Zero, "t");
        a.label("t");
        a.nop();  // marker
        a.label("end");
        a.j("end");
        const Program p = a.finish();
        CoreHarness h(p);
        h.make<Cv32e40pCore>();
        return h.runUntilPc(p.symbol("end"));
    };
    EXPECT_EQ(measure(true), measure(false) + 2);
}

TEST(Cv32e40pTiming, DividerLatencyTracksDividendMagnitude)
{
    auto measure = [](SWord dividend) {
        Assembler a(memmap::kImemBase, memmap::kDmemBase);
        a.lui(A0, static_cast<SWord>(
                      (static_cast<Word>(dividend) + 0x800) >> 12));
        a.li(A1, 3);
        a.div(A2, A0, A1);
        a.nop();  // marker after the divide completes
        a.label("end");
        a.j("end");
        const Program p = a.finish();
        CoreHarness h(p);
        h.make<Cv32e40pCore>();
        return h.runUntilPc(p.symbol("end"));
    };
    EXPECT_LT(measure(0x7000), measure(0x70000000));
    EXPECT_GE(measure(0x70000000) - measure(0x7000), 10u);
}

TEST(Cv32e40pTiming, LoadUseHazardAddsOneBubble)
{
    auto build = [](bool use_immediately) {
        Assembler a(memmap::kImemBase, memmap::kDmemBase);
        a.li(A0, static_cast<SWord>(memmap::kDmemBase));
        a.lw(A1, 0, A0);
        if (use_immediately)
            a.addi(A2, A1, 1);  // consumes the load
        else
            a.addi(A2, A3, 1);  // independent
        a.nop();  // marker
        a.label("end");
        a.j("end");
        return a.finish();
    };
    const Program dep = build(true);
    const Program indep = build(false);
    CoreHarness h1(dep);
    h1.make<Cv32e40pCore>();
    CoreHarness h2(indep);
    h2.make<Cv32e40pCore>();
    EXPECT_EQ(h1.runUntilPc(dep.symbol("end")),
              h2.runUntilPc(indep.symbol("end")) + 1);
}

/** The property behind the paper's zero-jitter SLT result: CV32E40P
 *  interrupt entry latency is constant even when the interrupt lands
 *  in a multi-cycle divide (the core kills in-flight ops). */
TEST(Cv32e40pTiming, InterruptEntryIsConstant)
{
    std::vector<Cycle> entry_delays;
    for (Cycle fire : {20u, 23u, 26u, 29u, 32u}) {
        Assembler a(memmap::kImemBase, memmap::kDmemBase);
        a.label("isr");
        a.j("isr");  // mtvec == 0: the "handler" parks
        const Program p = [&] {
            Assembler b(memmap::kImemBase, memmap::kDmemBase);
            b.label("isr_park");
            b.j("isr_park");
            // main at 0x8: long divides back to back
            b.label("main");
            b.li(T0, 0x7FFF0000);
            b.li(T1, 3);
            for (int i = 0; i < 8; ++i)
                b.divu(T2, T0, T1);
            b.label("spin");
            b.j("spin");
            return b.finish();
        }();
        CoreHarness h(p);
        h.make<Cv32e40pCore>();
        h.state.setPc(p.symbol("main"));
        h.state.csrs.mtvec = p.symbol("isr_park");
        h.state.csrs.mie = irq::kMti;
        h.state.csrs.mstatus = mstatus::kMie;
        h.clint.write(memmap::kClintMtimecmpHi, 0, MemSize::kWord);
        h.clint.write(memmap::kClintMtimecmp, static_cast<Word>(fire),
                      MemSize::kWord);
        while (h.traps == 0 && h.now < 1000)
            h.step();
        ASSERT_EQ(h.traps, 1u);
        entry_delays.push_back(h.lastTrapEntry - fire);
    }
    for (size_t i = 1; i < entry_delays.size(); ++i)
        EXPECT_EQ(entry_delays[i], entry_delays[0]) << i;
}

TEST(Cva6Timing, ScoreboardOverlapsDivideWithIndependentWork)
{
    auto build = [](bool dependent) {
        Assembler a(memmap::kImemBase, memmap::kDmemBase);
        a.li(A0, 0x7FFF0000);
        a.li(A1, 3);
        a.divu(A2, A0, A1);
        for (int i = 0; i < 10; ++i) {
            if (dependent)
                a.addi(A3, A2, 1);  // waits on the divide
            else
                a.addi(A3, A4, 1);  // independent: overlaps
        }
        a.add(A5, A2, A3);  // final join
        a.label("end");
        a.j("end");
        return a.finish();
    };
    const Program dep = build(true);
    const Program indep = build(false);
    CoreHarness h1(dep);
    h1.make<Cva6Core>(h1.busPort);
    CoreHarness h2(indep);
    h2.make<Cva6Core>(h2.busPort);
    const Cycle t_dep = h1.runUntilPc(dep.symbol("end"));
    const Cycle t_indep = h2.runUntilPc(indep.symbol("end"));
    EXPECT_GT(t_dep, t_indep + 5);
}

TEST(Cva6Timing, CacheMissCostsMoreThanHit)
{
    auto measure = [](bool second_access_same_line) {
        Assembler a(memmap::kImemBase, memmap::kDmemBase);
        a.li(A0, static_cast<SWord>(memmap::kDmemBase));
        a.lw(A1, 0, A0);  // cold miss
        if (second_access_same_line)
            a.lw(A2, 4, A0);  // hit
        else
            a.lw(A2, 0x400, A0);  // another cold miss
        a.add(A3, A1, A2);
        a.label("end");
        a.j("end");
        return a.finish();
    };
    const Program hit = measure(true);
    const Program miss = measure(false);
    CoreHarness h1(hit);
    h1.make<Cva6Core>(h1.busPort);
    CoreHarness h2(miss);
    h2.make<Cva6Core>(h2.busPort);
    EXPECT_LT(h1.runUntilPc(hit.symbol("end")),
              h2.runUntilPc(miss.symbol("end")));
}

TEST(NaxTiming, DualIssueBeatsSingleIssueOnIndependentCode)
{
    // Independent ALU stream: NaxRiscv should approach IPC 2 and beat
    // the in-order CV32E40P clearly.
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    for (int i = 0; i < 64; ++i)
        a.addi(static_cast<Reg>(10 + (i % 4)),
               static_cast<Reg>(14 + (i % 4)), 1);
    a.label("end");
    a.j("end");
    const Program p = a.finish();

    CoreHarness nax_h(p);
    nax_h.make<NaxCore>();
    CoreHarness cv_h(p);
    cv_h.make<Cv32e40pCore>();
    const Cycle t_nax = nax_h.runUntilPc(p.symbol("end"));
    const Cycle t_cv = cv_h.runUntilPc(p.symbol("end"));
    EXPECT_LT(t_nax * 3, t_cv * 2);  // at least 1.5x faster
}

TEST(NaxTiming, CommitBoundaryEntryWaitsOnLongOps)
{
    // An interrupt landing in a serialized divide chain must wait for
    // the oldest in-flight divide to commit; in plain ALU code the
    // boundary is immediate. This is the modelled source of the
    // residual (SLT) jitter on NaxRiscv (paper Section 6.1).
    auto entry_delay = [](bool divides) {
        Assembler b(memmap::kImemBase, memmap::kDmemBase);
        b.label("isr_park");
        b.j("isr_park");
        b.label("main");
        b.li(T0, 0x7FFF0000);
        b.li(T1, 3);
        for (int i = 0; i < 40; ++i) {
            if (divides) {
                b.divu(T2, T0, T1);
                b.add(T0, T0, T2);  // serialize the chain
            } else {
                b.addi(T2, T2, 1);
            }
        }
        b.label("spin");
        b.j("spin");
        const Program p = b.finish();
        CoreHarness h(p);
        h.make<NaxCore>();
        h.state.setPc(p.symbol("main"));
        h.state.csrs.mtvec = p.symbol("isr_park");
        h.state.csrs.mie = irq::kMti;
        h.state.csrs.mstatus = mstatus::kMie;
        h.clint.write(memmap::kClintMtimecmpHi, 0, MemSize::kWord);
        h.clint.write(memmap::kClintMtimecmp, 60, MemSize::kWord);
        while (h.traps == 0 && h.now < 5000)
            h.step();
        EXPECT_EQ(h.traps, 1u);
        return h.lastTrapEntry - 60;
    };
    EXPECT_GT(entry_delay(true), entry_delay(false) + 5);
}

TEST(NaxTiming, TinyRobFillsAndWrapsWithUnchangedTiming)
{
    // A divide- and load-heavy loop on a 3-entry ROB (not a power of
    // two): dispatch keeps hitting the full-ROB stall and the commit
    // ring wraps every few instructions. The expected figures were
    // recorded on the std::deque ROB this ring replaced; the ring must
    // reproduce them cycle for cycle.
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.li(A0, static_cast<SWord>(memmap::kDmemBase));
    a.li(A1, 24);
    a.li(T0, 0x7FFF0000);
    a.li(T1, 3);
    a.label("loop");
    a.divu(T2, T0, T1);
    a.lw(T3, 0, A0);
    a.lw(T4, 0x400, A0);
    a.addi(T5, T5, 1);
    a.add(T6, T2, T3);
    a.sw(T6, 8, A0);
    a.addi(A0, A0, 64);
    a.addi(A1, A1, -1);
    a.bnez(A1, "loop");
    a.label("end");
    a.j("end");
    const Program p = a.finish();

    NaxParams params;
    params.robEntries = 3;
    CoreHarness h(p);
    NaxCore *nax = h.make<NaxCore>(params);
    const Cycle end = h.runUntilPc(p.symbol("end"));
    EXPECT_EQ(nax->stats().instret, 220u);
    EXPECT_EQ(nax->stats().stallCycles, 819u);
    EXPECT_EQ(end, 917u);
}

TEST(NaxTiming, CtxQueueServicesRequestsInOrder)
{
    const Program p = straightLine(4);
    CoreHarness h(p);
    NaxCore *nax = h.make<NaxCore>();
    UnitMemPort &port = nax->ctxQueuePort();

    h.mem.write32(memmap::kCtxBase + 0, 0x11);
    h.mem.write32(memmap::kCtxBase + 4, 0x22);
    ASSERT_TRUE(port.canAccept());
    port.pushRead(memmap::kCtxBase + 0);
    port.pushRead(memmap::kCtxBase + 4);
    port.pushWrite(memmap::kCtxBase + 8, 0x33);

    for (int i = 0; i < 64; ++i) {
        h.step();
        port.tick();
    }
    Word v = 0;
    ASSERT_TRUE(port.popResponse(&v));
    EXPECT_EQ(v, 0x11u);
    ASSERT_TRUE(port.popResponse(&v));
    EXPECT_EQ(v, 0x22u);
    EXPECT_FALSE(port.popResponse(&v));
    EXPECT_EQ(h.mem.read32(memmap::kCtxBase + 8), 0x33u);
    EXPECT_TRUE(port.idle());
}

TEST(NaxTiming, CtxQueueCapacityIsEightEntries)
{
    const Program p = straightLine(4);
    CoreHarness h(p);
    NaxCore *nax = h.make<NaxCore>();
    UnitMemPort &port = nax->ctxQueuePort();
    for (unsigned i = 0; i < 8; ++i) {
        ASSERT_TRUE(port.canAccept()) << i;
        port.pushWrite(memmap::kCtxBase + 4 * i, i);
    }
    EXPECT_FALSE(port.canAccept());
}

} // namespace
} // namespace rtu
