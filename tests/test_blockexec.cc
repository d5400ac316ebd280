/** Block-execution tests over self-modifying text: three guest writes
 *  into the running straight-line run (a word store onto a later word,
 *  a half store straddling two words, a mid-run bit flip) and a half
 *  store straddling the boundary into the next run must give the same
 *  final state in every engine mode on every core, and the flipped
 *  instruction must execute with block execution on and off. Counter
 *  plumbing through the sweep JSONL stream is checked last. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "asm/encode.hh"
#include "harness/simulation.hh"
#include "rtosunit/config.hh"
#include "sim/memmap.hh"
#include "sweep/sweep.hh"

namespace rtu {
namespace {

SimConfig
bareConfig(EngineMode engine)
{
    SimConfig cfg;
    cfg.core = CoreKind::kCv32e40p;
    cfg.unit = RtosUnitConfig::vanilla();
    cfg.engine = engine;
    cfg.maxCycles = 5000;
    cfg.watchdogCycles = 0;
    return cfg;
}

/** Flip bit 20 of a later instruction in the same straight-line run —
 *  the immediate's LSB of "addi a0, x0, 0" — then fall through into
 *  it. The store and its target sit in one straight-line run, so the
 *  block path must read the re-decoded word mid-run and execute the
 *  flipped instruction. */
Program
midBlockFlipProgram()
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.la(T0, "patch");
    a.lw(T1, 0, T0);
    a.li(T2, 1 << 20);
    a.xor_(T1, T1, T2);
    a.sw(T1, 0, T0);
    a.label("patch");
    a.addi(A0, Zero, 0);  // becomes addi a0, x0, 1 after the flip
    a.label("spin");
    a.j("spin");
    return a.finish();
}

/** End a test program: exit the host with code 0, then spin. */
void
exitAndSpin(Assembler &a)
{
    a.li(T0, static_cast<SWord>(memmap::kHostExit));
    a.sw(Zero, 0, T0);
    a.label("spin");
    a.j("spin");
}

/** Copy the donor word over a later word of the running straight-line
 *  run: "addi a0, x0, 0" becomes "addi a0, x0, 7" before it executes. */
Program
laterWordStoreProgram()
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.la(T0, "patch");
    a.la(T1, "donor");
    a.lw(T2, 0, T1);
    a.sw(T2, 0, T0);
    a.addi(A1, Zero, 1);
    a.label("patch");
    a.addi(A0, Zero, 0);
    exitAndSpin(a);
    a.label("donor");
    a.addi(A0, Zero, 7);  // never executed in place
    return a.finish();
}

/** A half store at byte 3 of "addi a0, x0, 0" spans two words of the
 *  running run: its low byte 0x01 sets imm[11:4] of the first (now
 *  "addi a0, x0, 16"), its high byte 0x93 sets bit 0 of the second's
 *  rd ("addi a2, x0, 5" becomes "addi a3, x0, 5"). The assembler emits
 *  no sh, so the test patches the store into the text image. */
Program
straddlingHalfStoreProgram()
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.la(T0, "patch");
    a.li(T1, 0x9301);
    a.label("store");
    a.nop();  // sh t1, 3(t0)
    a.label("patch");
    a.addi(A0, Zero, 0);
    a.addi(A2, Zero, 5);
    exitAndSpin(a);
    Program p = a.finish();
    p.text[(p.symbol("store") - p.textBase) / 4] =
        encode(Op::kSh, 0, T0, T1, 3);
    return p;
}

/** A half store at byte 3 of the running run's terminator ("j head",
 *  a jal with imm 4) spans the boundary into the next run's head, as in
 *  the old block-index audit: its low byte 0x00 rewrites the jal's top
 *  immediate byte unchanged, its high byte 0x93 sets bit 0 of the
 *  head's rd ("addi a2, x0, 5" becomes "addi a3, x0, 5"). */
Program
straddlingRunBoundaryProgram()
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.la(T0, "jump");
    a.li(T1, 0x9300);
    a.label("store");
    a.nop();  // sh t1, 3(t0)
    a.addi(A0, Zero, 1);
    a.label("jump");
    a.j("head");
    a.label("head");
    a.addi(A2, Zero, 5);
    exitAndSpin(a);
    Program p = a.finish();
    p.text[(p.symbol("store") - p.textBase) / 4] =
        encode(Op::kSh, 0, T0, T1, 3);
    return p;
}

/** Run @p program on all three cores in every engine mode: the
 *  reference engine's registers must hold @p want, and kFull, kNoBlock
 *  and kNoPredecode must equal the reference in final registers,
 *  cycles, instret, exit code and status. */
void
expectEnginesAgree(const char *name, const Program &program,
                   const std::vector<std::pair<RegIndex, Word>> &want)
{
    for (CoreKind core : {CoreKind::kCv32e40p, CoreKind::kCva6,
                          CoreKind::kNax}) {
        auto config = [core](EngineMode engine) {
            SimConfig cfg = bareConfig(engine);
            cfg.core = core;
            return cfg;
        };
        Simulation ref(config(EngineMode::kReference), program);
        ref.run();
        const std::string what = std::string(name) + " on " +
                                 coreKindName(core);
        for (const auto &[r, v] : want) {
            EXPECT_EQ(ref.archState().reg(r), v)
                << what << ": x" << unsigned(r);
        }
        for (EngineMode engine : {EngineMode::kFull, EngineMode::kNoBlock,
                                  EngineMode::kNoPredecode}) {
            Simulation sim(config(engine), program);
            sim.run();
            const std::string how =
                what + ", engine " + engineModeName(engine);
            EXPECT_EQ(sim.status(), ref.status()) << how;
            EXPECT_EQ(sim.exitCode(), ref.exitCode()) << how;
            EXPECT_EQ(sim.now(), ref.now()) << how;
            EXPECT_EQ(sim.coreStats().instret, ref.coreStats().instret)
                << how;
            for (RegIndex r = 0; r < 32; ++r) {
                EXPECT_EQ(sim.archState().reg(r), ref.archState().reg(r))
                    << how << ": x" << unsigned(r);
            }
        }
    }
}

TEST(Blockexec, SelfModifyingTextAgreesAcrossEnginesOnEveryCore)
{
    expectEnginesAgree("later-word store", laterWordStoreProgram(),
                       {{A0, 7}, {A1, 1}});
    expectEnginesAgree("straddling half store", straddlingHalfStoreProgram(),
                       {{A0, 16}, {A2, 0}, {A3, 5}});
    expectEnginesAgree("mid-run bit flip", midBlockFlipProgram(), {{A0, 1}});
}

TEST(Blockexec, StraddlingHalfStoreReformsBothBlocks)
{
    const Program p = straddlingRunBoundaryProgram();
    expectEnginesAgree("run-boundary half store", p,
                       {{A0, 1}, {A2, 0}, {A3, 5}});

    // Both words re-decode, and the block path runs the rewritten head.
    for (CoreKind core : {CoreKind::kCv32e40p, CoreKind::kCva6,
                          CoreKind::kNax}) {
        SimConfig cfg = bareConfig(EngineMode::kFull);
        cfg.core = core;
        Simulation sim(cfg, p);
        EXPECT_TRUE(sim.run()) << coreKindName(core);
        EXPECT_EQ(sim.coreStats().textInvalidations, 2u)
            << coreKindName(core);
        EXPECT_GT(sim.coreStats().blocksExecuted, 0u) << coreKindName(core);
    }
}

TEST(Blockexec, MidBlockBitFlipReformsTheBlockAndExecutesTheFlip)
{
    const Program p = midBlockFlipProgram();

    auto run = [&](EngineMode engine) {
        Simulation sim(bareConfig(engine), p);
        EXPECT_FALSE(sim.run());  // spins to the cycle limit
        EXPECT_EQ(sim.archState().reg(A0), 1u)
            << "engine=" << engineModeName(engine)
            << ": flipped instruction not executed";
        return sim.coreStats();
    };

    const CoreStats on = run(EngineMode::kFull);
    const CoreStats off = run(EngineMode::kNoBlock);
    EXPECT_EQ(on.instret, off.instret);
    EXPECT_EQ(on.memOps, off.memOps);
    EXPECT_EQ(on.stallCycles, off.stallCycles);
    // The guest store re-decoded one text word; with the knob off no
    // block runs.
    EXPECT_EQ(on.textInvalidations, 1u);
    EXPECT_GT(on.blocksExecuted, 0u);
    EXPECT_EQ(off.blocksExecuted, 0u);
}

TEST(Blockexec, CountersFlowThroughTheSweepJsonlStream)
{
    SweepPoint p;
    p.core = CoreKind::kCv32e40p;
    p.unit = RtosUnitConfig::vanilla();
    p.workload = "round_robin";
    p.iterations = 3;
    p.reseed();

    std::vector<SweepResult> on{runSweepPoint(p, false)};
    const std::vector<SweepResult> off{
        runSweepPoint(p, false, EngineMode::kNoBlock)};

    EXPECT_GT(on[0].run.throughput.cyclesBlockExecuted, 0u);
    EXPECT_GT(on[0].run.coreStats.blocksExecuted, 0u);
    EXPECT_EQ(off[0].run.throughput.cyclesBlockExecuted, 0u);
    EXPECT_EQ(off[0].run.coreStats.blocksExecuted, 0u);
    EXPECT_EQ(off[0].run.coreStats.blockFallbacks, 0u);

    std::ostringstream os;
    writeResultsJsonl(os, on);
    const std::string line = os.str();
    const CoreStats &s = on[0].run.coreStats;
    EXPECT_NE(line.find("\"blocks_executed\":" +
                        std::to_string(s.blocksExecuted)),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"block_fallbacks\":" +
                        std::to_string(s.blockFallbacks)),
              std::string::npos)
        << line;
}

} // namespace
} // namespace rtu
