/** Superblock index and block-execution tests: block formation over a
 *  hand-built program (flags, run lengths, worst-case suffix costs),
 *  the word-granular invalidation audit — a 2-byte store straddling a
 *  block boundary re-forms both blocks — and the end-to-end acceptance
 *  case: a mid-block bit flip written by the running guest re-forms
 *  the block and the flipped instruction executes, identically with
 *  block execution on and off. Counter plumbing through the sweep
 *  JSONL stream is checked last. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "asm/decode.hh"
#include "harness/simulation.hh"
#include "rtosunit/config.hh"
#include "sim/blockexec.hh"
#include "sim/memmap.hh"
#include "sim/predecode.hh"
#include "sweep/sweep.hh"

namespace rtu {
namespace {

struct IndexFixture
{
    Sram imem{"imem", memmap::kImemBase, memmap::kImemSize};
    MemSystem mem;
    PredecodedImage image;
    BlockIndex index;

    explicit IndexFixture(const std::vector<Word> &text)
    {
        mem.addDevice(&imem);
        imem.loadWords(memmap::kImemBase, text);
        image.install(mem, memmap::kImemBase, text.size());
        index.install(image, Cv32e40pCostParams{});
    }

    Addr pc(std::size_t word) const
    {
        return memmap::kImemBase + 4 * static_cast<Addr>(word);
    }
};

TEST(Blockexec, FormationFlagsRunLengthsAndWorstCosts)
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.label("top");
    a.addi(A0, Zero, 1);    // w0: plain ALU
    a.lw(T1, 0, T0);        // w1: load
    a.add(A1, T1, A0);      // w2: consumes the load -> hazard stall
    a.sw(A1, 0, T0);        // w3: store
    a.j("top");             // w4: block terminator
    a.ecall();              // w5: stop word
    a.addi(Zero, Zero, 0);  // w6: plain word at the end of text
    const Program p = a.finish();
    ASSERT_EQ(p.text.size(), 7u);

    IndexFixture f(p.text);
    ASSERT_TRUE(f.index.installed());
    for (std::size_t w = 0; w < p.text.size(); ++w)
        EXPECT_TRUE(f.index.covers(f.pc(w))) << "word " << w;
    EXPECT_FALSE(f.index.covers(f.pc(7)));
    EXPECT_FALSE(f.index.covers(f.pc(0) + 2));

    using B = BlockIndex;
    // A store at w3 marks every word of the run up to it.
    EXPECT_EQ(f.index.flagsAt(f.pc(0)), B::kSuffixStore);
    EXPECT_EQ(f.index.flagsAt(f.pc(1)), B::kMem | B::kSuffixStore);
    EXPECT_EQ(f.index.flagsAt(f.pc(2)), B::kHazPrev | B::kSuffixStore);
    EXPECT_EQ(f.index.flagsAt(f.pc(3)),
              B::kMem | B::kStoreOp | B::kSuffixStore);
    EXPECT_EQ(f.index.flagsAt(f.pc(4)), B::kControl);
    EXPECT_EQ(f.index.flagsAt(f.pc(5)), B::kStop);
    EXPECT_EQ(f.index.flagsAt(f.pc(6)), 0u);

    // Run lengths count down to the terminator, terminator included;
    // stop words never execute in-block; the last text word is a
    // one-instruction run by construction.
    const std::uint32_t lens[7] = {5, 4, 3, 2, 1, 0, 1};
    for (std::size_t w = 0; w < 7; ++w)
        EXPECT_EQ(f.index.runLenAt(f.pc(w)), lens[w]) << "word " << w;

    // Worst-case CV32E40P suffix costs: ALU/load/store 1 cycle, the
    // hazard consumer 1 + loadUseStall, the jump 2.
    const std::uint32_t worst[7] = {7, 6, 5, 3, 2, 0, 1};
    for (std::size_t w = 0; w < 7; ++w)
        EXPECT_EQ(f.index.worstCyclesAt(f.pc(w)), worst[w])
            << "word " << w;

    EXPECT_EQ(f.index.invalidations(), 0u);
}

TEST(Blockexec, StraddlingHalfStoreReformsBothBlocks)
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.label("top");
    a.addi(A0, Zero, 1);  // w0 ┐ block A
    a.j("top");           // w1 ┘
    a.addi(A1, Zero, 2);  // w2 ┐ block B
    a.j("top");           // w3 ┘
    const Program p = a.finish();
    ASSERT_EQ(p.text.size(), 4u);

    IndexFixture f(p.text);
    using B = BlockIndex;
    ASSERT_EQ(f.index.runLenAt(f.pc(0)), 2u);
    ASSERT_EQ(f.index.runLenAt(f.pc(2)), 2u);
    ASSERT_EQ(f.index.flagsAt(f.pc(2)), 0u);
    const std::uint64_t before = f.index.invalidations();

    // A 2-byte store at byte 7 spans the last byte of block A's
    // terminator (w1) and the first byte of block B's head (w2): the
    // low byte 0x00 rewrites w1's jal immediate field, the high byte
    // 0x6F rewrites w2's opcode to JAL. Both words re-decode and both
    // blocks re-form — B is now two one-instruction runs.
    f.mem.write(f.pc(1) + 3, 0x6F00, MemSize::kHalf);

    EXPECT_EQ(f.image.invalidations(), 2u);
    EXPECT_GE(f.index.invalidations() - before, 2u);

    // Block B re-formed around the new control word.
    EXPECT_NE(f.index.flagsAt(f.pc(2)) & B::kControl, 0u);
    EXPECT_EQ(f.index.runLenAt(f.pc(2)), 1u);
    // Block A re-formed too: w1 is still a jal (opcode byte is below
    // the written range), so its summaries are re-derived unchanged.
    EXPECT_NE(f.index.flagsAt(f.pc(1)) & B::kControl, 0u);
    EXPECT_EQ(f.index.runLenAt(f.pc(0)), 2u);
    EXPECT_EQ(f.index.worstCyclesAt(f.pc(0)), 3u);
}

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
 *  it. The store and its target sit in one superblock, so this is the
 *  worst case for stale summaries: the flip must re-form the block
 *  mid-run and the flipped instruction must execute. */
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
    // The guest store re-decoded one text word and re-formed its
    // block; with the knob off the index is never installed.
    EXPECT_EQ(on.textInvalidations, 1u);
    EXPECT_GE(on.blockInvalidations, 1u);
    EXPECT_GT(on.blocksExecuted, 0u);
    EXPECT_EQ(off.blocksExecuted, 0u);
    EXPECT_EQ(off.blockInvalidations, 0u);
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
    EXPECT_NE(line.find("\"block_invalidations\":" +
                        std::to_string(s.blockInvalidations)),
              std::string::npos)
        << line;
}

} // namespace
} // namespace rtu
