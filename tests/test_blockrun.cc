/** Block-run bail reasons, pinned per core. Each tiny program makes the
 *  superblock fast path give up for one reason:
 *   - a pc outside the predecoded image (code reached by jalr into
 *     dmem);
 *   - a stop word at the head of a run (csrr in a loop);
 *   - a load the per-instruction path routes to a device (CLINT mtime);
 *   - on NaxRiscv, a slot-1 load whose base register slot 0 writes;
 *   - on NaxRiscv, a slot-0 store onto slot 1's instruction word.
 *  One more program has a store rewrite its own word: the block path
 *  must still charge it as the store it was, like the per-cycle path.
 *  Every program runs on every core. The block counters are pinned to
 *  exact values, and cycles, instret and the register file must equal
 *  the per-cycle reference run. */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>

#include "asm/assembler.hh"
#include "asm/encode.hh"
#include "harness/simulation.hh"
#include "sim/memmap.hh"

namespace rtu {
namespace {

constexpr SWord kIterations = 20;

/** Block counters of one run on each core, in CoreKind order. */
struct BlockCounts
{
    std::uint64_t blocksExecuted;
    std::uint64_t blockFallbacks;
};
using PerCore = std::array<BlockCounts, 3>;

/** Build a program: the loop counter in s0, @p body, then the loop
 *  back-edge and a host exit. @p setup runs once before the loop. */
Program
loopProgram(const std::function<void(Assembler &)> &setup,
            const std::function<void(Assembler &)> &body)
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.li(S0, kIterations);
    setup(a);
    a.label("loop");
    body(a);
    a.addi(S0, S0, -1);
    a.bnez(S0, "loop");
    a.li(T0, static_cast<SWord>(memmap::kHostExit));
    a.sw(Zero, 0, T0);
    a.label("spin");
    a.j("spin");
    return a.finish();
}

class BlockRun : public ::testing::TestWithParam<CoreKind>
{
  protected:
    /** Run @p program at kFull and kReference on the parameter core;
     *  the full run must match the reference and @p want. */
    void
    check(const Program &program, const PerCore &want)
    {
        const CoreKind core = GetParam();
        auto config = [core](EngineMode engine) {
            SimConfig cfg;
            cfg.core = core;
            cfg.unit = RtosUnitConfig::vanilla();
            cfg.engine = engine;
            cfg.maxCycles = 100'000;
            return cfg;
        };
        Simulation full(config(EngineMode::kFull), program);
        Simulation ref(config(EngineMode::kReference), program);
        ASSERT_TRUE(full.run()) << full.statusDiagnostic();
        ASSERT_TRUE(ref.run()) << ref.statusDiagnostic();

        EXPECT_EQ(full.now(), ref.now());
        EXPECT_EQ(full.coreStats().instret, ref.coreStats().instret);
        for (RegIndex r = 0; r < 32; ++r) {
            EXPECT_EQ(full.archState().reg(r), ref.archState().reg(r))
                << "x" << unsigned(r);
        }

        const CoreStats s = full.coreStats();
        const BlockCounts &w = want[static_cast<std::size_t>(core)];
        EXPECT_EQ(s.blocksExecuted, w.blocksExecuted);
        EXPECT_EQ(s.blockFallbacks, w.blockFallbacks);
    }
};

TEST_P(BlockRun, UncoveredPcBails)
{
    // The callee lives in dmem, outside the predecoded text: each call
    // leaves the image that block runs read.
    const Program p = loopProgram(
        [](Assembler &a) {
            a.dataWord("dm_code", encode(Op::kAddi, A0, A0, 0, 1));
            a.dataWord("dm_ret", encode(Op::kJalr, Zero, RA, 0, 0));
            a.la(T0, "dm_code");
        },
        [](Assembler &a) {
            a.jalr(RA, T0, 0);
            a.addi(A1, A1, 3);
        });
    ASSERT_EQ(p.symbol("dm_ret"), p.symbol("dm_code") + 4);
    check(p, {{{41, 62}, {41, 62}, {41, 42}}});
}

TEST_P(BlockRun, StopWordAtRunHeadBails)
{
    const Program p = loopProgram([](Assembler &) {},
                                  [](Assembler &a) {
                                      a.csrr(T1, csr::kMscratch);
                                      a.addi(A0, A0, 1);
                                  });
    check(p, {{{22, 42}, {22, 42}, {21, 41}}});
}

TEST_P(BlockRun, MmioLoadBails)
{
    const Program p = loopProgram(
        [](Assembler &a) {
            a.li(T0, static_cast<SWord>(memmap::kClintMtime));
        },
        [](Assembler &a) {
            a.addi(A0, A0, 1);
            a.lw(T1, 0, T0);  // mid-run: after the run head's checks
        });
    check(p, {{{41, 42}, {41, 42}, {22, 42}}});
}

TEST_P(BlockRun, SlotOneLoadOnSlotZeroResultBails)
{
    // On NaxRiscv the loop head dispatches as the pair (addi t0, lw
    // through t0): the load address is unknown until slot 0 runs.
    const Program p = loopProgram(
        [](Assembler &a) {
            a.dataWord("buf", 7);
            a.la(T0, "buf");
        },
        [](Assembler &a) {
            a.addi(T0, T0, 0);
            a.lw(T1, 0, T0);
            a.add(A0, A0, T1);
        });
    check(p, {{{21, 2}, {21, 2}, {21, 16}}});
}

TEST_P(BlockRun, SlotZeroStoreOntoSlotOneBails)
{
    // The loop head stores the next instruction word back onto itself
    // (same value, still a re-decode): on NaxRiscv slot 0 writes the
    // word slot 1 was verified from.
    const Program p = loopProgram(
        [](Assembler &a) {
            a.la(T0, "loop");
            a.lw(T1, 4, T0);
        },
        [](Assembler &a) {
            a.sw(T1, 4, T0);
            a.addi(A1, A1, 1);
        });
    check(p, {{{21, 2}, {21, 2}, {21, 42}}});
}

TEST_P(BlockRun, StoreOntoItsOwnWordMatchesReference)
{
    // The loop head rewrites itself into "jal zero, 4" (a jump to the
    // next word): the store's own timing must still be a store's, as
    // on the per-cycle path, which executes a fetched copy.
    const Program p = loopProgram(
        [](Assembler &a) {
            a.la(T0, "loop");
            a.li(T1, static_cast<SWord>(encode(Op::kJal, Zero, 0, 0, 4)));
        },
        [](Assembler &a) {
            a.sw(T1, 0, T0);
            a.addi(A1, A1, 1);
        });
    check(p, {{{40, 2}, {40, 2}, {40, 2}}});
}

std::string
coreParamName(const ::testing::TestParamInfo<CoreKind> &info)
{
    return coreKindName(info.param);
}

INSTANTIATE_TEST_SUITE_P(Cores, BlockRun,
                         ::testing::Values(CoreKind::kCv32e40p,
                                           CoreKind::kCva6,
                                           CoreKind::kNax),
                         coreParamName);

} // namespace
} // namespace rtu
