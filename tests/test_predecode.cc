/** Pre-decoded instruction store tests: image install/lookup and the
 *  write-invalidation contract (guest stores, sub-word and straddling
 *  writes, injected bit flips), wild-jump fetches ending the run as a
 *  typed guest fault, self-modifying code behaving identically with
 *  the image on and off, and the full 105-point config x workload
 *  differential: episodes, traces and counters byte-identical with the
 *  predecoded image enabled and disabled, in both fast-forward modes. */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "asm/decode.hh"
#include "harness/simulation.hh"
#include "rtosunit/config.hh"
#include "sim/memmap.hh"
#include "sim/predecode.hh"
#include "sweep/sweep.hh"

namespace rtu {
namespace {

/** "addi a0, x0, 42" — the patch word self-modifying tests store. */
constexpr Word kLiA042 = 0x02A00513;

struct ImageFixture
{
    Sram imem{"imem", memmap::kImemBase, memmap::kImemSize};
    MemSystem mem;
    PredecodedImage image;

    explicit ImageFixture(const std::vector<Word> &text)
    {
        mem.addDevice(&imem);
        imem.loadWords(memmap::kImemBase, text);
        image.install(mem, memmap::kImemBase, text.size());
    }
};

TEST(Predecode, InstallDecodesEveryTextWord)
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.li(A0, 42);
    a.mv(A1, A0);
    a.label("spin");
    a.j("spin");
    const Program p = a.finish();

    ImageFixture f(p.text);
    ASSERT_TRUE(f.image.installed());
    for (std::size_t i = 0; i < p.text.size(); ++i) {
        const Addr pc = memmap::kImemBase + 4 * static_cast<Addr>(i);
        ASSERT_TRUE(f.image.covers(pc)) << "pc 0x" << std::hex << pc;
        const DecodedInsn &d = f.image.at(pc);
        const DecodedInsn ref = decode(p.text[i]);
        EXPECT_EQ(d.op, ref.op);
        EXPECT_EQ(d.raw, ref.raw);
        EXPECT_EQ(d.imm, ref.imm);
    }
    EXPECT_EQ(f.image.invalidations(), 0u);
}

TEST(Predecode, CoversRejectsOutOfTextAndMisalignedPcs)
{
    ImageFixture f({0x00000013, 0x00000013});  // two nops
    const Addr base = memmap::kImemBase;
    EXPECT_TRUE(f.image.covers(base));
    EXPECT_TRUE(f.image.covers(base + 4));
    EXPECT_FALSE(f.image.covers(base + 8));   // one past the end
    EXPECT_FALSE(f.image.covers(base + 2));   // misaligned
    EXPECT_FALSE(f.image.covers(0xFFFF'FFF0));
    EXPECT_FALSE(f.image.covers(memmap::kDmemBase));
}

TEST(Predecode, WordWriteInTextRedecodes)
{
    ImageFixture f({0x00000013, 0x00000013});
    const Addr pc = memmap::kImemBase + 4;
    ASSERT_EQ(f.image.at(pc).op, Op::kAddi);  // nop = addi x0,x0,0

    f.mem.write32(pc, kLiA042);
    EXPECT_EQ(f.image.invalidations(), 1u);
    EXPECT_EQ(f.image.at(pc).op, Op::kAddi);
    EXPECT_EQ(f.image.at(pc).rd, A0);
    EXPECT_EQ(f.image.at(pc).imm, 42);
    EXPECT_EQ(f.image.at(pc).raw, kLiA042);
    // The untouched word keeps its decode.
    EXPECT_EQ(f.image.at(memmap::kImemBase).raw, 0x00000013u);
}

TEST(Predecode, SubWordWritesRedecodeTheContainingWord)
{
    ImageFixture f({kLiA042});
    const Addr pc = memmap::kImemBase;

    // Byte write into the immediate field: addi a0, x0, 43.
    f.mem.write(pc + 3, 0x02, MemSize::kByte);
    f.mem.write(pc + 2, 0xB0, MemSize::kByte);
    EXPECT_EQ(f.image.invalidations(), 2u);
    EXPECT_EQ(f.image.at(pc).imm, 43);

    // Half write over the low half changes rd to a1.
    f.mem.write(pc, 0x0593, MemSize::kHalf);
    EXPECT_EQ(f.image.invalidations(), 3u);
    EXPECT_EQ(f.image.at(pc).rd, A1);
}

TEST(Predecode, StraddlingWriteRedecodesBothWords)
{
    ImageFixture f({0x00000013, 0x00000013, 0x00000013});
    f.mem.write(memmap::kImemBase + 6, 0xDEADBEEF, MemSize::kWord);
    // Bytes 6..9 span words 1 and 2: both re-decode.
    EXPECT_EQ(f.image.invalidations(), 2u);
    EXPECT_NE(f.image.at(memmap::kImemBase + 4).raw, 0x00000013u);
    EXPECT_NE(f.image.at(memmap::kImemBase + 8).raw, 0x00000013u);
    EXPECT_EQ(f.image.at(memmap::kImemBase).raw, 0x00000013u);
}

TEST(Predecode, WritesOutsideTextDoNotInvalidate)
{
    ImageFixture f({0x00000013, 0x00000013});
    // Still imem, but past the image's two words.
    f.mem.write32(memmap::kImemBase + 64, 0x12345678);
    EXPECT_EQ(f.image.invalidations(), 0u);
}

TEST(Predecode, InjectedBitFlipRedecodesToTheFlippedInstruction)
{
    ImageFixture f({kLiA042});
    const Addr pc = memmap::kImemBase;

    // The fault campaign's flipWord: read, xor one bit, write back.
    const Word flipped = f.mem.read32(pc) ^ (1u << 20);
    f.mem.write32(pc, flipped);

    EXPECT_EQ(f.image.invalidations(), 1u);
    EXPECT_EQ(f.image.at(pc).raw, flipped);
    const DecodedInsn ref = decode(flipped);
    EXPECT_EQ(f.image.at(pc).op, ref.op);
    EXPECT_EQ(f.image.at(pc).imm, ref.imm);
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

/** Jump straight into unmapped address space (a fault-corrupted
 *  return context does exactly this). */
Program
wildJumpProgram()
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.li(T0, 0x4000'0000);
    a.jalr(Zero, T0, 0);
    return a.finish();
}

TEST(Predecode, WildJumpEndsTheRunAsAGuestFault)
{
    const Program p = wildJumpProgram();
    for (EngineMode engine : {EngineMode::kFull, EngineMode::kNoPredecode}) {
        Simulation sim(bareConfig(engine), p);
        EXPECT_FALSE(sim.run());
        EXPECT_EQ(sim.status(), RunStatus::kGuestFault)
            << "engine=" << engineModeName(engine);
        EXPECT_FALSE(sim.statusDiagnostic().empty());
        // The faulting fetch itself is the slow path.
        EXPECT_GE(sim.coreStats().fetchSlowPath, 1u);
    }
}

/** Store a new instruction over the patch site, then execute it. */
Program
selfModifyProgram()
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.la(T0, "patch");
    a.li(T1, static_cast<SWord>(kLiA042));
    a.sw(T1, 0, T0);
    a.label("patch");
    a.mv(A0, Zero);  // overwritten before it executes
    a.label("spin");
    a.j("spin");
    return a.finish();
}

TEST(Predecode, SelfModifyingStoreIsObservedByTheImage)
{
    const Program p = selfModifyProgram();

    auto run = [&](EngineMode engine) {
        Simulation sim(bareConfig(engine), p);
        EXPECT_FALSE(sim.run());  // spins to the cycle limit
        EXPECT_EQ(sim.archState().reg(A0), 42u)
            << "engine=" << engineModeName(engine)
            << ": patched instruction not executed";
        return sim.coreStats();
    };

    const CoreStats on = run(EngineMode::kFull);
    const CoreStats off = run(EngineMode::kNoPredecode);
    EXPECT_EQ(on.instret, off.instret);
    EXPECT_EQ(on.memOps, off.memOps);
    // With the image on, every fetch hits it and the patch store
    // invalidated exactly one word; off, everything is slow path.
    EXPECT_GT(on.fetchPredecoded, 0u);
    EXPECT_EQ(on.fetchSlowPath, 0u);
    EXPECT_EQ(on.textInvalidations, 1u);
    EXPECT_EQ(off.fetchPredecoded, 0u);
    EXPECT_GT(off.fetchSlowPath, 0u);
    EXPECT_EQ(off.textInvalidations, 0u);
    // Fetch totals are mode-invariant: same instruction stream.
    EXPECT_EQ(on.fetchPredecoded + on.fetchSlowPath,
              off.fetchPredecoded + off.fetchSlowPath);
}

/** paperConfigs() + the three +HS composition points — the same
 *  matrix test_differential walks for ff-vs-reference. */
std::vector<RtosUnitConfig>
matrixConfigs()
{
    std::vector<RtosUnitConfig> units = RtosUnitConfig::paperConfigs();
    for (const char *name : {"ST", "SDLOT", "SPLIT"}) {
        RtosUnitConfig u = RtosUnitConfig::fromName(name);
        u.hwsync = true;
        units.push_back(u);
    }
    return units;
}

TEST(PredecodeDifferential, ImageOnMatchesImageOffAcrossTheMatrix)
{
    const std::vector<RtosUnitConfig> units = matrixConfigs();
    const std::array<const char *, 7> workloads = {
        "yield_pingpong", "round_robin",   "mutex_workload",
        "delay_wake",     "sem_pingpong",  "priority_preempt",
        "ext_interrupt"};
    const std::array<CoreKind, 3> cores = {
        CoreKind::kCv32e40p, CoreKind::kCva6, CoreKind::kNax};

    size_t idx = 0;
    for (const RtosUnitConfig &unit : units) {
        for (const char *w : workloads) {
            SweepPoint p;
            // Round-robin the cores over the matrix; alternate the
            // image-on engine so both fast-forward and reference
            // ticking are exercised against the image-off run.
            p.core = cores[idx % cores.size()];
            p.unit = unit;
            p.workload = w;
            p.iterations = 3;
            p.reseed();
            const EngineMode imageOn =
                idx % 2 == 0 ? EngineMode::kFull : EngineMode::kReference;
            ++idx;

            const SweepResult on = runSweepPoint(p, true, imageOn);
            const SweepResult off =
                runSweepPoint(p, true, EngineMode::kNoPredecode);
            const std::string key = p.key();

            EXPECT_EQ(on.run.ok, off.run.ok) << key;
            EXPECT_EQ(on.run.status, off.run.status) << key;
            EXPECT_EQ(on.run.exitCode, off.run.exitCode) << key;
            EXPECT_EQ(on.run.cycles, off.run.cycles) << key;

            const CoreStats &a = on.run.coreStats;
            const CoreStats &b = off.run.coreStats;
            EXPECT_EQ(a.instret, b.instret) << key;
            EXPECT_EQ(a.traps, b.traps) << key;
            EXPECT_EQ(a.mrets, b.mrets) << key;
            EXPECT_EQ(a.wfiCycles, b.wfiCycles) << key;
            EXPECT_EQ(a.memOps, b.memOps) << key;
            EXPECT_EQ(a.stallCycles, b.stallCycles) << key;
            EXPECT_EQ(a.branchMispredicts, b.branchMispredicts) << key;
            EXPECT_EQ(a.cacheMisses, b.cacheMisses) << key;
            // The split between the two fetch paths differs by
            // design; the total is the same instruction stream.
            EXPECT_EQ(a.fetchPredecoded + a.fetchSlowPath,
                      b.fetchPredecoded + b.fetchSlowPath)
                << key;
            // No kernel workload jumps out of text: with the image
            // on, every fetch is pre-decoded.
            EXPECT_EQ(a.fetchSlowPath, 0u) << key;
            EXPECT_EQ(b.fetchPredecoded, 0u) << key;

            EXPECT_TRUE(on.run.switchLatency.samples() ==
                        off.run.switchLatency.samples())
                << key << ": switch-latency samples differ";
            EXPECT_TRUE(on.run.episodeLatency.samples() ==
                        off.run.episodeLatency.samples())
                << key << ": episode-latency samples differ";
            EXPECT_TRUE(on.trace == off.trace)
                << key << ": episode trace JSONL differs ("
                << on.trace.size() << " vs " << off.trace.size()
                << " bytes)";
        }
    }
    EXPECT_EQ(idx, 105u);  // 15 configurations x 7 workloads
}

} // namespace
} // namespace rtu
