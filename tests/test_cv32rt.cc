/** Tests for the CV32RT comparison baseline unit (Balas et al.). */

#include <gtest/gtest.h>

#include "cores/cache.hh"
#include "rtosunit/cv32rt.hh"
#include "sim/mem.hh"
#include "sim/memmap.hh"

namespace rtu {
namespace {

class Cv32rtTest : public ::testing::Test
{
  protected:
    Cv32rtTest()
    {
        mem.addDevice(&dmem);
        unit = std::make_unique<Cv32rtUnit>(state, mem);
        // A plausible interrupted stack pointer inside DMEM.
        sp = memmap::kDmemBase + 0x8000;
        state.setBankReg(ArchState::kAppBank, 2, sp);
    }

    void
    run(unsigned cycles)
    {
        for (unsigned i = 0; i < cycles; ++i)
            unit->tick(now++);
    }

    ArchState state;
    MemSystem mem;
    Sram dmem{"dmem", memmap::kDmemBase, memmap::kDmemSize};
    std::unique_ptr<Cv32rtUnit> unit;
    Addr sp = 0;
    Cycle now = 0;
};

TEST_F(Cv32rtTest, SnapshotsUpperHalfAtEntry)
{
    for (RegIndex r = 16; r < 32; ++r)
        state.setBankReg(ArchState::kAppBank, r, 0x900 + r);
    unit->onTrapEntry(mcause::kMachineTimer);
    EXPECT_TRUE(unit->drainBusy());
    // ISR may clobber the registers immediately; the snapshot must
    // still drain the pre-trap values.
    for (RegIndex r = 16; r < 32; ++r)
        state.setBankReg(ArchState::kAppBank, r, 0xDEAD);
    run(Cv32rtUnit::kSnapWords);
    EXPECT_FALSE(unit->drainBusy());

    const Addr base = sp - Cv32rtUnit::kFrameBytes +
                      Cv32rtUnit::kHwSlotOffset;
    for (unsigned i = 0; i < Cv32rtUnit::kSnapWords; ++i)
        EXPECT_EQ(mem.read32(base + 4 * i), 0x900u + 16 + i) << i;
    EXPECT_EQ(unit->stats().snapshots, 1u);
    EXPECT_EQ(unit->stats().drainedWords, Cv32rtUnit::kSnapWords);
}

TEST_F(Cv32rtTest, DrainUsesOneWordPerCycleOnDedicatedPort)
{
    unit->onTrapEntry(mcause::kMachineTimer);
    run(Cv32rtUnit::kSnapWords - 1);
    EXPECT_TRUE(unit->drainBusy());
    run(1);
    EXPECT_FALSE(unit->drainBusy());
}

TEST_F(Cv32rtTest, BarrierStallsUntilDrainComplete)
{
    unit->onTrapEntry(mcause::kMachineTimer);
    EXPECT_TRUE(unit->stalls(Op::kSwitchRf));
    run(Cv32rtUnit::kSnapWords);
    EXPECT_FALSE(unit->stalls(Op::kSwitchRf));
    EXPECT_GT(unit->stats().barrierStallCycles, 0u);
}

TEST_F(Cv32rtTest, NoMretStallEver)
{
    unit->onTrapEntry(mcause::kMachineTimer);
    EXPECT_FALSE(unit->stalls(Op::kMret));
}

TEST_F(Cv32rtTest, CacheHookInvalidatesDrainedLines)
{
    CacheModel cache({1024, 2, 16, true});
    Cv32rtUnit hooked(state, mem, &cache);
    // Warm the lines covering the drain area.
    const Addr base = sp - Cv32rtUnit::kFrameBytes +
                      Cv32rtUnit::kHwSlotOffset;
    for (Addr a = base; a < base + 64; a += 16)
        cache.access(a, false);
    const auto before = cache.stats().invalidations;
    hooked.onTrapEntry(mcause::kMachineTimer);
    for (unsigned i = 0; i < Cv32rtUnit::kSnapWords + 2; ++i)
        hooked.tick(now++);
    EXPECT_GT(cache.stats().invalidations, before);
}

} // namespace
} // namespace rtu
