/** Functional executor tests: semantics of every instruction class,
 *  CSRs, traps and register-file banking. */

#include <gtest/gtest.h>

#include <type_traits>

#include "asm/encode.hh"
#include "cores/executor.hh"
#include "sim/memmap.hh"

namespace rtu {
namespace {

class ExecutorTest : public ::testing::Test
{
  protected:
    ExecutorTest() : exec(state, mem, irq)
    {
        mem.addDevice(&dmem);
        state.setPc(0x0);
    }

    ExecResult
    run(Op op, RegIndex rd, RegIndex rs1, RegIndex rs2, SWord imm,
        std::uint16_t csr_addr = 0)
    {
        const DecodedInsn d =
            decodeLike(op, rd, rs1, rs2, imm, csr_addr);
        return exec.execute(d, state.pc());
    }

    static DecodedInsn
    decodeLike(Op op, RegIndex rd, RegIndex rs1, RegIndex rs2, SWord imm,
               std::uint16_t csr_addr)
    {
        DecodedInsn d;
        d.op = op;
        d.rd = rd;
        d.rs1 = rs1;
        d.rs2 = rs2;
        d.imm = imm;
        d.csr = csr_addr;
        return d;
    }

    ArchState state;
    MemSystem mem;
    IrqLines irq;
    Sram dmem{"dmem", memmap::kDmemBase, 0x1000};
    Executor exec;
};

TEST_F(ExecutorTest, AluArithmetic)
{
    state.setReg(A1, 20);
    state.setReg(A2, 22);
    run(Op::kAdd, A0, A1, A2, 0);
    EXPECT_EQ(state.reg(A0), 42u);
    run(Op::kSub, A0, A1, A2, 0);
    EXPECT_EQ(state.reg(A0), static_cast<Word>(-2));
    run(Op::kXor, A0, A1, A2, 0);
    EXPECT_EQ(state.reg(A0), 20u ^ 22u);
}

TEST_F(ExecutorTest, X0IsAlwaysZero)
{
    run(Op::kAddi, Zero, Zero, 0, 99);
    EXPECT_EQ(state.reg(Zero), 0u);
}

TEST_F(ExecutorTest, ShiftsAndComparisons)
{
    state.setReg(A1, 0x80000000);
    run(Op::kSrai, A0, A1, 0, 4);
    EXPECT_EQ(state.reg(A0), 0xF8000000u);
    run(Op::kSrli, A0, A1, 0, 4);
    EXPECT_EQ(state.reg(A0), 0x08000000u);
    state.setReg(A2, 1);
    run(Op::kSlt, A0, A1, A2, 0);  // INT_MIN < 1 signed
    EXPECT_EQ(state.reg(A0), 1u);
    run(Op::kSltu, A0, A1, A2, 0);  // 0x80000000 > 1 unsigned
    EXPECT_EQ(state.reg(A0), 0u);
}

TEST_F(ExecutorTest, MulDivCornerCases)
{
    state.setReg(A1, 0x80000000);  // INT_MIN
    state.setReg(A2, static_cast<Word>(-1));
    run(Op::kDiv, A0, A1, A2, 0);
    EXPECT_EQ(state.reg(A0), 0x80000000u);  // overflow -> INT_MIN
    run(Op::kRem, A0, A1, A2, 0);
    EXPECT_EQ(state.reg(A0), 0u);

    state.setReg(A2, 0);
    run(Op::kDiv, A0, A1, A2, 0);
    EXPECT_EQ(state.reg(A0), 0xFFFFFFFFu);  // div by zero -> -1
    run(Op::kRem, A0, A1, A2, 0);
    EXPECT_EQ(state.reg(A0), 0x80000000u);  // rem by zero -> rs1

    state.setReg(A1, 7);
    state.setReg(A2, 3);
    run(Op::kMulh, A0, A1, A2, 0);
    EXPECT_EQ(state.reg(A0), 0u);
    state.setReg(A1, 0xFFFFFFFF);
    state.setReg(A2, 0xFFFFFFFF);
    run(Op::kMulhu, A0, A1, A2, 0);
    EXPECT_EQ(state.reg(A0), 0xFFFFFFFEu);
}

TEST_F(ExecutorTest, LoadStoreWithSignExtension)
{
    state.setReg(A1, memmap::kDmemBase);
    state.setReg(A2, 0xFFFF8081);
    run(Op::kSw, 0, A1, A2, 0);
    run(Op::kLb, A0, A1, 0, 0);
    EXPECT_EQ(state.reg(A0), 0xFFFFFF81u);
    run(Op::kLbu, A0, A1, 0, 0);
    EXPECT_EQ(state.reg(A0), 0x81u);
    run(Op::kLh, A0, A1, 0, 0);
    EXPECT_EQ(state.reg(A0), 0xFFFF8081u);
    run(Op::kLhu, A0, A1, 0, 0);
    EXPECT_EQ(state.reg(A0), 0x8081u);
}

TEST_F(ExecutorTest, BranchesComputeTakenAndTarget)
{
    state.setReg(A1, 5);
    state.setReg(A2, 5);
    ExecResult r = run(Op::kBeq, 0, A1, A2, -8);
    EXPECT_TRUE(r.branchTaken);
    EXPECT_EQ(r.nextPc, state.pc() - 8);
    r = run(Op::kBne, 0, A1, A2, -8);
    EXPECT_FALSE(r.branchTaken);
    EXPECT_EQ(r.nextPc, state.pc() + 4);
    r = run(Op::kBltu, 0, Zero, A1, 16);
    EXPECT_TRUE(r.branchTaken);
}

TEST_F(ExecutorTest, JalLinksAndJumps)
{
    state.setPc(0x100);
    ExecResult r = run(Op::kJal, RA, 0, 0, 0x40);
    EXPECT_EQ(state.reg(RA), 0x104u);
    EXPECT_EQ(r.nextPc, 0x140u);

    state.setReg(A1, 0x203);
    r = run(Op::kJalr, RA, A1, 0, 1);
    EXPECT_EQ(r.nextPc, 0x204u);  // low bit cleared
}

TEST_F(ExecutorTest, CsrReadWriteAndSetClear)
{
    run(Op::kCsrrw, A0, Zero, 0, 0, csr::kMscratch);
    state.setReg(A1, 0xABCD);
    run(Op::kCsrrw, A0, A1, 0, 0, csr::kMscratch);
    EXPECT_EQ(state.csrs.mscratch, 0xABCDu);
    run(Op::kCsrrsi, A0, Zero, 0, 0x2, csr::kMscratch);
    EXPECT_EQ(state.reg(A0), 0xABCDu);
    EXPECT_EQ(state.csrs.mscratch, 0xABCFu);
    run(Op::kCsrrci, A0, Zero, 0, 0xF, csr::kMscratch);
    EXPECT_EQ(state.csrs.mscratch, 0xABC0u);
}

TEST_F(ExecutorTest, MstatusWriteMasksToImplementedBits)
{
    state.setReg(A1, 0xFFFFFFFF);
    run(Op::kCsrrw, Zero, A1, 0, 0, csr::kMstatus);
    EXPECT_EQ(state.csrs.mstatus,
              mstatus::kMie | mstatus::kMpie | mstatus::kMppMask);
}

TEST_F(ExecutorTest, TrapEntryAndMretRoundTrip)
{
    state.csrs.mtvec = 0x80;
    state.csrs.mstatus = mstatus::kMie;
    exec.takeTrap(mcause::kMachineTimer, 0x1234);
    EXPECT_EQ(state.pc(), 0x80u);
    EXPECT_EQ(state.csrs.mepc, 0x1234u);
    EXPECT_EQ(state.csrs.mcause, mcause::kMachineTimer);
    EXPECT_EQ(state.csrs.mstatus & mstatus::kMie, 0u);
    EXPECT_NE(state.csrs.mstatus & mstatus::kMpie, 0u);

    const ExecResult r = run(Op::kMret, 0, 0, 0, 0);
    EXPECT_TRUE(r.isMret);
    EXPECT_EQ(r.nextPc, 0x1234u);
    EXPECT_NE(state.csrs.mstatus & mstatus::kMie, 0u);
}

TEST_F(ExecutorTest, InterruptPriorityOrder)
{
    state.csrs.mie = irq::kMsi | irq::kMti | irq::kMei;
    state.csrs.mstatus = mstatus::kMie;
    irq.raise(irq::kMti, 0);
    EXPECT_EQ(exec.pendingCause(), mcause::kMachineTimer);
    irq.raise(irq::kMsi, 0);
    EXPECT_EQ(exec.pendingCause(), mcause::kMachineSoftware);
    irq.raise(irq::kMei, 0);
    EXPECT_EQ(exec.pendingCause(), mcause::kMachineExternal);
}

TEST_F(ExecutorTest, InterruptGatedByMieAndMstatus)
{
    irq.raise(irq::kMti, 0);
    EXPECT_FALSE(exec.interruptReady());
    state.csrs.mie = irq::kMti;
    EXPECT_FALSE(exec.interruptReady());
    state.csrs.mstatus = mstatus::kMie;
    EXPECT_TRUE(exec.interruptReady());
}

TEST_F(ExecutorTest, EcallRaisesSynchronousTrap)
{
    const ExecResult r = run(Op::kEcall, 0, 0, 0, 0);
    EXPECT_TRUE(r.trap);
    EXPECT_EQ(r.trapCause, mcause::kEcallM);
}

TEST_F(ExecutorTest, RegisterBankIsolation)
{
    state.setReg(A0, 111);
    state.setActiveBank(ArchState::kIsrBank);
    EXPECT_EQ(state.reg(A0), 0u);
    state.setReg(A0, 222);
    state.setActiveBank(ArchState::kAppBank);
    EXPECT_EQ(state.reg(A0), 111u);
    EXPECT_EQ(state.bankReg(ArchState::kIsrBank, A0), 222u);
}

TEST_F(ExecutorTest, DirtyBitsTrackAppBankWritesOnly)
{
    state.clearDirtyBits();
    state.setReg(A0, 1);
    EXPECT_TRUE(state.regDirty(A0));
    EXPECT_FALSE(state.regDirty(A1));
    state.setActiveBank(ArchState::kIsrBank);
    state.setReg(A1, 2);
    EXPECT_FALSE(state.regDirty(A1));
    state.setActiveBank(ArchState::kAppBank);
    state.setBankReg(ArchState::kAppBank, A2, 3);  // FSM writes: clean
    EXPECT_FALSE(state.regDirty(A2));
}

// The active bank is reached through cached pointers, which a copy
// would carry over into the copy: ArchState must not be copyable.
static_assert(!std::is_copy_constructible_v<ArchState>);
static_assert(!std::is_copy_assignable_v<ArchState>);

TEST(ArchStateBanks, X0ReadsZeroInBothBanks)
{
    ArchState state;
    for (unsigned bank : {ArchState::kAppBank, ArchState::kIsrBank}) {
        state.setActiveBank(bank);
        state.setReg(0, 0xDEADBEEF);
        EXPECT_EQ(state.reg(0), 0u) << "bank " << bank;
        for (unsigned b : {ArchState::kAppBank, ArchState::kIsrBank}) {
            state.setBankReg(b, 0, 0xCAFEF00D);
            EXPECT_EQ(state.bankReg(b, 0), 0u) << "bank " << b;
        }
        EXPECT_EQ(state.reg(0), 0u) << "bank " << bank;
    }
    EXPECT_FALSE(state.regDirty(0));
}

TEST(ArchStateBanks, OnlyAppBankWritesSetDirtyBitsAcrossToggles)
{
    ArchState state;
    for (int round = 0; round < 3; ++round) {
        state.clearDirtyBits();
        // Every ISR-bank write goes to the sink, however often the
        // active bank flips.
        state.setActiveBank(ArchState::kIsrBank);
        for (unsigned r = 1; r < 32; ++r)
            state.setReg(static_cast<RegIndex>(r), r);
        state.setActiveBank(ArchState::kAppBank);
        state.setActiveBank(ArchState::kIsrBank);
        state.setReg(A3, 7);
        for (unsigned r = 0; r < 32; ++r) {
            EXPECT_FALSE(state.regDirty(static_cast<RegIndex>(r)))
                << "round " << round << " x" << r;
        }

        state.setActiveBank(ArchState::kAppBank);
        state.setReg(A0, 1);
        state.setActiveBank(ArchState::kIsrBank);
        state.setReg(A1, 2);
        state.setActiveBank(ArchState::kAppBank);
        state.setReg(T6, 3);
        for (unsigned r = 0; r < 32; ++r) {
            EXPECT_EQ(state.regDirty(static_cast<RegIndex>(r)),
                      r == A0 || r == T6)
                << "round " << round << " x" << r;
        }
        EXPECT_EQ(state.bankReg(ArchState::kAppBank, A0), 1u);
        EXPECT_EQ(state.bankReg(ArchState::kIsrBank, A1), 2u);
        EXPECT_EQ(state.bankReg(ArchState::kAppBank, A1), 0u);
    }

    // reset() returns to a clean application bank, dirty bits included.
    state.setActiveBank(ArchState::kIsrBank);
    state.reset();
    EXPECT_EQ(state.activeBank(), ArchState::kAppBank);
    for (unsigned r = 0; r < 32; ++r)
        EXPECT_FALSE(state.regDirty(static_cast<RegIndex>(r))) << "x" << r;
    state.setReg(A2, 5);
    EXPECT_TRUE(state.regDirty(A2));
    EXPECT_EQ(state.bankReg(ArchState::kAppBank, A2), 5u);
    EXPECT_EQ(state.bankReg(ArchState::kIsrBank, A2), 0u);
}

TEST_F(ExecutorTest, CustomInsnWithoutUnitIsIllegal)
{
    // A guest fault ends the run; it does not take down the host.
    EXPECT_THROW(run(Op::kSwitchRf, 0, 0, 0, 0), GuestFault);
}

TEST_F(ExecutorTest, CustomOpWritesRdOnlyForOpsWithAResult)
{
    // A unit that has every op and answers each with 7. Only
    // GET_HW_SCHED, SEM_TAKE and SEM_GIVE write rd, whatever the rd
    // field of the other ops holds (a bit flip may set it).
    struct AnswerUnit : RtosUnitPort
    {
        bool implements(Op) const override { return true; }
        Word execute(Op, Word, Word) override { return 7; }
        bool stalls(Op) const override { return false; }
        void onTrapEntry(Word) override {}
        void onMretExecuted() override {}
    } unit;
    Executor withUnit(state, mem, irq);
    withUnit.setUnit(&unit);
    auto result = [&](Op op) {
        state.setReg(A0, 1);
        withUnit.execute(decodeLike(op, A0, A1, A2, 0, 0), state.pc());
        return state.reg(A0);
    };
    for (Op op : {Op::kSetContextId, Op::kAddReady, Op::kAddDelay,
                  Op::kRmTask, Op::kSwitchRf}) {
        EXPECT_EQ(result(op), 1u) << static_cast<int>(op);
    }
    for (Op op : {Op::kGetHwSched, Op::kSemTake, Op::kSemGive})
        EXPECT_EQ(result(op), 7u) << static_cast<int>(op);
}

} // namespace
} // namespace rtu
