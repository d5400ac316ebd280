/**
 * @file
 * The functional executor: the golden architectural model that applies
 * instruction semantics. Core timing models decide *when* to call it;
 * the executor decides *what* happens.
 */

#ifndef RTU_CORES_EXECUTOR_HH
#define RTU_CORES_EXECUTOR_HH

#include "arch_state.hh"
#include "asm/insn.hh"
#include "common/types.hh"
#include "rtosunit_port.hh"
#include "sim/irq.hh"
#include "sim/mem.hh"

namespace rtu {

/** Outcome of executing one instruction (consumed by timing models). */
struct ExecResult
{
    Addr nextPc = 0;
    bool branchTaken = false;  ///< conditional branch taken
    bool memAccess = false;
    bool memIsStore = false;
    Addr memAddr = 0;
    bool isMret = false;
    bool isWfi = false;
    bool trap = false;         ///< synchronous trap raised (ecall)
    Word trapCause = 0;
};

class Executor
{
  public:
    Executor(ArchState &state, MemSystem &mem, IrqLines &irq)
        : state_(state), mem_(mem), irq_(irq)
    {}

    /** Attach the RTOSUnit. A custom op is an illegal instruction
     *  with no unit, or when the unit does not implement it. */
    void setUnit(RtosUnitPort *unit) { unit_ = unit; }
    RtosUnitPort *unit() const { return unit_; }

    /** Clock source for the mcycle CSR. */
    void setClock(const Cycle *now) { now_ = now; }

    /**
     * Apply the semantics of @p insn located at @p pc. Stall conditions
     * (SWITCH_RF / GET_HW_SCHED / mret) must already be resolved by
     * the caller. Dispatch is one switch over Op: the ALU, upper,
     * jump and branch ops every busy loop runs are applied inline;
     * memory, mul/div, CSR, system and custom ops call their
     * out-of-line family function. Forced inline: the callers are the
     * cores' per-instruction loops.
     */
    [[gnu::always_inline]] ExecResult
    execute(const DecodedInsn &insn, Addr pc)
    {
        ExecResult res;
        res.nextPc = pc + 4;
        ArchState &s = state_;
        const Word imm = static_cast<Word>(insn.imm);
        switch (insn.op) {
          case Op::kLui:
          case Op::kAuipc:
          case Op::kAddi:
          case Op::kSlti:
          case Op::kSltiu:
          case Op::kXori:
          case Op::kOri:
          case Op::kAndi:
          case Op::kSlli:
          case Op::kSrli:
          case Op::kSrai:
          case Op::kAdd:
          case Op::kSub:
          case Op::kSll:
          case Op::kSlt:
          case Op::kSltu:
          case Op::kXor:
          case Op::kSrl:
          case Op::kSra:
          case Op::kOr:
          case Op::kAnd:
            s.setReg(insn.rd,
                     aluResult(insn, s.reg(insn.rs1), s.reg(insn.rs2), pc));
            break;
          case Op::kJal:
            s.setReg(insn.rd, pc + 4);
            res.nextPc = pc + imm;
            break;
          case Op::kJalr: {
            const Word rs1 = s.reg(insn.rs1);
            s.setReg(insn.rd, pc + 4);
            res.nextPc = (rs1 + imm) & ~Word{1};
            break;
          }
          case Op::kBeq:
          case Op::kBne:
          case Op::kBlt:
          case Op::kBge:
          case Op::kBltu:
          case Op::kBgeu:
            if (evalBranch(insn.op, s.reg(insn.rs1), s.reg(insn.rs2))) {
                res.branchTaken = true;
                res.nextPc = pc + imm;
            }
            break;
          case Op::kLb:
          case Op::kLh:
          case Op::kLw:
          case Op::kLbu:
          case Op::kLhu:
            execLoad(insn, res);
            break;
          case Op::kSb:
          case Op::kSh:
          case Op::kSw:
            execStore(insn, res);
            break;
          case Op::kFence:
          case Op::kEcall:
          case Op::kEbreak:
          case Op::kMret:
          case Op::kWfi:
            execSystem(insn, pc, res);
            break;
          case Op::kCsrrw:
          case Op::kCsrrs:
          case Op::kCsrrc:
          case Op::kCsrrwi:
          case Op::kCsrrsi:
          case Op::kCsrrci:
            execCsr(insn);
            break;
          case Op::kMul:
          case Op::kMulh:
          case Op::kMulhsu:
          case Op::kMulhu:
          case Op::kDiv:
          case Op::kDivu:
          case Op::kRem:
          case Op::kRemu:
            execMulDiv(insn);
            break;
          case Op::kSetContextId:
          case Op::kGetHwSched:
          case Op::kAddReady:
          case Op::kAddDelay:
          case Op::kRmTask:
          case Op::kSwitchRf:
          case Op::kSemTake:
          case Op::kSemGive:
            execCustom(insn, pc);
            break;
          default:
            execInvalid(insn, pc);
        }
        return res;
    }

    /**
     * Take a trap: save pc into mepc, update mstatus/mcause, redirect
     * to mtvec, and notify the RTOSUnit (interrupt entries only).
     */
    void takeTrap(Word cause, Addr epc);

    Word readCsr(std::uint16_t addr) const;
    void writeCsr(std::uint16_t addr, Word value);

    /** Machine-level interrupts both pending and enabled. */
    Word
    pendingEnabledIrqs() const
    {
        return irq_.pending() & state_.csrs.mie;
    }

    /** True if an interrupt should be taken (MIE set + pending). */
    bool
    interruptReady() const
    {
        return (state_.csrs.mstatus & mstatus::kMie) &&
               pendingEnabledIrqs() != 0;
    }

    /**
     * Highest-priority pending interrupt cause (external > software >
     * timer, the RISC-V privileged order MEI > MSI > MTI).
     */
    Word pendingCause() const;

    /**
     * Conditional-branch direction for operand values @p rs1 / @p rs2.
     * The single source of branch semantics: execute() resolves taken
     * branches through it, and the cores' block fast paths use it to
     * pre-compute a branch target without executing the instruction.
     */
    static bool
    evalBranch(Op op, Word rs1, Word rs2)
    {
        switch (op) {
          case Op::kBeq: return rs1 == rs2;
          case Op::kBne: return rs1 != rs2;
          case Op::kBlt:
            return static_cast<SWord>(rs1) < static_cast<SWord>(rs2);
          case Op::kBge:
            return static_cast<SWord>(rs1) >= static_cast<SWord>(rs2);
          case Op::kBltu: return rs1 < rs2;
          default: return rs1 >= rs2;  // kBgeu
        }
    }

    /**
     * Result of the integer ALU or upper-immediate op @p insn at @p pc
     * for operand values @p rs1 / @p rs2 (rs2 is read by the
     * register-register ops only). The single source of ALU semantics:
     * execute() writes it to rd, and the cores' steady-loop replay
     * evaluates it on a local register file.
     */
    [[gnu::always_inline]] static Word
    aluResult(const DecodedInsn &insn, Word rs1, Word rs2, Addr pc)
    {
        const Word imm = static_cast<Word>(insn.imm);
        switch (insn.op) {
          case Op::kLui: return imm << 12;
          case Op::kAuipc: return pc + (imm << 12);
          case Op::kAddi: return rs1 + imm;
          case Op::kSlti:
            return static_cast<SWord>(rs1) < insn.imm ? 1 : 0;
          case Op::kSltiu: return rs1 < imm ? 1 : 0;
          case Op::kXori: return rs1 ^ imm;
          case Op::kOri: return rs1 | imm;
          case Op::kAndi: return rs1 & imm;
          case Op::kSlli: return rs1 << (imm & 31);
          case Op::kSrli: return rs1 >> (imm & 31);
          case Op::kSrai:
            return static_cast<Word>(static_cast<SWord>(rs1) >> (imm & 31));
          case Op::kAdd: return rs1 + rs2;
          case Op::kSub: return rs1 - rs2;
          case Op::kSll: return rs1 << (rs2 & 31);
          case Op::kSlt:
            return static_cast<SWord>(rs1) < static_cast<SWord>(rs2) ? 1 : 0;
          case Op::kSltu: return rs1 < rs2 ? 1 : 0;
          case Op::kXor: return rs1 ^ rs2;
          case Op::kSrl: return rs1 >> (rs2 & 31);
          case Op::kSra:
            return static_cast<Word>(static_cast<SWord>(rs1) >> (rs2 & 31));
          case Op::kOr: return rs1 | rs2;
          default: return rs1 & rs2;  // kAnd
        }
    }

  private:
    // Out-of-line op families: execute() inlines everything else.
    void execLoad(const DecodedInsn &insn, ExecResult &res);
    void execStore(const DecodedInsn &insn, ExecResult &res);
    void execMulDiv(const DecodedInsn &insn);
    void execSystem(const DecodedInsn &insn, Addr pc, ExecResult &res);
    void execCsr(const DecodedInsn &insn);
    void execCustom(const DecodedInsn &insn, Addr pc);
    [[noreturn]] void execInvalid(const DecodedInsn &insn, Addr pc);

    ArchState &state_;
    MemSystem &mem_;
    IrqLines &irq_;
    RtosUnitPort *unit_ = nullptr;
    const Cycle *now_ = nullptr;
};

} // namespace rtu

#endif // RTU_CORES_EXECUTOR_HH
