/**
 * @file
 * RV32IM + Zicsr + RTOSUnit custom-0 instruction set definition.
 *
 * The same definition backs the assembler (encode), the cores
 * (decode + execute), the disassembler (traces) and the WCET analyzer
 * (instruction classification).
 */

#ifndef RTU_ASM_INSN_HH
#define RTU_ASM_INSN_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace rtu {

/** Architectural register names (RISC-V ABI). */
enum Reg : RegIndex {
    Zero = 0,
    RA = 1,
    SP = 2,
    GP = 3,
    TP = 4,
    T0 = 5, T1 = 6, T2 = 7,
    S0 = 8, S1 = 9,
    A0 = 10, A1 = 11, A2 = 12, A3 = 13,
    A4 = 14, A5 = 15, A6 = 16, A7 = 17,
    S2 = 18, S3 = 19, S4 = 20, S5 = 21, S6 = 22,
    S7 = 23, S8 = 24, S9 = 25, S10 = 26, S11 = 27,
    T3 = 28, T4 = 29, T5 = 30, T6 = 31,
};

/** ABI register name, e.g. "a0". */
const char *regName(RegIndex reg);

/** Every instruction the simulator understands. */
enum class Op : std::uint8_t {
    // RV32I
    kLui, kAuipc, kJal, kJalr,
    kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
    kLb, kLh, kLw, kLbu, kLhu,
    kSb, kSh, kSw,
    kAddi, kSlti, kSltiu, kXori, kOri, kAndi,
    kSlli, kSrli, kSrai,
    kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
    kFence, kEcall, kEbreak, kMret, kWfi,
    // Zicsr
    kCsrrw, kCsrrs, kCsrrc, kCsrrwi, kCsrrsi, kCsrrci,
    // RV32M
    kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
    // RTOSUnit custom-0 instructions (Table 1 of the paper)
    kSetContextId,  ///< latch next task id for the store/restore FSMs
    kGetHwSched,    ///< pop head of hardware ready list (rd = task id)
    kAddReady,      ///< insert task (rs1 = id) with priority (rs2)
    kAddDelay,      ///< delay running task: rs1 = priority, rs2 = ticks
    kRmTask,        ///< remove task (rs1 = id) from hardware lists
    kSwitchRf,      ///< switch core back to the application register file
    // Hardware synchronization extension (the paper's future work,
    // Section 7): counting semaphores managed by the RTOSUnit.
    kSemTake,       ///< rs1 = sem id; rd = 1 acquired, 0 blocked
    kSemGive,       ///< rs1 = sem id; rd = 1 if a preempting task woke
    kInvalid,
};

/** Coarse classes used by timing models and the WCET analyzer. */
enum class InsnClass : std::uint8_t {
    kAlu,      ///< integer ALU, LUI/AUIPC
    kMul,
    kDiv,
    kLoad,
    kStore,
    kBranch,   ///< conditional branch
    kJump,     ///< JAL / JALR
    kCsr,
    kSystem,   ///< ECALL/EBREAK/MRET/WFI/FENCE
    kCustom,   ///< RTOSUnit custom instruction
};

/** One decoded instruction. Immediates are already sign-extended. */
struct DecodedInsn
{
    Op op = Op::kInvalid;
    RegIndex rd = 0;
    RegIndex rs1 = 0;
    RegIndex rs2 = 0;
    SWord imm = 0;        ///< sign-extended immediate (branch/jump offsets)
    std::uint16_t csr = 0; ///< CSR address for Zicsr ops
    Word raw = 0;          ///< original encoding

    /** Pre-decoded control fields, filled by decode(). Pure functions
     *  of op (classOf/readsRs1/readsRs2/writesRd) stored in the
     *  decoded form so the timing models read a field instead of
     *  re-running the classification switches on every fetch. */
    InsnClass cls = InsnClass::kAlu;  ///< classOf(kInvalid)
    bool useRs1 = false;
    bool useRs2 = false;
    bool hasRd = false;

    bool valid() const { return op != Op::kInvalid; }
};

/** Mnemonic, e.g. "addi". */
const char *opName(Op op);

/** Timing class of an opcode. */
InsnClass classOf(Op op);

/** True if the opcode reads rs1 / rs2 / writes rd. */
bool readsRs1(Op op);
bool readsRs2(Op op);
bool writesRd(Op op);

/** Well-known CSR addresses (Zicsr machine mode subset). */
namespace csr {
constexpr std::uint16_t kMstatus = 0x300;
constexpr std::uint16_t kMie = 0x304;
constexpr std::uint16_t kMtvec = 0x305;
constexpr std::uint16_t kMscratch = 0x340;
constexpr std::uint16_t kMepc = 0x341;
constexpr std::uint16_t kMcause = 0x342;
constexpr std::uint16_t kMtval = 0x343;
constexpr std::uint16_t kMip = 0x344;
constexpr std::uint16_t kMcycle = 0xB00;
constexpr std::uint16_t kMcycleh = 0xB80;
constexpr std::uint16_t kMhartid = 0xF14;
} // namespace csr

/** mstatus bit positions. */
namespace mstatus {
constexpr Word kMie = 1u << 3;
constexpr Word kMpie = 1u << 7;
constexpr Word kMppMask = 3u << 11;
} // namespace mstatus

/** mip/mie bit positions (machine-level). */
namespace irq {
constexpr Word kMsi = 1u << 3;   ///< machine software interrupt
constexpr Word kMti = 1u << 7;   ///< machine timer interrupt
constexpr Word kMei = 1u << 11;  ///< machine external interrupt
} // namespace irq

/** mcause values for interrupts (bit 31 set). */
namespace mcause {
constexpr Word kInterruptBit = 1u << 31;
constexpr Word kMachineSoftware = kInterruptBit | 3;
constexpr Word kMachineTimer = kInterruptBit | 7;
constexpr Word kMachineExternal = kInterruptBit | 11;
constexpr Word kEcallM = 11;  ///< synchronous: environment call from M
constexpr Word kBreakpoint = 3;
constexpr Word kIllegalInsn = 2;
} // namespace mcause

} // namespace rtu

#endif // RTU_ASM_INSN_HH
