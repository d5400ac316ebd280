#include "insn.hh"

#include "common/logging.hh"

namespace rtu {

const char *
regName(RegIndex reg)
{
    static const char *names[32] = {
        "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
        "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
        "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
        "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
    };
    rtu_assert(reg < 32, "register index %u out of range", reg);
    return names[reg];
}

const char *
opName(Op op)
{
    switch (op) {
      case Op::kLui: return "lui";
      case Op::kAuipc: return "auipc";
      case Op::kJal: return "jal";
      case Op::kJalr: return "jalr";
      case Op::kBeq: return "beq";
      case Op::kBne: return "bne";
      case Op::kBlt: return "blt";
      case Op::kBge: return "bge";
      case Op::kBltu: return "bltu";
      case Op::kBgeu: return "bgeu";
      case Op::kLb: return "lb";
      case Op::kLh: return "lh";
      case Op::kLw: return "lw";
      case Op::kLbu: return "lbu";
      case Op::kLhu: return "lhu";
      case Op::kSb: return "sb";
      case Op::kSh: return "sh";
      case Op::kSw: return "sw";
      case Op::kAddi: return "addi";
      case Op::kSlti: return "slti";
      case Op::kSltiu: return "sltiu";
      case Op::kXori: return "xori";
      case Op::kOri: return "ori";
      case Op::kAndi: return "andi";
      case Op::kSlli: return "slli";
      case Op::kSrli: return "srli";
      case Op::kSrai: return "srai";
      case Op::kAdd: return "add";
      case Op::kSub: return "sub";
      case Op::kSll: return "sll";
      case Op::kSlt: return "slt";
      case Op::kSltu: return "sltu";
      case Op::kXor: return "xor";
      case Op::kSrl: return "srl";
      case Op::kSra: return "sra";
      case Op::kOr: return "or";
      case Op::kAnd: return "and";
      case Op::kFence: return "fence";
      case Op::kEcall: return "ecall";
      case Op::kEbreak: return "ebreak";
      case Op::kMret: return "mret";
      case Op::kWfi: return "wfi";
      case Op::kCsrrw: return "csrrw";
      case Op::kCsrrs: return "csrrs";
      case Op::kCsrrc: return "csrrc";
      case Op::kCsrrwi: return "csrrwi";
      case Op::kCsrrsi: return "csrrsi";
      case Op::kCsrrci: return "csrrci";
      case Op::kMul: return "mul";
      case Op::kMulh: return "mulh";
      case Op::kMulhsu: return "mulhsu";
      case Op::kMulhu: return "mulhu";
      case Op::kDiv: return "div";
      case Op::kDivu: return "divu";
      case Op::kRem: return "rem";
      case Op::kRemu: return "remu";
      case Op::kSetContextId: return "rtu.setctx";
      case Op::kGetHwSched: return "rtu.getsched";
      case Op::kAddReady: return "rtu.addready";
      case Op::kAddDelay: return "rtu.adddelay";
      case Op::kRmTask: return "rtu.rmtask";
      case Op::kSwitchRf: return "rtu.switchrf";
      case Op::kSemTake: return "rtu.semtake";
      case Op::kSemGive: return "rtu.semgive";
      case Op::kInvalid: return "<invalid>";
    }
    return "<unknown>";
}

InsnClass
classOf(Op op)
{
    switch (op) {
      case Op::kJal:
      case Op::kJalr:
        return InsnClass::kJump;
      case Op::kBeq: case Op::kBne: case Op::kBlt:
      case Op::kBge: case Op::kBltu: case Op::kBgeu:
        return InsnClass::kBranch;
      case Op::kLb: case Op::kLh: case Op::kLw:
      case Op::kLbu: case Op::kLhu:
        return InsnClass::kLoad;
      case Op::kSb: case Op::kSh: case Op::kSw:
        return InsnClass::kStore;
      case Op::kMul: case Op::kMulh: case Op::kMulhsu: case Op::kMulhu:
        return InsnClass::kMul;
      case Op::kDiv: case Op::kDivu: case Op::kRem: case Op::kRemu:
        return InsnClass::kDiv;
      case Op::kCsrrw: case Op::kCsrrs: case Op::kCsrrc:
      case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci:
        return InsnClass::kCsr;
      case Op::kFence: case Op::kEcall: case Op::kEbreak:
      case Op::kMret: case Op::kWfi:
        return InsnClass::kSystem;
      case Op::kSetContextId: case Op::kGetHwSched: case Op::kAddReady:
      case Op::kAddDelay: case Op::kRmTask: case Op::kSwitchRf:
      case Op::kSemTake: case Op::kSemGive:
        return InsnClass::kCustom;
      default:
        return InsnClass::kAlu;
    }
}

bool
readsRs1(Op op)
{
    switch (op) {
      case Op::kLui: case Op::kAuipc: case Op::kJal:
      case Op::kFence: case Op::kEcall: case Op::kEbreak:
      case Op::kMret: case Op::kWfi:
      case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci:
      case Op::kGetHwSched: case Op::kSwitchRf:
      case Op::kInvalid:
        return false;
      default:
        return true;
    }
}

bool
readsRs2(Op op)
{
    switch (op) {
      case Op::kBeq: case Op::kBne: case Op::kBlt:
      case Op::kBge: case Op::kBltu: case Op::kBgeu:
      case Op::kSb: case Op::kSh: case Op::kSw:
      case Op::kAdd: case Op::kSub: case Op::kSll: case Op::kSlt:
      case Op::kSltu: case Op::kXor: case Op::kSrl: case Op::kSra:
      case Op::kOr: case Op::kAnd:
      case Op::kMul: case Op::kMulh: case Op::kMulhsu: case Op::kMulhu:
      case Op::kDiv: case Op::kDivu: case Op::kRem: case Op::kRemu:
      case Op::kAddReady: case Op::kAddDelay:
        return true;
      default:
        return false;
    }
}

bool
writesRd(Op op)
{
    switch (op) {
      case Op::kBeq: case Op::kBne: case Op::kBlt:
      case Op::kBge: case Op::kBltu: case Op::kBgeu:
      case Op::kSb: case Op::kSh: case Op::kSw:
      case Op::kFence: case Op::kEcall: case Op::kEbreak:
      case Op::kMret: case Op::kWfi:
      case Op::kSetContextId: case Op::kAddReady: case Op::kAddDelay:
      case Op::kRmTask: case Op::kSwitchRf:
      case Op::kInvalid:
        return false;
      default:
        return true;
    }
}

} // namespace rtu
