#include "executor.hh"

#include "asm/disasm.hh"
#include "common/bitutil.hh"

namespace rtu {

namespace {

Word
mulh(SWord a, SWord b)
{
    const auto p = static_cast<std::int64_t>(a) * static_cast<std::int64_t>(b);
    return static_cast<Word>(static_cast<std::uint64_t>(p) >> 32);
}

Word
mulhsu(SWord a, Word b)
{
    const auto p = static_cast<std::int64_t>(a) *
                   static_cast<std::int64_t>(static_cast<std::uint64_t>(b));
    return static_cast<Word>(static_cast<std::uint64_t>(p) >> 32);
}

Word
mulhu(Word a, Word b)
{
    const auto p = static_cast<std::uint64_t>(a) * b;
    return static_cast<Word>(p >> 32);
}

} // namespace

Word
Executor::pendingCause() const
{
    const Word p = pendingEnabledIrqs();
    if (p & irq::kMei)
        return mcause::kMachineExternal;
    if (p & irq::kMsi)
        return mcause::kMachineSoftware;
    if (p & irq::kMti)
        return mcause::kMachineTimer;
    panic("pendingCause() with no pending interrupt");
}

Word
Executor::readCsr(std::uint16_t addr) const
{
    switch (addr) {
      case csr::kMstatus: return state_.csrs.mstatus;
      case csr::kMie: return state_.csrs.mie;
      case csr::kMtvec: return state_.csrs.mtvec;
      case csr::kMscratch: return state_.csrs.mscratch;
      case csr::kMepc: return state_.csrs.mepc;
      case csr::kMcause: return state_.csrs.mcause;
      case csr::kMtval: return state_.csrs.mtval;
      case csr::kMip: return irq_.pending();
      case csr::kMcycle:
        return now_ ? static_cast<Word>(*now_) : 0;
      case csr::kMcycleh:
        return now_ ? static_cast<Word>(*now_ >> 32) : 0;
      case csr::kMhartid: return 0;
      default:
        guest_fault("read of unimplemented CSR 0x%03x", addr);
    }
}

void
Executor::writeCsr(std::uint16_t addr, Word value)
{
    switch (addr) {
      case csr::kMstatus:
        // Only MIE/MPIE/MPP are writable in this machine-only model.
        state_.csrs.mstatus =
            value & (mstatus::kMie | mstatus::kMpie | mstatus::kMppMask);
        break;
      case csr::kMie:
        state_.csrs.mie = value & (irq::kMsi | irq::kMti | irq::kMei);
        break;
      case csr::kMtvec:
        state_.csrs.mtvec = value & ~Word{3};  // direct mode only
        break;
      case csr::kMscratch: state_.csrs.mscratch = value; break;
      case csr::kMepc: state_.csrs.mepc = value & ~Word{1}; break;
      case csr::kMcause: state_.csrs.mcause = value; break;
      case csr::kMtval: state_.csrs.mtval = value; break;
      case csr::kMip:
        // Interrupt pending bits are device-driven; writes are ignored.
        break;
      case csr::kMcycle:
      case csr::kMcycleh:
        break;  // read-only counter in this model
      default:
        guest_fault("write of unimplemented CSR 0x%03x", addr);
    }
}

void
Executor::takeTrap(Word cause, Addr epc)
{
    Csrs &c = state_.csrs;
    c.mepc = epc;
    c.mcause = cause;
    // MPIE <- MIE; MIE <- 0; MPP <- M.
    const bool mie = (c.mstatus & mstatus::kMie) != 0;
    c.mstatus &= ~(mstatus::kMie | mstatus::kMpie);
    if (mie)
        c.mstatus |= mstatus::kMpie;
    c.mstatus |= mstatus::kMppMask;
    state_.setPc(c.mtvec);
    if (unit_ && (cause & mcause::kInterruptBit))
        unit_->onTrapEntry(cause);
}

// ---- out-of-line op families -----------------------------------------------
//
// Executor::execute (inline in the header) applies the ALU, upper,
// jump and branch ops itself and calls one of these for the rest.

void
Executor::execLoad(const DecodedInsn &d, ExecResult &res)
{
    const Addr addr = state_.reg(d.rs1) + static_cast<Word>(d.imm);
    res.memAccess = true;
    res.memAddr = addr;
    Word v = 0;
    switch (d.op) {
      case Op::kLb:
        v = static_cast<Word>(sext(mem_.read(addr, MemSize::kByte), 8));
        break;
      case Op::kLh:
        v = static_cast<Word>(sext(mem_.read(addr, MemSize::kHalf), 16));
        break;
      case Op::kLw: v = mem_.read(addr, MemSize::kWord); break;
      case Op::kLbu: v = mem_.read(addr, MemSize::kByte); break;
      default: v = mem_.read(addr, MemSize::kHalf); break;  // kLhu
    }
    state_.setReg(d.rd, v);
}

void
Executor::execStore(const DecodedInsn &d, ExecResult &res)
{
    const Addr addr = state_.reg(d.rs1) + static_cast<Word>(d.imm);
    res.memAccess = true;
    res.memIsStore = true;
    res.memAddr = addr;
    const MemSize sz = d.op == Op::kSb   ? MemSize::kByte
                       : d.op == Op::kSh ? MemSize::kHalf
                                         : MemSize::kWord;
    mem_.write(addr, state_.reg(d.rs2), sz);
}

void
Executor::execMulDiv(const DecodedInsn &d)
{
    ArchState &s = state_;
    const Word rs1 = s.reg(d.rs1);
    const Word rs2 = s.reg(d.rs2);
    switch (d.op) {
      case Op::kMul: s.setReg(d.rd, rs1 * rs2); break;
      case Op::kMulh:
        s.setReg(d.rd,
                 mulh(static_cast<SWord>(rs1), static_cast<SWord>(rs2)));
        break;
      case Op::kMulhsu:
        s.setReg(d.rd, mulhsu(static_cast<SWord>(rs1), rs2));
        break;
      case Op::kMulhu: s.setReg(d.rd, mulhu(rs1, rs2)); break;
      case Op::kDiv:
        if (rs2 == 0) {
            s.setReg(d.rd, ~Word{0});
        } else if (rs1 == 0x8000'0000 && rs2 == ~Word{0}) {
            s.setReg(d.rd, 0x8000'0000);
        } else {
            s.setReg(d.rd,
                     static_cast<Word>(static_cast<SWord>(rs1) /
                                       static_cast<SWord>(rs2)));
        }
        break;
      case Op::kDivu:
        s.setReg(d.rd, rs2 == 0 ? ~Word{0} : rs1 / rs2);
        break;
      case Op::kRem:
        if (rs2 == 0) {
            s.setReg(d.rd, rs1);
        } else if (rs1 == 0x8000'0000 && rs2 == ~Word{0}) {
            s.setReg(d.rd, 0);
        } else {
            s.setReg(d.rd,
                     static_cast<Word>(static_cast<SWord>(rs1) %
                                       static_cast<SWord>(rs2)));
        }
        break;
      default:  // kRemu
        s.setReg(d.rd, rs2 == 0 ? rs1 : rs1 % rs2);
        break;
    }
}

void
Executor::execSystem(const DecodedInsn &d, Addr pc, ExecResult &res)
{
    switch (d.op) {
      case Op::kFence:
        break;
      case Op::kEcall:
        res.trap = true;
        res.trapCause = mcause::kEcallM;
        break;
      case Op::kEbreak:
        guest_fault("guest ebreak at pc 0x%08x", pc);
      case Op::kWfi:
        res.isWfi = true;
        break;
      default: {  // kMret
        Csrs &c = state_.csrs;
        const bool mpie = (c.mstatus & mstatus::kMpie) != 0;
        c.mstatus &= ~(mstatus::kMie | mstatus::kMpie);
        if (mpie)
            c.mstatus |= mstatus::kMie;
        c.mstatus |= mstatus::kMpie;
        res.isMret = true;
        if (unit_)
            unit_->onMretExecuted();
        // The restore FSM may have just written mepc: read it after
        // the unit hook.
        res.nextPc = c.mepc;
        break;
      }
    }
}

void
Executor::execCsr(const DecodedInsn &d)
{
    ArchState &s = state_;
    const Word rs1 = s.reg(d.rs1);
    switch (d.op) {
      case Op::kCsrrw: {
        const Word old = d.rd != 0 ? readCsr(d.csr) : 0;
        writeCsr(d.csr, rs1);
        s.setReg(d.rd, old);
        break;
      }
      case Op::kCsrrs: {
        const Word old = readCsr(d.csr);
        if (d.rs1 != 0)
            writeCsr(d.csr, old | rs1);
        s.setReg(d.rd, old);
        break;
      }
      case Op::kCsrrc: {
        const Word old = readCsr(d.csr);
        if (d.rs1 != 0)
            writeCsr(d.csr, old & ~rs1);
        s.setReg(d.rd, old);
        break;
      }
      case Op::kCsrrwi: {
        const Word old = d.rd != 0 ? readCsr(d.csr) : 0;
        writeCsr(d.csr, static_cast<Word>(d.imm));
        s.setReg(d.rd, old);
        break;
      }
      case Op::kCsrrsi: {
        const Word old = readCsr(d.csr);
        if (d.imm != 0)
            writeCsr(d.csr, old | static_cast<Word>(d.imm));
        s.setReg(d.rd, old);
        break;
      }
      default: {  // kCsrrci
        const Word old = readCsr(d.csr);
        if (d.imm != 0)
            writeCsr(d.csr, old & ~static_cast<Word>(d.imm));
        s.setReg(d.rd, old);
        break;
      }
    }
}

void
Executor::execCustom(const DecodedInsn &d, Addr pc)
{
    if (!unit_ || !unit_->implements(d.op))
        execInvalid(d, pc);
    ArchState &s = state_;
    const Word result = unit_->execute(d.op, s.reg(d.rs1), s.reg(d.rs2));
    if (writesRd(d.op))  // GET_HW_SCHED, SEM_TAKE, SEM_GIVE
        s.setReg(d.rd, result);
}

void
Executor::execInvalid(const DecodedInsn &d, Addr pc)
{
    guest_fault("illegal instruction 0x%08x at pc 0x%08x (%s)", d.raw, pc,
                disassemble(d).c_str());
}

} // namespace rtu
