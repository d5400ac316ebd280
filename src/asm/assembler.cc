#include "assembler.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "decode.hh"
#include "encode.hh"

namespace rtu {

Assembler::Assembler(Addr text_base, Addr data_base)
    : textBase_(text_base), dataBase_(data_base)
{
    rtu_assert(isAligned(text_base, 4) && isAligned(data_base, 4),
               "section bases must be word aligned");
}

void
Assembler::label(const std::string &name)
{
    rtu_assert(!finished_, "label after finish()");
    auto [it, inserted] = symbols_.emplace(name, here());
    (void)it;
    if (!inserted)
        panic("duplicate label '%s'", name.c_str());
}

void
Assembler::fnBegin(const std::string &name)
{
    rtu_assert(currentFn_.empty(), "nested fnBegin('%s') inside '%s'",
               name.c_str(), currentFn_.c_str());
    currentFn_ = name;
    currentFnStart_ = here();
    label(name);
}

void
Assembler::fnEnd()
{
    rtu_assert(!currentFn_.empty(), "fnEnd without fnBegin");
    functions_[currentFn_] = {currentFnStart_, here()};
    currentFn_.clear();
}

Addr
Assembler::here() const
{
    return textBase_ + 4 * static_cast<Addr>(text_.size());
}

void
Assembler::loopBound(unsigned bound)
{
    rtu_assert(!hasPendingLoopBound_, "two loopBound() without a branch");
    pendingLoopBound_ = bound;
    hasPendingLoopBound_ = true;
}

Addr
Assembler::dataWord(const std::string &name, Word init)
{
    const Addr addr = dataBase_ + 4 * static_cast<Addr>(data_.size());
    data_.push_back(init);
    if (!name.empty()) {
        auto [it, inserted] = symbols_.emplace(name, addr);
        (void)it;
        if (!inserted)
            panic("duplicate data symbol '%s'", name.c_str());
    }
    return addr;
}

Addr
Assembler::dataArray(const std::string &name, size_t count, Word init)
{
    rtu_assert(count > 0, "empty data array '%s'", name.c_str());
    const Addr addr = dataWord(name, init);
    for (size_t i = 1; i < count; ++i)
        dataWord("", init);
    return addr;
}

void
Assembler::dataAlign(Addr align)
{
    rtu_assert(align >= 4 && (align & (align - 1)) == 0,
               "bad alignment %u", align);
    while (!isAligned(dataBase_ + 4 * static_cast<Addr>(data_.size()),
                      align)) {
        data_.push_back(0);
    }
}

void
Assembler::emit(Word insn)
{
    rtu_assert(!finished_, "emit after finish()");
    if (hasPendingLoopBound_) {
        loopBounds_[here()] = pendingLoopBound_;
        hasPendingLoopBound_ = false;
    }
    text_.push_back(insn);
}

Addr
Assembler::addrOfIndex(size_t index) const
{
    return textBase_ + 4 * static_cast<Addr>(index);
}

// ---- RV32I ----------------------------------------------------------

void Assembler::lui(Reg rd, SWord imm20)
{ emit(encode(Op::kLui, rd, 0, 0, imm20)); }

void
Assembler::jal(Reg rd, const std::string &target)
{
    fixups_.push_back({text_.size(), FixupKind::kJal, target});
    emit(encode(Op::kJal, rd, 0, 0, 0));
}

void Assembler::jalr(Reg rd, Reg rs1, SWord imm)
{ emit(encode(Op::kJalr, rd, rs1, 0, imm)); }

#define RTU_BRANCH(NAME, OP)                                              \
    void                                                                  \
    Assembler::NAME(Reg rs1, Reg rs2, const std::string &target)          \
    {                                                                     \
        fixups_.push_back({text_.size(), FixupKind::kBranch, target});    \
        emit(encode(OP, 0, rs1, rs2, 0));                                 \
    }

RTU_BRANCH(beq, Op::kBeq)
RTU_BRANCH(bne, Op::kBne)
RTU_BRANCH(blt, Op::kBlt)
RTU_BRANCH(bge, Op::kBge)
RTU_BRANCH(bltu, Op::kBltu)
#undef RTU_BRANCH

void Assembler::lw(Reg rd, SWord off, Reg base)
{ emit(encode(Op::kLw, rd, base, 0, off)); }
void Assembler::sw(Reg rs2, SWord off, Reg base)
{ emit(encode(Op::kSw, 0, base, rs2, off)); }

#define RTU_OPIMM(NAME, OP)                                               \
    void                                                                  \
    Assembler::NAME(Reg rd, Reg rs1, SWord imm)                           \
    { emit(encode(OP, rd, rs1, 0, imm)); }

RTU_OPIMM(addi, Op::kAddi)
RTU_OPIMM(xori, Op::kXori)
RTU_OPIMM(andi, Op::kAndi)
RTU_OPIMM(slli, Op::kSlli)
RTU_OPIMM(srli, Op::kSrli)
RTU_OPIMM(srai, Op::kSrai)
#undef RTU_OPIMM

#define RTU_OP(NAME, OP)                                                  \
    void                                                                  \
    Assembler::NAME(Reg rd, Reg rs1, Reg rs2)                             \
    { emit(encode(OP, rd, rs1, rs2, 0)); }

RTU_OP(add, Op::kAdd)
RTU_OP(sub, Op::kSub)
RTU_OP(slt, Op::kSlt)
RTU_OP(xor_, Op::kXor)
RTU_OP(or_, Op::kOr)
RTU_OP(div, Op::kDiv)
RTU_OP(divu, Op::kDivu)
#undef RTU_OP

void Assembler::ecall() { emit(encode(Op::kEcall, 0, 0, 0, 0)); }
void Assembler::mret() { emit(encode(Op::kMret, 0, 0, 0, 0)); }
void Assembler::wfi() { emit(encode(Op::kWfi, 0, 0, 0, 0)); }

// ---- Zicsr ----------------------------------------------------------

void Assembler::csrrw(Reg rd, std::uint16_t csr, Reg rs1)
{ emit(encode(Op::kCsrrw, rd, rs1, 0, 0, csr)); }
void Assembler::csrrs(Reg rd, std::uint16_t csr, Reg rs1)
{ emit(encode(Op::kCsrrs, rd, rs1, 0, 0, csr)); }
void Assembler::csrrsi(Reg rd, std::uint16_t csr, Word uimm5)
{ emit(encode(Op::kCsrrsi, rd, 0, 0, static_cast<SWord>(uimm5), csr)); }
void Assembler::csrrci(Reg rd, std::uint16_t csr, Word uimm5)
{ emit(encode(Op::kCsrrci, rd, 0, 0, static_cast<SWord>(uimm5), csr)); }

// ---- RTOSUnit custom instructions ------------------------------------

void Assembler::rtuSetContextId(Reg rs1)
{ emit(encode(Op::kSetContextId, 0, rs1, 0, 0)); }
void Assembler::rtuGetHwSched(Reg rd)
{ emit(encode(Op::kGetHwSched, rd, 0, 0, 0)); }
void Assembler::rtuAddReady(Reg rs1, Reg rs2)
{ emit(encode(Op::kAddReady, 0, rs1, rs2, 0)); }
void Assembler::rtuAddDelay(Reg rs1, Reg rs2)
{ emit(encode(Op::kAddDelay, 0, rs1, rs2, 0)); }
void Assembler::rtuRmTask(Reg rs1)
{ emit(encode(Op::kRmTask, 0, rs1, 0, 0)); }
void Assembler::rtuSwitchRf()
{ emit(encode(Op::kSwitchRf, 0, 0, 0, 0)); }
void Assembler::rtuSemTake(Reg rd, Reg rs1)
{ emit(encode(Op::kSemTake, rd, rs1, 0, 0)); }
void Assembler::rtuSemGive(Reg rd, Reg rs1)
{ emit(encode(Op::kSemGive, rd, rs1, 0, 0)); }

// ---- pseudo-instructions ---------------------------------------------

void Assembler::nop() { addi(Zero, Zero, 0); }
void Assembler::mv(Reg rd, Reg rs) { addi(rd, rs, 0); }

void
Assembler::li(Reg rd, SWord value)
{
    if (fitsSigned(value, 12)) {
        addi(rd, Zero, value);
        return;
    }
    const Word uval = static_cast<Word>(value);
    const Word hi = (uval + 0x800) >> 12;
    const SWord lo = sext(uval & 0xFFF, 12);
    lui(rd, static_cast<SWord>(hi));
    if (lo != 0)
        addi(rd, rd, lo);
}

void
Assembler::la(Reg rd, const std::string &sym)
{
    // Always the two-instruction absolute form so that forward
    // references resolve without a length change.
    fixups_.push_back({text_.size(), FixupKind::kLuiHi, sym});
    emit(encode(Op::kLui, rd, 0, 0, 0));
    fixups_.push_back({text_.size(), FixupKind::kAddiLo, sym});
    emit(encode(Op::kAddi, rd, rd, 0, 0));
}

void Assembler::j(const std::string &target) { jal(Zero, target); }
void Assembler::call(const std::string &target) { jal(RA, target); }
void Assembler::ret() { jalr(Zero, RA, 0); }
void Assembler::csrr(Reg rd, std::uint16_t csr) { csrrs(rd, csr, Zero); }
void Assembler::csrw(std::uint16_t csr, Reg rs) { csrrw(Zero, csr, rs); }
void Assembler::beqz(Reg rs, const std::string &t) { beq(rs, Zero, t); }
void Assembler::bnez(Reg rs, const std::string &t) { bne(rs, Zero, t); }

// ---- finalize ---------------------------------------------------------

Program
Assembler::finish()
{
    rtu_assert(!finished_, "finish() called twice");
    rtu_assert(currentFn_.empty(), "finish() inside function '%s'",
               currentFn_.c_str());
    rtu_assert(!hasPendingLoopBound_, "dangling loopBound()");
    finished_ = true;

    for (const Fixup &fx : fixups_) {
        auto sym = symbols_.find(fx.target);
        if (sym == symbols_.end())
            panic("undefined label '%s'", fx.target.c_str());
        const Addr target = sym->second;
        const Addr pc = addrOfIndex(fx.index);
        DecodedInsn d{};
        const Word old = text_[fx.index];

        switch (fx.kind) {
          case FixupKind::kBranch: {
            const SWord off = static_cast<SWord>(target - pc);
            if (!fitsSigned(off, 13))
                panic("branch to '%s' out of range (%d bytes)",
                      fx.target.c_str(), off);
            d = decode(old);
            d.imm = off;
            text_[fx.index] = encode(d);
            break;
          }
          case FixupKind::kJal: {
            const SWord off = static_cast<SWord>(target - pc);
            if (!fitsSigned(off, 21))
                panic("jal to '%s' out of range (%d bytes)",
                      fx.target.c_str(), off);
            d = decode(old);
            d.imm = off;
            text_[fx.index] = encode(d);
            break;
          }
          case FixupKind::kLuiHi: {
            d = decode(old);
            d.imm = static_cast<SWord>((target + 0x800) >> 12);
            text_[fx.index] = encode(d);
            break;
          }
          case FixupKind::kAddiLo: {
            d = decode(old);
            d.imm = sext(target & 0xFFF, 12);
            text_[fx.index] = encode(d);
            break;
          }
        }
    }

    Program prog;
    prog.textBase = textBase_;
    prog.text = std::move(text_);
    prog.dataBase = dataBase_;
    prog.data = std::move(data_);
    prog.symbols = std::move(symbols_);
    prog.loopBounds = std::move(loopBounds_);
    prog.functions = std::move(functions_);
    if (prog.textEnd() > dataBase_ && prog.textBase < prog.dataEnd())
        panic("text section overlaps data section");
    return prog;
}

} // namespace rtu
