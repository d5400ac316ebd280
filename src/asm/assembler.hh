/**
 * @file
 * Programmatic RV32IM assembler.
 *
 * The guest kernel and workloads are written against this builder API:
 * one method per mnemonic they emit, string labels with forward
 * references, pseudo-instructions (li/la/call/ret/j/mv/nop),
 * data-section symbols, and WCET loop-bound annotations. Only the
 * mnemonics some generator, test or example emits have a method; the
 * decoder, executor and encode() cover all of RV32IM, so a test that
 * needs another op encodes it directly.
 */

#ifndef RTU_ASM_ASSEMBLER_HH
#define RTU_ASM_ASSEMBLER_HH

#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "insn.hh"
#include "program.hh"

namespace rtu {

class Assembler
{
  public:
    Assembler(Addr text_base, Addr data_base);

    // ---- labels & layout -------------------------------------------
    /** Bind @p name to the current text position. */
    void label(const std::string &name);

    /** Begin/end a named function (debug metadata + a label). */
    void fnBegin(const std::string &name);
    void fnEnd();

    /** Current text address (address of the next emitted insn). */
    Addr here() const;

    /**
     * Annotate the next emitted control-flow instruction (a loop's
     * back edge) with the maximum number of times it may execute.
     * For a top-tested loop whose body runs at most N times this is
     * N; for a bottom-tested loop it is N - 1. Consumed by the WCET
     * analyzer.
     */
    void loopBound(unsigned bound);

    // ---- data section ----------------------------------------------
    /** Reserve one word, optionally named; returns its address. */
    Addr dataWord(const std::string &name, Word init = 0);

    /** Reserve @p count words; returns base address. */
    Addr dataArray(const std::string &name, size_t count, Word init = 0);

    /** Align the data cursor to @p align bytes (power of two). */
    void dataAlign(Addr align);

    // ---- RV32I ------------------------------------------------------
    void lui(Reg rd, SWord imm20);
    void jal(Reg rd, const std::string &target);
    void jalr(Reg rd, Reg rs1, SWord imm);
    void beq(Reg rs1, Reg rs2, const std::string &target);
    void bne(Reg rs1, Reg rs2, const std::string &target);
    void blt(Reg rs1, Reg rs2, const std::string &target);
    void bge(Reg rs1, Reg rs2, const std::string &target);
    void bltu(Reg rs1, Reg rs2, const std::string &target);
    void lw(Reg rd, SWord off, Reg base);
    void sw(Reg rs2, SWord off, Reg base);
    void addi(Reg rd, Reg rs1, SWord imm);
    void xori(Reg rd, Reg rs1, SWord imm);
    void andi(Reg rd, Reg rs1, SWord imm);
    void slli(Reg rd, Reg rs1, SWord shamt);
    void srli(Reg rd, Reg rs1, SWord shamt);
    void srai(Reg rd, Reg rs1, SWord shamt);
    void add(Reg rd, Reg rs1, Reg rs2);
    void sub(Reg rd, Reg rs1, Reg rs2);
    void slt(Reg rd, Reg rs1, Reg rs2);
    void xor_(Reg rd, Reg rs1, Reg rs2);
    void or_(Reg rd, Reg rs1, Reg rs2);
    void ecall();
    void mret();
    void wfi();

    // ---- Zicsr ------------------------------------------------------
    void csrrw(Reg rd, std::uint16_t csr, Reg rs1);
    void csrrs(Reg rd, std::uint16_t csr, Reg rs1);
    void csrrsi(Reg rd, std::uint16_t csr, Word uimm5);
    void csrrci(Reg rd, std::uint16_t csr, Word uimm5);

    // ---- RV32M ------------------------------------------------------
    void div(Reg rd, Reg rs1, Reg rs2);
    void divu(Reg rd, Reg rs1, Reg rs2);

    // ---- RTOSUnit custom instructions (Table 1) ----------------------
    void rtuSetContextId(Reg rs1_task_id);
    void rtuGetHwSched(Reg rd);
    void rtuAddReady(Reg rs1_task_id, Reg rs2_priority);
    void rtuAddDelay(Reg rs1_priority, Reg rs2_ticks);
    void rtuRmTask(Reg rs1_task_id);
    void rtuSwitchRf();
    void rtuSemTake(Reg rd, Reg rs1_sem_id);
    void rtuSemGive(Reg rd, Reg rs1_sem_id);

    // ---- pseudo-instructions ----------------------------------------
    void nop();
    void mv(Reg rd, Reg rs);
    void li(Reg rd, SWord value);              ///< 1 or 2 insns
    void la(Reg rd, const std::string &sym);   ///< always lui+addi
    void j(const std::string &target);         ///< jal zero
    void call(const std::string &target);      ///< jal ra
    void ret();                                ///< jalr zero, ra, 0
    void csrr(Reg rd, std::uint16_t csr);      ///< csrrs rd, csr, x0
    void csrw(std::uint16_t csr, Reg rs);      ///< csrrw x0, csr, rs
    void beqz(Reg rs, const std::string &target);
    void bnez(Reg rs, const std::string &target);

    // ---- finalize ----------------------------------------------------
    /** Resolve all fixups and produce the image. Panics on undefined
     *  labels or out-of-range branches. */
    Program finish();

    size_t textSize() const { return text_.size(); }

  private:
    enum class FixupKind { kBranch, kJal, kLuiHi, kAddiLo };

    struct Fixup
    {
        size_t index;       ///< index into text_
        FixupKind kind;
        std::string target;
    };

    void emit(Word insn);
    Addr addrOfIndex(size_t index) const;

    Addr textBase_;
    Addr dataBase_;
    std::vector<Word> text_;
    std::vector<Word> data_;
    std::map<std::string, Addr> symbols_;
    std::vector<Fixup> fixups_;
    std::map<Addr, unsigned> loopBounds_;
    std::map<std::string, std::pair<Addr, Addr>> functions_;
    std::string currentFn_;
    Addr currentFnStart_ = 0;
    unsigned pendingLoopBound_ = 0;
    bool hasPendingLoopBound_ = false;
    bool finished_ = false;
};

} // namespace rtu

#endif // RTU_ASM_ASSEMBLER_HH
