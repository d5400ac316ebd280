/**
 * @file
 * Architectural state shared by all core models: two register-file
 * banks (application + ISR, paper Fig 3 (a)/(d)), PC and machine CSRs.
 *
 * Bank 0 is the application register file (RF1 in the paper: the only
 * bank visible to the RTOSUnit); bank 1 is the ISR bank (RF2,
 * connected exclusively to the core). Cores without an RTOSUnit never
 * leave bank 0.
 */

#ifndef RTU_CORES_ARCH_STATE_HH
#define RTU_CORES_ARCH_STATE_HH

#include <array>
#include <cstdint>

#include "asm/insn.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace rtu {

/** Machine-mode CSR register block (RV32IM_Zicsr subset). */
struct Csrs
{
    Word mstatus = 0;
    Word mie = 0;
    Word mtvec = 0;
    Word mscratch = 0;
    Word mepc = 0;
    Word mcause = 0;
    Word mtval = 0;
};

class ArchState
{
  public:
    static constexpr unsigned kAppBank = 0;
    static constexpr unsigned kIsrBank = 1;

    ArchState() { reset(); }

    void
    reset()
    {
        for (auto &bank : banks_)
            bank.fill(0);
        dirty_.fill(false);
        activeBank_ = kAppBank;
        pc_ = 0;
        csrs = Csrs{};
    }

    // ---- active-bank register access (core datapath) ----------------
    Word
    reg(RegIndex r) const
    {
        rtu_assert(r < 32, "register index %u", r);
        return r == 0 ? 0 : banks_[activeBank_][r];
    }

    void
    setReg(RegIndex r, Word v)
    {
        rtu_assert(r < 32, "register index %u", r);
        if (r == 0)
            return;
        banks_[activeBank_][r] = v;
        if (activeBank_ == kAppBank)
            dirty_[r] = true;
    }

    // ---- explicit-bank access (RTOSUnit store/restore FSMs) ---------
    Word
    bankReg(unsigned bank, RegIndex r) const
    {
        rtu_assert(bank < 2 && r < 32, "bank %u reg %u", bank, r);
        return r == 0 ? 0 : banks_[bank][r];
    }

    void
    setBankReg(unsigned bank, RegIndex r, Word v)
    {
        rtu_assert(bank < 2 && r < 32, "bank %u reg %u", bank, r);
        if (r != 0)
            banks_[bank][r] = v;
    }

    unsigned activeBank() const { return activeBank_; }
    void setActiveBank(unsigned bank)
    {
        rtu_assert(bank < 2, "bank %u", bank);
        activeBank_ = bank;
    }

    // ---- dirty bits (RTOSUnit (D) option, paper Section 4.5) --------
    bool regDirty(RegIndex r) const { return dirty_[r]; }
    void clearDirtyBits() { dirty_.fill(false); }
    void markAllDirty() { dirty_.fill(true); }

    Addr pc() const { return pc_; }
    void setPc(Addr pc) { pc_ = pc; }

    Csrs csrs;

  private:
    std::array<std::array<Word, 32>, 2> banks_;
    std::array<bool, 32> dirty_;
    unsigned activeBank_ = kAppBank;
    Addr pc_ = 0;
};

} // namespace rtu

#endif // RTU_CORES_ARCH_STATE_HH
