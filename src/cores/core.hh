/**
 * @file
 * Abstract core timing model. Concrete models (CV32E40P, CVA6,
 * NaxRiscv) decide when instructions execute; the shared Executor
 * applies their semantics.
 */

#ifndef RTU_CORES_CORE_HH
#define RTU_CORES_CORE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "arch_state.hh"
#include "asm/decode.hh"
#include "executor.hh"
#include "sim/blockexec.hh"
#include "sim/clint.hh"
#include "sim/irq.hh"
#include "sim/kernel.hh"
#include "sim/mem.hh"
#include "sim/memmap.hh"
#include "sim/predecode.hh"

namespace rtu {

/** Simulation-side observer of trap boundaries (latency recording). */
class CoreListener
{
  public:
    virtual ~CoreListener() = default;
    /** An interrupt/exception was taken at @p entry_cycle. */
    virtual void trapTaken(Word cause, Cycle entry_cycle) = 0;
    /** An mret completed (the paper's latency end point). */
    virtual void mretCompleted(Cycle cycle) = 0;
};

struct CoreStats
{
    std::uint64_t instret = 0;
    std::uint64_t traps = 0;
    std::uint64_t mrets = 0;
    std::uint64_t wfiCycles = 0;
    std::uint64_t memOps = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t cacheMisses = 0;
    /** Front-end: fetches served from the predecoded image. */
    std::uint64_t fetchPredecoded = 0;
    /** Front-end: fetches through the memory system (image off, wild
     *  jump out of text, or misaligned pc). */
    std::uint64_t fetchSlowPath = 0;
    /** Text-range writes that re-decoded image words. Accounted at
     *  the simulation level (the image is shared, not per-core). */
    std::uint64_t textInvalidations = 0;
    /** Superblocks executed through the block fast path (straight-line
     *  runs completed inside blockRun()). */
    std::uint64_t blocksExecuted = 0;
    /** blockRun() entries or runs that bailed to the per-instruction
     *  path (stop instruction, unsafe memory access, uncovered pc). */
    std::uint64_t blockFallbacks = 0;
    /** Block-summary words re-formed by text writes. Accounted at the
     *  simulation level (the index is shared, not per-core). */
    std::uint64_t blockInvalidations = 0;
};

/** Bimodal branch predictor: 2-bit saturating counters indexed by the
 *  word address, all starting weakly not-taken. */
class BimodalPredictor
{
  public:
    explicit BimodalPredictor(unsigned entries)
        : counters_(entries, 1), mask_(entries - 1)
    {}

    bool predictsTaken(Addr pc) const { return counters_[index(pc)] >= 2; }

    /** Train the counter at @p pc on the resolved direction.
     *  @return true if the prediction was wrong. */
    bool
    resolve(Addr pc, bool taken)
    {
        std::uint8_t &ctr = counters_[index(pc)];
        const bool mispredicted = (ctr >= 2) != taken;
        if (taken) {
            if (ctr < 3)
                ++ctr;
        } else if (ctr > 0) {
            --ctr;
        }
        return mispredicted;
    }

  private:
    unsigned index(Addr pc) const { return (pc >> 2) & mask_; }

    std::vector<std::uint8_t> counters_;
    unsigned mask_;
};

/**
 * Block accounting of one blockRun(): a retired branch or jump closes
 * a block, the run's exit closes the partial block before it, and a
 * run that stops at a word the block path may not execute counts one
 * fallback.
 */
class BlockTally
{
  public:
    explicit BlockTally(CoreStats &stats) : stats_(stats) {}

    [[gnu::always_inline]] void
    retired(InsnClass cls)
    {
        if (cls == InsnClass::kBranch || cls == InsnClass::kJump) {
            ++stats_.blocksExecuted;
            sinceBoundary_ = 0;
        } else {
            ++sinceBoundary_;
        }
    }

    /** The run ends at its horizon; @return the @p ran cycles. */
    [[gnu::always_inline]] Cycle
    finish(Cycle ran)
    {
        if (sinceBoundary_ > 0)
            ++stats_.blocksExecuted;  // partial run up to the exit point
        return ran;
    }

    /** The run ends before a word it may not execute, which the
     *  per-instruction path takes over; @return the @p ran cycles. */
    [[gnu::always_inline]] Cycle
    bail(Cycle ran)
    {
        ++stats_.blockFallbacks;
        return finish(ran);
    }

  private:
    CoreStats &stats_;
    std::uint32_t sinceBoundary_ = 0;
};

class Core : public Clocked
{
  public:
    struct Env
    {
        ArchState *state = nullptr;
        Executor *exec = nullptr;
        MemSystem *mem = nullptr;
        IrqLines *irq = nullptr;
        SharedPort *dmemPort = nullptr;
        Clint *clint = nullptr;
        /** Decode-once text image; nullptr = always fetch via mem. */
        const PredecodedImage *predecode = nullptr;
        /** Superblock index over the image; nullptr disables the block
         *  fast path (cores fall back to per-cycle ticking only). */
        const BlockIndex *blockindex = nullptr;
    };

    explicit Core(const Env &env)
        : state_(*env.state), exec_(*env.exec), mem_(*env.mem),
          irq_(*env.irq), dmemPort_(*env.dmemPort), clint_(*env.clint),
          predecode_(env.predecode), blockindex_(env.blockindex)
    {}
    virtual ~Core() = default;

    /** Advance one clock cycle. */
    void tick(Cycle now) override = 0;

    virtual const char *name() const = 0;

    void setListener(CoreListener *l) { listener_ = l; }

    const CoreStats &stats() const { return stats_; }

  protected:
    /**
     * Fetch and decode the instruction at @p pc (Harvard I-side).
     * Text-segment fetches hit the predecoded image — one bounds
     * check and an array load instead of a MemSystem dispatch plus a
     * field decode per retired instruction. Anything else (image
     * disabled, wild jump out of text, misaligned pc) takes the
     * decode-from-memory slow path.
     */
    DecodedInsn
    fetch(Addr pc)
    {
        if (predecode_ && predecode_->covers(pc)) {
            ++stats_.fetchPredecoded;
            return predecode_->at(pc);
        }
        ++stats_.fetchSlowPath;
        // A wild jump (e.g. from a fault-corrupted context) is the
        // guest's architectural error, not a simulator bug: raise the
        // typed fault so Simulation::run ends the run as kGuestFault.
        if (!mem_.deviceAt(pc))
            guest_fault("fetch at unmapped address 0x%08x", pc);
        return decode(mem_.read32(pc));
    }

    /**
     * Apply trap semantics: timer auto-reset notification, CSR
     * updates, redirect, RTOSUnit entry hook, listener event.
     */
    void
    functionalTrap(Word cause, Addr epc, Cycle now)
    {
        if (cause == mcause::kMachineTimer)
            clint_.timerTaken();
        exec_.takeTrap(cause, epc);
        ++stats_.traps;
        if (listener_)
            listener_->trapTaken(cause, now);
    }

    /** True while a custom-instruction / mret stall condition holds. */
    bool
    stalledByUnit(const DecodedInsn &insn) const
    {
        RtosUnitPort *unit = exec_.unit();
        if (!unit)
            return false;
        switch (insn.op) {
          case Op::kSwitchRf: return unit->switchRfStall();
          case Op::kGetHwSched: return unit->getHwSchedStall();
          case Op::kMret: return unit->mretStall();
          case Op::kSemTake:
          case Op::kSemGive:
            return unit->semOpStall();
          default: return false;
        }
    }

    /** Significant dividend bits of a divide (the iterative dividers
     *  take one step per bit); 0 for anything else. Read before the
     *  instruction executes: rd may alias rs1. */
    unsigned
    dividendBits(const DecodedInsn &insn) const
    {
        if (insn.cls != InsnClass::kDiv)
            return 0;
        return 32 - std::countl_zero(state_.reg(insn.rs1) | 1);
    }

    /** True if a data access at @p addr goes through the data cache:
     *  DMEM is cacheable, devices are not. */
    static bool
    cacheable(Addr addr)
    {
        return addr >= memmap::kDmemBase &&
               addr < memmap::kDmemBase + memmap::kDmemSize;
    }

    /**
     * True if blockRun() may start: a block index is installed, the
     * core is not @p busy (asleep or with an in-flight condition the
     * per-cycle path owns) and no interrupt is ready.
     */
    bool
    blockRunOpen(bool busy) const
    {
        return blockindex_ != nullptr && !busy && !exec_.interruptReady();
    }

    /**
     * The instruction at @p pc if the block path may execute it: the
     * index covers @p pc, the word is no stop word, and a load/store
     * passes blockAccessSafe(). nullptr means the run must bail with
     * nothing executed. The flags are re-read on every call: an
     * in-block store to text may have re-formed the very run being
     * executed.
     */
    [[gnu::always_inline]] const DecodedInsn *
    blockWord(Addr pc) const
    {
        if (!blockindex_->covers(pc) ||
            (blockindex_->flagsAt(pc) & BlockIndex::kStop)) {
            return nullptr;
        }
        const DecodedInsn &insn = predecode_->at(pc);
        return blockAccessSafe(insn) ? &insn : nullptr;
    }

    /**
     * False if @p insn is a load/store whose access, at its address
     * from the current registers, leaves plain SRAM (imem or dmem).
     * CLINT, host I/O, unmapped and device-straddling accesses must
     * take the per-instruction path, which owns the exact device and
     * fault semantics. The address is exact for in-order in-block
     * execution: every older instruction has already executed.
     */
    [[gnu::always_inline]] bool
    blockAccessSafe(const DecodedInsn &insn) const
    {
        if (insn.cls != InsnClass::kLoad && insn.cls != InsnClass::kStore)
            return true;
        const Addr ea = effectiveAddr(insn);
        const unsigned size = accessSize(insn.op);
        return (ea >= memmap::kImemBase &&
                ea + size <= memmap::kImemBase + memmap::kImemSize) ||
               (ea >= memmap::kDmemBase &&
                ea + size <= memmap::kDmemBase + memmap::kDmemSize);
    }

    /** Effective address of a load/store from the current registers. */
    Addr
    effectiveAddr(const DecodedInsn &insn) const
    {
        return state_.reg(insn.rs1) + static_cast<Word>(insn.imm);
    }

    static unsigned
    accessSize(Op op)
    {
        switch (op) {
          case Op::kLb:
          case Op::kLbu:
          case Op::kSb:
            return 1;
          case Op::kLh:
          case Op::kLhu:
          case Op::kSh:
            return 2;
          default:
            return 4;
        }
    }

    ArchState &state_;
    Executor &exec_;
    MemSystem &mem_;
    IrqLines &irq_;
    SharedPort &dmemPort_;
    Clint &clint_;
    const PredecodedImage *predecode_;
    const BlockIndex *blockindex_;
    CoreListener *listener_ = nullptr;
    CoreStats stats_;
};

} // namespace rtu

#endif // RTU_CORES_CORE_HH
