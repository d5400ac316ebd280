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
    /** Instructions retired by steady-loop replay inside blockRun()
     *  (a subset of instret; see LoopReplay). */
    std::uint64_t replayedInsns = 0;

    /** Add @p k times the per-field growth from @p from to @p to. */
    void
    addScaled(const CoreStats &from, const CoreStats &to, std::uint64_t k)
    {
        static_assert(sizeof(CoreStats) == 15 * sizeof(std::uint64_t),
                      "addScaled() must list every counter");
        auto add = [&](std::uint64_t CoreStats::*f) {
            this->*f += k * (to.*f - from.*f);
        };
        add(&CoreStats::instret);
        add(&CoreStats::traps);
        add(&CoreStats::mrets);
        add(&CoreStats::wfiCycles);
        add(&CoreStats::memOps);
        add(&CoreStats::stallCycles);
        add(&CoreStats::branchMispredicts);
        add(&CoreStats::cacheMisses);
        add(&CoreStats::fetchPredecoded);
        add(&CoreStats::fetchSlowPath);
        add(&CoreStats::textInvalidations);
        add(&CoreStats::blocksExecuted);
        add(&CoreStats::blockFallbacks);
        add(&CoreStats::blockInvalidations);
        add(&CoreStats::replayedInsns);
    }
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

    /** True if the counter at @p pc is saturated toward @p taken, the
     *  fixed point where resolve(pc, taken) changes nothing and
     *  predicts right. */
    bool
    settled(Addr pc, bool taken) const
    {
        return counters_[index(pc)] == (taken ? 3 : 0);
    }

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

/**
 * One timing field across a steady-loop interval from anchor cycle
 * @p a0 to @p a1: true if it is *periodic* (the same offset from the
 * anchor cycle at both ends) or *dead* (unchanged and no later than
 * @p a0, so every max() or comparison against a cycle of the interval
 * resolves the same way in each repetition).
 */
inline bool
steadyCycle(Cycle before, Cycle after, Cycle a0, Cycle a1)
{
    return after - before == a1 - a0 || (after == before && before <= a0);
}

/** Advance @p field by @p d if it moved over the reference interval
 *  (it is periodic) and leave it if it did not (it is dead). */
inline void
shiftMoved(Cycle &field, Cycle before, Cycle d)
{
    if (field != before)
        field += d;
}

/**
 * Steady-loop replay inside a core's blockRun(): FastSim's timing
 * memoization (Schnarr & Larus, ASPLOS '98) narrowed to self-loops.
 * The guest state of a busy loop never repeats, but its timing state,
 * taken relative to the cycle, does.
 *
 * The *anchor* is the first dispatch/issue boundary after a taken
 * backward branch; there the core snapshots its timing state (a
 * @p Timing). The interval from one anchor to the next is *steady*
 * when it retired only ALU ops and conditional branches (at most
 * kMaxSteps; no memory access, jump or stop word) and came back to
 * the anchor pc, every branch it retired sits at its predictor's fixed
 * point (BimodalPredictor::settled(): the counter no longer moves and
 * predicted right), and the core's timingSteady() finds every timing
 * field the interval reads or writes periodic or dead (steadyCycle()),
 * with fields the model compares with each other periodic. The
 * interval's timing is then a function of its instructions, its
 * branch directions and the state relative to the anchor, so the next
 * interval — same instructions, same directions — is this one shifted
 * by its length Δ.
 *
 * Further intervals therefore run functionally on a local copy of the
 * register file. A partial interval whose branch resolves differently
 * is discarded and the normal path resumes at the anchor. Each
 * interval must end strictly before the bound: the anchor snapshot is
 * taken after the cycle's prelude, so an interval ending on the bound
 * would skip work the bound cycle owes the per-cycle path. After k
 * whole intervals the core commits one setReg() per written register
 * (the (D) dirty bits see what the normal path writes), the clock and
 * the periodic fields advance by kΔ, dead fields stay, and every
 * CoreStats counter grows by k times its growth over the interval.
 */
template <class Timing>
class LoopReplay
{
  public:
    /** Longest interval replayed, in retired instructions. */
    static constexpr unsigned kMaxSteps = 64;

    /** Replay state of one blockRun() call: nothing recorded, no
     *  anchor yet. It lives on that call's stack, so nothing of it
     *  survives a per-cycle step, a device event or a text write. */
    LoopReplay(ArchState &state, CoreStats &stats,
               const BimodalPredictor *predictor)
        : state_(state), stats_(stats), predictor_(predictor)
    {}

    /** The block path retired @p insn (a word of the predecoded
     *  image) from @p pc; a conditional branch went @p taken. */
    [[gnu::always_inline]] void
    retired(Addr pc, const DecodedInsn *insn, bool taken)
    {
        if (n_ < kMaxSteps)
            steps_[n_] = {insn, pc, taken};
        else
            aluOnly_ = false;  // too long to replay
        ++n_;
        const InsnClass cls = insn->cls;
        if (cls == InsnClass::kBranch)
            armed_ |= taken && insn->imm < 0;
        else if (cls != InsnClass::kAlu)
            aluOnly_ = false;
    }

    /** A taken backward branch retired since the last anchor: the
     *  next dispatch/issue boundary is one. */
    bool armed() const { return armed_; }

    /**
     * The run is at an anchor @p pc at cycle @p t, the core's timing
     * state already past the cycle's prelude. Replay whole steady
     * intervals that end before @p bound, then snapshot the anchor for
     * the next interval. @return the cycle the normal path continues
     * from (at the same pc).
     */
    template <class Model>
    Cycle
    anchor(Model &model, Addr pc, Cycle t, Cycle bound)
    {
        armed_ = false;
        if (aluOnly_ && haveSnap_ && pc == anchorPc_ && t > anchorT_ &&
            steady(model, t)) {
            t = replay(model, t, bound);
        }
        // A loop that never qualifies pays only the recording: the
        // snapshot is taken after an ALU-only interval or at the run's
        // first anchor.
        haveSnap_ = aluOnly_ || !anchored_;
        if (haveSnap_) {
            model.captureTiming(snap_);
            statsAt_ = stats_;
            anchorT_ = t;
        }
        anchored_ = true;
        anchorPc_ = pc;
        aluOnly_ = true;
        n_ = 0;
        return t;
    }

  private:
    struct Step
    {
        const DecodedInsn *insn;
        Addr pc;
        bool taken;
    };

    template <class Model>
    bool
    steady(const Model &model, Cycle t) const
    {
        std::uint32_t regs = 0;
        for (unsigned i = 0; i < n_; ++i) {
            const Step &s = steps_[i];
            const DecodedInsn &insn = *s.insn;
            if (insn.useRs1)
                regs |= 1u << insn.rs1;
            if (insn.useRs2)
                regs |= 1u << insn.rs2;
            if (insn.hasRd)
                regs |= 1u << insn.rd;
            if (insn.cls == InsnClass::kBranch && predictor_ &&
                !predictor_->settled(s.pc, s.taken)) {
                return false;
            }
        }
        return model.timingSteady(snap_, anchorT_, t, regs);
    }

    /** Run the recorded interval once on @p regs; false at the first
     *  branch that leaves the recorded path. */
    [[gnu::always_inline]] bool
    runInterval(Word *regs) const
    {
        for (unsigned i = 0; i < n_; ++i) {
            const Step &s = steps_[i];
            const DecodedInsn &insn = *s.insn;
            const Word a = regs[insn.rs1];
            const Word b = regs[insn.rs2];
            if (insn.cls == InsnClass::kBranch) {
                if (Executor::evalBranch(insn.op, a, b) != s.taken)
                    return false;
            } else {
                regs[insn.rd] = Executor::aluResult(insn, a, b, s.pc);
                regs[0] = 0;
            }
        }
        return true;
    }

    template <class Model>
    [[gnu::noinline, gnu::aligned(64)]] Cycle
    replay(Model &model, Cycle t, Cycle bound)
    {
        // Whole intervals that end strictly before the bound.
        const Cycle delta = t - anchorT_;
        const Cycle most = (bound - 1 - t) / delta;
        if (most == 0)
            return t;

        Word regs[32];
        for (RegIndex r = 0; r < 32; ++r)
            regs[r] = state_.reg(r);
        std::uint32_t mask = 0;
        for (unsigned i = 0; i < n_; ++i) {
            const DecodedInsn &insn = *steps_[i].insn;
            if (insn.cls == InsnClass::kAlu && insn.rd != 0)
                mask |= 1u << insn.rd;
        }
        RegIndex written[32];
        Word kept[32];
        unsigned nw = 0;
        for (; mask != 0; mask &= mask - 1) {
            written[nw] = static_cast<RegIndex>(std::countr_zero(mask));
            kept[nw] = regs[written[nw]];
            ++nw;
        }

        Cycle k = 0;
        while (k < most && runInterval(regs)) {
            for (unsigned i = 0; i < nw; ++i)
                kept[i] = regs[written[i]];
            ++k;
        }
        if (k == 0)
            return t;

        for (unsigned i = 0; i < nw; ++i)
            state_.setReg(written[i], kept[i]);
        stats_.addScaled(statsAt_, stats_, k);
        stats_.replayedInsns += k * n_;
        model.shiftTiming(snap_, k * delta);
        return t + k * delta;
    }

    ArchState &state_;
    CoreStats &stats_;
    const BimodalPredictor *predictor_;

    bool armed_ = false;
    bool anchored_ = false;
    bool haveSnap_ = false;
    bool aluOnly_ = true;
    /** Instructions retired since the last anchor. */
    unsigned n_ = 0;
    Addr anchorPc_ = 0;
    Cycle anchorT_ = 0;
    Timing snap_{};
    CoreStats statsAt_;
    Step steps_[kMaxSteps];
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

    /** True while a custom-instruction / mret stall condition holds.
     *  Only the ops that can stall ask the unit. */
    bool
    stalledByUnit(const DecodedInsn &insn) const
    {
        RtosUnitPort *unit = exec_.unit();
        if (!unit)
            return false;
        switch (insn.op) {
          case Op::kSwitchRf:
          case Op::kGetHwSched:
          case Op::kMret:
          case Op::kSemTake:
          case Op::kSemGive:
            return unit->stalls(insn.op);
          default: return false;
        }
    }

    /**
     * The wfi step of a cycle: an enabled pending interrupt wakes the
     * core. @return true if the core sleeps on, the cycle counted as a
     * wfi cycle.
     */
    bool
    sleepCycle()
    {
        if (!sleeping_)
            return false;
        if (exec_.pendingEnabledIrqs() != 0) {
            sleeping_ = false;
            return false;
        }
        ++stats_.wfiCycles;
        return true;
    }

    /** nextEventAt() of a sleeping core: the next cycle wakes it, or
     *  nothing does until an interrupt arrives. */
    Cycle
    sleepEventAt(Cycle now) const
    {
        return exec_.pendingEnabledIrqs() != 0 ? now : kNoEvent;
    }

    /** An mret issued; it completes at cycle @p done. */
    void
    mretIssued(Cycle done)
    {
        ++stats_.mrets;
        mretPending_ = true;
        mretDoneAt_ = done;
    }

    /** The mret-completion step of cycle @p now: tell the listener
     *  once the pending mret is done (the paper's latency end point). */
    void
    mretStep(Cycle now)
    {
        if (mretPending_ && now >= mretDoneAt_) {
            mretPending_ = false;
            if (listener_)
                listener_->mretCompleted(now);
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
     * core is neither asleep, nor waiting on an mret, nor @p busy
     * with another in-flight condition the per-cycle path owns, and
     * no interrupt is ready.
     */
    bool
    blockRunOpen(bool busy = false) const
    {
        return blockindex_ != nullptr && !busy && !sleeping_ &&
               !mretPending_ && !exec_.interruptReady();
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
    /** Sleeping in wfi. */
    bool sleeping_ = false;
    /** An issued mret completes at mretDoneAt_ (see mretStep()). */
    bool mretPending_ = false;
    Cycle mretDoneAt_ = 0;
};

} // namespace rtu

#endif // RTU_CORES_CORE_HH
