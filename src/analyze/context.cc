/**
 * @file
 * Pass 1: trap-path context integrity.
 *
 * Symbolic walk of every path from trap entry ("k_isr") to `mret`,
 * tracking per-register save/clobber/restore state against what the
 * active RtosUnitConfig's hardware does:
 *
 *  - !store, !cv32rt (vanilla/T): software must save a register to its
 *    stack-frame slot before clobbering it and reload every context
 *    register from the frame before `mret`;
 *  - cv32rt: the upper half (x16..x31) is hardware-snapshotted at trap
 *    entry; its frame slots may only be reloaded after the SWITCH_RF
 *    drain barrier;
 *  - store (S): the store FSM archives the whole context, so software
 *    may clobber freely but must reload every context register from
 *    the context region (after SWITCH_RF — before it, loads land on
 *    the ISR bank and are lost) unless load (L) restores in hardware;
 *  - omit (O): the skipped restore is only sound when the omitted
 *    loads are statically dead, i.e. the ISR never switches to the
 *    application register bank before `mret` — an explicit SWITCH_RF
 *    under (O) is reported;
 *  - store family: the ISR bank's content is stale at entry, so any
 *    read of a register the path has not yet written is reported.
 *
 * mepc/mstatus are tracked as pseudo-registers: a csrr into a tagged
 * temporary stored to the matching frame slot counts as the save, a
 * csrw counts as the restore. sp is exempt here (the stack-discipline
 * pass owns it); gp/tp are static in FreeRTOS and must never be
 * written on a trap path.
 */

#include <array>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "kernel/layout.hh"
#include "linter.hh"
#include "walker.hh"

namespace rtu {

namespace {

using kernel::frameSlotOfReg;
using kernel::ctxSlotOfReg;

constexpr unsigned kMepcBit = 32;
constexpr unsigned kMstatusBit = 33;

constexpr std::uint64_t
bitOf(unsigned idx)
{
    return std::uint64_t{1} << idx;
}

/** Registers that carry task context: x1, x5..x31 (+ csr bits). */
std::uint64_t
ctxGprMask()
{
    std::uint64_t m = bitOf(RA);
    for (unsigned r = 5; r <= 31; ++r)
        m |= bitOf(r);
    return m;
}

/** Stack-frame byte offset of @p r, or -1 if it has no frame slot. */
SWord
frameSlotFor(RegIndex r)
{
    if (r == RA)
        return kernel::kFrameX1;
    if (r >= 5 && r <= 31)
        return static_cast<SWord>(frameSlotOfReg(r));
    return -1;
}

/** Context-region byte offset of @p r, or -1. */
SWord
ctxSlotFor(RegIndex r)
{
    if (r == RA)
        return kernel::kCtxX1;
    if (r == SP)
        return kernel::kCtxX2;
    if (r >= 5 && r <= 31)
        return static_cast<SWord>(ctxSlotOfReg(r));
    return -1;
}

/** Value provenance tag for the csr save patterns. */
enum CsrTag : std::uint8_t { kTagNone = 0, kTagMepc = 1, kTagMstatus = 2 };

struct CtxState
{
    std::uint64_t saved = 0;     ///< reg archived (sw or hardware)
    std::uint64_t restored = 0;  ///< reg reinstated for the next task
    std::uint64_t written = 0;   ///< GPR written since trap entry
    std::array<std::uint8_t, 32> tag{};
    bool switchedRf = false;
    /** Path rebased the frame (non-addi sp write) or latched a next
     *  task (SET_CONTEXT_ID / SWITCH_RF): the exit is a task switch
     *  and every context register must be reinstated before mret. */
    bool frameSwitched = false;
    std::vector<Addr> retStack;

    std::string
    key() const
    {
        std::string k;
        k.reserve(64 + 4 * retStack.size());
        auto put = [&k](std::uint64_t v, unsigned bytes) {
            for (unsigned i = 0; i < bytes; ++i)
                k.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
        };
        put(saved, 8);
        put(restored, 8);
        put(written, 8);
        put((switchedRf ? 1 : 0) | (frameSwitched ? 2 : 0), 1);
        for (std::uint8_t t : tag)
            k.push_back(static_cast<char>(t));
        for (Addr a : retStack)
            put(a, 4);
        return k;
    }
};

/** Trap-path calls nested deeper than this are reported, not followed. */
constexpr size_t kMaxCallDepth = 16;

/** Interprocedural walk from k_isr: calls push a return stack. */
class ContextPolicy
{
  public:
    using State = CtxState;

    ContextPolicy(PathWalker &walker, const RtosUnitConfig &unit)
        : walker_(walker), unit_(unit)
    {
        if (unit_.store) {
            hwSaved_ = ctxGprMask() | bitOf(SP) | bitOf(kMepcBit) |
                       bitOf(kMstatusBit);
        } else if (unit_.cv32rt) {
            for (unsigned r = 16; r <= 31; ++r)
                hwSaved_ |= bitOf(r);
        }
        if (unit_.load) {
            hwRestored_ = ctxGprMask() | bitOf(kMepcBit) |
                          bitOf(kMstatusBit);
        }
    }

    CtxState
    entryState() const
    {
        CtxState init;
        init.saved = hwSaved_;
        return init;
    }

    std::string key(const CtxState &st) const { return st.key(); }

    /** Falling off text ends a path; the soundness pass reports it. */
    bool inRange(Addr pc) const { return walker_.cfg().contains(pc); }

    Addr
    step(Addr pc, const DecodedInsn &d, CtxState &st)
    {
        checkReads(pc, d, st);

        switch (d.op) {
          case Op::kMret:
            finishAtMret(pc, st);
            return kPathEnd;
          case Op::kJal:
            applyWrite(pc, d, st, /*is_restore=*/false);
            if (d.rd == RA) {
                if (st.retStack.size() >= kMaxCallDepth) {
                    walker_.report(Severity::kError, "lint-call-depth", pc,
                                   "call depth exceeded on trap path");
                    return kPathEnd;
                }
                st.retStack.push_back(pc + 4);
            }
            return pc + static_cast<Word>(d.imm);
          case Op::kJalr: {
            // "ret" out of the trap path ends it; other indirect
            // jumps are the soundness pass's to report.
            if (!isReturn(d) || st.retStack.empty())
                return kPathEnd;
            const Addr ret = st.retStack.back();
            st.retStack.pop_back();
            return ret;
          }
          case Op::kSwitchRf:
            if (unit_.omit) {
                walker_.report(Severity::kError, "omit-live-load", pc,
                               "SWITCH_RF on the trap path makes omitted "
                               "restore loads live: software touches the "
                               "application register bank under (O)");
            }
            st.switchedRf = true;
            st.frameSwitched = true;
            return pc + 4;
          case Op::kInvalid:
            return kPathEnd;  // the soundness pass reports it
          default:
            break;
        }

        applySave(d, st);
        const bool restore = isRestoreLoad(pc, d, st);
        applyWrite(pc, d, st, restore);
        applyCsr(pc, d, st);
        if (d.op == Op::kSetContextId)
            st.frameSwitched = true;  // a next task is latched
        return pc + 4;
    }

  private:
    /** Store-family ISR banks hold stale values at trap entry. */
    void
    checkReads(Addr pc, const DecodedInsn &d, const CtxState &st)
    {
        if (!unit_.store)
            return;
        auto check = [&](RegIndex r) {
            if (r != Zero && (st.written & bitOf(r)) == 0) {
                walker_.report(Severity::kError, "isr-uninit-read", pc,
                               csprintf("read of %s before any write on the "
                                        "trap path: the ISR register bank is "
                                        "stale at entry", regName(r)));
            }
        };
        if (readsRs1(d.op))
            check(d.rs1);
        if (readsRs2(d.op))
            check(d.rs2);
    }

    /** Frame/context-region store that archives a register or csr. */
    void
    applySave(const DecodedInsn &d, CtxState &st)
    {
        if (d.op != Op::kSw || unit_.store || d.rs1 != SP)
            return;
        if (frameSlotFor(d.rs2) == d.imm)
            st.saved |= bitOf(d.rs2);
        if (d.imm == static_cast<SWord>(kernel::kFrameMepc) &&
            st.tag[d.rs2] == kTagMepc)
            st.saved |= bitOf(kMepcBit);
        if (d.imm == static_cast<SWord>(kernel::kFrameMstatus) &&
            st.tag[d.rs2] == kTagMstatus)
            st.saved |= bitOf(kMstatusBit);
    }

    /** Does this load reinstate its destination's task value? */
    bool
    isRestoreLoad(Addr pc, const DecodedInsn &d, const CtxState &st)
    {
        if (d.op != Op::kLw)
            return false;
        if (!unit_.store) {
            // Frame reload relative to sp (vanilla/T/CV32RT).
            if (d.rs1 != SP || frameSlotFor(d.rd) != d.imm)
                return false;
            if (unit_.cv32rt && (hwSaved_ & bitOf(d.rd)) != 0 &&
                !st.switchedRf) {
                walker_.report(Severity::kError, "ctx-restore-before-barrier",
                               pc,
                               csprintf("frame slot of %s is drained by "
                                        "hardware; reloading it before the "
                                        "SWITCH_RF barrier races the drain",
                                        regName(d.rd)));
            }
            return true;
        }
        if (unit_.load)
            return false;  // restore is hardware's job
        // Context-region reload (store-only family).
        if (ctxSlotFor(d.rd) != d.imm)
            return false;
        if (!st.switchedRf) {
            walker_.report(Severity::kError, "ctx-restore-before-barrier", pc,
                           csprintf("context reload of %s before SWITCH_RF "
                                    "lands on the ISR bank and is lost at the "
                                    "bank switch", regName(d.rd)));
        }
        return true;
    }

    void
    applyWrite(Addr pc, const DecodedInsn &d, CtxState &st,
               bool is_restore)
    {
        if (!writesRd(d.op) || d.rd == Zero)
            return;
        const RegIndex r = d.rd;
        st.tag[r] = kTagNone;
        st.written |= bitOf(r);
        if (r == SP) {
            // Balance is the stack-discipline pass's job, but a
            // non-incremental sp write is the frame switch (vanilla
            // family: `lw sp, kTcbTop(tcb)`; store family: the ISR
            // stack rebase preceding the context-region reload).
            if (!(d.op == Op::kAddi && d.rs1 == SP))
                st.frameSwitched = true;
            return;
        }
        if (r == GP || r == TP) {
            walker_.report(Severity::kError, "ctx-clobbered-before-save", pc,
                           csprintf("%s is static in FreeRTOS and must never "
                                    "be written on a trap path", regName(r)));
            return;
        }
        if (is_restore) {
            st.restored |= bitOf(r);
            return;
        }
        st.restored &= ~bitOf(r);
        if ((st.saved & bitOf(r)) == 0) {
            walker_.report(Severity::kError, "ctx-clobbered-before-save", pc,
                           csprintf("%s written on the trap path before being "
                                    "saved (config %s does not save it in "
                                    "hardware)", regName(r),
                                    unit_.name().c_str()));
        }
    }

    void
    applyCsr(Addr pc, const DecodedInsn &d, CtxState &st)
    {
        if (classOf(d.op) != InsnClass::kCsr)
            return;
        if (d.rd != Zero) {
            st.tag[d.rd] = d.csr == csr::kMepc      ? kTagMepc
                           : d.csr == csr::kMstatus ? kTagMstatus
                                                    : kTagNone;
        }
        const bool writes_csr =
            d.op == Op::kCsrrw || d.op == Op::kCsrrwi ||
            ((d.op == Op::kCsrrs || d.op == Op::kCsrrc) &&
             d.rs1 != Zero) ||
            ((d.op == Op::kCsrrsi || d.op == Op::kCsrrci) &&
             d.imm != 0);
        if (!writes_csr)
            return;
        const unsigned b = d.csr == csr::kMepc      ? kMepcBit
                           : d.csr == csr::kMstatus ? kMstatusBit
                                                    : 0;
        if (b == 0)
            return;
        if ((st.saved & bitOf(b)) == 0) {
            walker_.report(Severity::kError, "ctx-clobbered-before-save", pc,
                           csprintf("%s overwritten on the trap path before "
                                    "being saved",
                                    b == kMepcBit ? "mepc" : "mstatus"));
        }
        st.restored |= bitOf(b);
    }

    void
    finishAtMret(Addr pc, const CtxState &st)
    {
        // A task-switch exit (frame rebase or latched next task) must
        // reinstate every context register, or the outgoing task's
        // values leak into the incoming one. A non-switch exit resumes
        // the interrupted task: only registers the path clobbered need
        // reinstating.
        const std::uint64_t required =
            ctxGprMask() | bitOf(kMepcBit) | bitOf(kMstatusBit);
        const bool switch_exit = st.frameSwitched;
        std::string missing;
        for (unsigned b = 0; b <= kMstatusBit; ++b) {
            if ((required & bitOf(b)) == 0)
                continue;
            if ((st.restored | hwRestored_) & bitOf(b))
                continue;
            const bool touched =
                b < 32 ? (st.written & bitOf(b)) != 0 : false;
            if (!switch_exit && !touched)
                continue;
            if (!missing.empty())
                missing += ", ";
            missing += b == kMepcBit      ? "mepc"
                       : b == kMstatusBit ? "mstatus"
                                          : regName(b);
        }
        if (!missing.empty()) {
            walker_.report(Severity::kError, "ctx-not-restored", pc,
                           csprintf("mret reached with context registers not "
                                    "reinstated under config %s: %s",
                                    unit_.name().c_str(), missing.c_str()));
        }
    }

    PathWalker &walker_;
    const RtosUnitConfig &unit_;
    std::uint64_t hwSaved_ = 0;
    std::uint64_t hwRestored_ = 0;
};

} // namespace

void
checkContextIntegrity(const Cfg &cfg, const RtosUnitConfig &unit,
                      const LintOptions &, std::vector<Diagnostic> &out)
{
    const auto it = cfg.program().symbols.find("k_isr");
    if (it == cfg.program().symbols.end() || !cfg.contains(it->second))
        return;  // no trap entry: nothing to verify
    PathWalker walker(cfg, out, "context-integrity");
    ContextPolicy policy(walker, unit);
    walker.walk(policy, it->second, policy.entryState());
}

} // namespace rtu
