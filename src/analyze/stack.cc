/**
 * @file
 * Pass 3: stack-pointer discipline, per function.
 *
 * Tracks SP along every path as an SpValue (walker.hh): entry-relative,
 * absolute after a `lui`/`auipc` rebase, or unknown after a frame
 * switch. Unknown values carry no balance obligation: context-restore
 * paths load the next task's SP legitimately and end in `mret`, which
 * pass 1 owns.
 *
 * Checks:
 *
 *  - joining paths must agree on the SP value ("stack-imbalance"): a
 *    block entered with two different values in the same mode means
 *    some path leaked or double-popped frame bytes, or two absolute
 *    rebases disagree;
 *  - `ret` must see the entry SP ("stack-ret-imbalance") — returning
 *    with a rebased (absolute-mode) SP abandons the caller's frame
 *    and is reported under the same code;
 *  - loads/stores must not address below SP ("stack-below-sp") — the
 *    region below the stack pointer is dead and an interrupt may
 *    clobber it at any instruction boundary.
 */

#include <array>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "linter.hh"
#include "walker.hh"

namespace rtu {

namespace {

std::string
describe(const SpValue &sp)
{
    switch (sp.mode) {
      case SpValue::kEntryRel:
        return csprintf("entry%+d", static_cast<int>(sp.value));
      case SpValue::kAbsolute:
        return csprintf("0x%08x", static_cast<Word>(sp.value));
      default:
        return "unknown";
    }
}

/** Per-function walk over the SP lattice; calls are stepped over. */
class StackPolicy
{
  public:
    using State = SpValue;

    StackPolicy(PathWalker &walker, Addr begin, Addr end)
        : walker_(walker), begin_(begin), end_(end)
    {
    }

    /** Unknown values carry no obligation: one state, whatever the
     *  `addi sp` offsets applied since the frame switch. */
    std::uint64_t
    key(const SpValue &sp) const
    {
        return sp.mode == SpValue::kUnknown ? SpValue{sp.mode, 0}.key()
                                            : sp.key();
    }

    bool
    inRange(Addr pc) const
    {
        return pc >= begin_ && pc < end_ && walker_.cfg().contains(pc);
    }

    /**
     * The first value seen per mode at each leader stands for every
     * later arrival: another value in the same mode means joining
     * paths disagree. Mixed modes (entry-relative vs absolute) are
     * incomparable statically and join silently.
     */
    void
    join(Addr leader, const SpValue &sp)
    {
        if (sp.mode == SpValue::kUnknown)
            return;
        std::optional<std::int64_t> &first = firstValue_[leader][sp.mode];
        if (!first) {
            first = sp.value;
        } else if (*first != sp.value) {
            walker_.report(Severity::kError, "stack-imbalance", leader,
                           csprintf("block entered with conflicting sp "
                                    "values (%s vs %s): paths disagree "
                                    "on the frame size",
                                    describe({sp.mode, *first}).c_str(),
                                    describe(sp).c_str()));
        }
    }

    Addr
    step(Addr pc, const DecodedInsn &d, SpValue &sp)
    {
        switch (d.op) {
          case Op::kJal:
            // A call returns balanced (checked per callee).
            return d.rd == RA ? pc + 4 : pc + static_cast<Word>(d.imm);
          case Op::kJalr:
            if (isReturn(d))
                checkAtReturn(pc, sp);
            return kPathEnd;
          case Op::kMret:
          case Op::kInvalid:
            return kPathEnd;
          default:
            break;
        }

        if ((d.cls == InsnClass::kLoad || d.cls == InsnClass::kStore) &&
            d.rs1 == SP && d.imm < 0) {
            walker_.report(Severity::kError, "stack-below-sp", pc,
                           csprintf("memory access at %d below sp: the "
                                    "region below the stack pointer is "
                                    "dead and interrupts may overwrite "
                                    "it", d.imm));
        }
        // SWITCH_RF writes no rd: the pass follows the current bank's
        // sp through a register-file swap.
        if (writesRd(d.op) && d.rd == SP)
            sp.write(pc, d);
        return pc + 4;
    }

  private:
    void
    checkAtReturn(Addr pc, const SpValue &sp)
    {
        if (sp.mode == SpValue::kEntryRel && sp.value != 0) {
            walker_.report(Severity::kError, "stack-ret-imbalance", pc,
                           csprintf("ret with sp offset %d from the entry "
                                    "value: frame not fully popped",
                                    static_cast<int>(sp.value)));
        } else if (sp.mode == SpValue::kAbsolute) {
            walker_.report(Severity::kError, "stack-ret-imbalance", pc,
                           csprintf("ret with sp rebased to %s: the "
                                    "caller's frame is abandoned",
                                    describe(sp).c_str()));
        }
    }

    PathWalker &walker_;
    Addr begin_;
    Addr end_;
    std::unordered_map<Addr,
                       std::array<std::optional<std::int64_t>, 2>>
        firstValue_;
};

} // namespace

void
checkStackDiscipline(const Cfg &cfg, const LintOptions &,
                     std::vector<Diagnostic> &out)
{
    PathWalker walker(cfg, out, "stack-discipline");
    for (const auto &[name, range] : cfg.program().functions) {
        if (range.second > range.first && cfg.contains(range.first)) {
            StackPolicy policy(walker, range.first, range.second);
            walker.walk(policy, range.first, SpValue{});
        }
    }
}

} // namespace rtu
