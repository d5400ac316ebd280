/**
 * @file
 * Pass 2: per-function callee-saved register discipline.
 *
 * Kernel convention (src/kernel/kernel.cc): t0..t6, a0..a7 and ra are
 * clobbered freely inside the kernel; task bodies follow the standard
 * calling convention. This pass verifies the standard-convention side:
 * every path of a function that reaches `ret` must leave s0..s11 with
 * their entry values and `ra` with the return address — either never
 * written, or spilled to a stack slot and reloaded from the same slot.
 *
 * Calls are not followed: callees are assumed s-preserving (each is
 * checked on its own) but clobber `ra`. Paths that leave the function
 * by a jump or end in `mret` / an indirect jump carry no obligation
 * here (the trap path is pass 1's job, cross-function jumps in the
 * generated kernel only reach non-returning code).
 */

#include <array>
#include <climits>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "linter.hh"
#include "walker.hh"

namespace rtu {

namespace {

constexpr int kNumTracked = 13;  ///< s0..s11 = 0..11, ra = 12
constexpr int kRaIndex = 12;
constexpr int kWildSlot = INT_MIN;  ///< saved at unknown sp offset

/** Tracked-register index of @p r, or -1. */
int
csIndexOf(RegIndex r)
{
    if (r == S0 || r == S1)
        return r - S0;  // x8, x9 -> 0, 1
    if (r >= S2 && r <= S11)
        return 2 + (r - S2);  // x18..x27 -> 2..11
    if (r == RA)
        return kRaIndex;
    return -1;
}

const char *
csName(int idx)
{
    static const char *names[kNumTracked] = {
        "s0", "s1", "s2", "s3", "s4",  "s5",  "s6",
        "s7", "s8", "s9", "s10", "s11", "ra",
    };
    return names[idx];
}

struct AbiState
{
    std::uint16_t clobbered = 0;
    std::uint16_t saved = 0;
    std::array<int, kNumTracked> slot{};
    int spDelta = 0;
    bool spKnown = true;

    std::string
    key() const
    {
        std::string k;
        k.reserve(8 + 4 * kNumTracked);
        auto put = [&k](std::uint32_t v) {
            for (unsigned i = 0; i < 4; ++i)
                k.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
        };
        put((std::uint32_t{clobbered} << 16) | saved);
        put(static_cast<std::uint32_t>(spDelta));
        k.push_back(spKnown ? 1 : 0);
        for (int s : slot)
            put(static_cast<std::uint32_t>(s));
        return k;
    }
};

/** Per-function walk; calls are stepped over. */
class AbiPolicy
{
  public:
    using State = AbiState;

    AbiPolicy(PathWalker &walker, Addr begin, Addr end)
        : walker_(walker), begin_(begin), end_(end)
    {
    }

    std::string key(const AbiState &st) const { return st.key(); }

    bool
    inRange(Addr pc) const
    {
        return pc >= begin_ && pc < end_ && walker_.cfg().contains(pc);
    }

    Addr
    step(Addr pc, const DecodedInsn &d, AbiState &st)
    {
        switch (d.op) {
          case Op::kJal:
            if (d.rd == RA) {
                st.clobbered |= 1u << kRaIndex;
                return pc + 4;  // callee assumed balanced + s-preserving
            }
            return pc + static_cast<Word>(d.imm);
          case Op::kJalr:
            if (isReturn(d))
                checkAtReturn(pc, st);
            return kPathEnd;
          case Op::kMret:
          case Op::kInvalid:
            return kPathEnd;
          default:
            break;
        }

        // Spill to a stack slot.
        if (d.op == Op::kSw && d.rs1 == SP) {
            const int idx = csIndexOf(d.rs2);
            if (idx >= 0) {
                st.saved |= 1u << idx;
                st.slot[idx] =
                    st.spKnown ? st.spDelta + d.imm : kWildSlot;
            }
        }

        // Reload from the matching slot restores the entry value.
        if (writesRd(d.op) && d.rd != Zero) {
            const int idx = csIndexOf(d.rd);
            if (idx >= 0) {
                const bool slotMatches =
                    (st.saved & (1u << idx)) != 0 &&
                    (st.slot[idx] == kWildSlot || !st.spKnown ||
                     st.slot[idx] == st.spDelta + d.imm);
                if (d.op == Op::kLw && d.rs1 == SP && slotMatches)
                    st.clobbered &= ~(1u << idx);
                else
                    st.clobbered |= 1u << idx;
            }
            if (d.rd == SP) {
                if (d.op == Op::kAddi && d.rs1 == SP) {
                    if (st.spKnown)
                        st.spDelta += d.imm;
                } else {
                    st.spKnown = false;
                }
            }
        }
        return pc + 4;
    }

  private:
    void
    checkAtReturn(Addr pc, const AbiState &st)
    {
        std::string bad;
        for (int i = 0; i < kRaIndex; ++i) {
            if (st.clobbered & (1u << i)) {
                if (!bad.empty())
                    bad += ", ";
                bad += csName(i);
            }
        }
        if (!bad.empty()) {
            walker_.report(Severity::kError, "abi-callee-saved", pc,
                           csprintf("callee-saved registers clobbered and "
                                    "not restored on a path reaching "
                                    "ret: %s", bad.c_str()));
        }
        if (st.clobbered & (1u << kRaIndex)) {
            walker_.report(Severity::kError, "abi-ra-clobbered", pc,
                           "ra overwritten (by a call or plain write) and "
                           "not restored before ret: returns to the "
                           "wrong address");
        }
    }

    PathWalker &walker_;
    Addr begin_;
    Addr end_;
};

} // namespace

void
checkCalleeSaved(const Cfg &cfg, const LintOptions &,
                 std::vector<Diagnostic> &out)
{
    PathWalker walker(cfg, out, "callee-saved");
    for (const auto &[name, range] : cfg.program().functions) {
        if (range.second > range.first && cfg.contains(range.first)) {
            AbiPolicy policy(walker, range.first, range.second);
            walker.walk(policy, range.first, AbiState{});
        }
    }
}

} // namespace rtu
