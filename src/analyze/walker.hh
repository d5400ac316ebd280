/**
 * @file
 * Path-walk skeleton shared by the symbolic analyses: lint passes 1-3
 * (context integrity, callee-saved ABI, stack discipline) and the
 * worst-case stack usage walk (absint/wcsu).
 *
 * Every one of them explores each path through the CFG with its own
 * per-path state. PathWalker owns what they share:
 *
 *  - a LIFO (pc, State) worklist: a conditional branch pushes its
 *    taken target with a copy of the state and the walk continues on
 *    the fall-through;
 *  - memoisation at CFG block leaders under Policy::key(state): a path
 *    ends where it re-enters a leader in an already explored state;
 *  - one state budget per pass per program (kWalkStateBudget new
 *    leader states, counted across all of the pass's walks);
 *    exhausting it stops the pass and emits exactly one
 *    "lint-budget-exceeded" warning;
 *  - code@pc-deduplicated Diagnostic construction.
 *
 * A policy supplies the rest:
 *
 *   using State = ...;               per-path state
 *   Key key(const State &) const;    memo key (std::hash-able)
 *   bool inRange(Addr pc) const;     pcs a path may run through
 *   Addr step(Addr pc, const DecodedInsn &d, State &st);
 *                                    transfer + control: the next pc,
 *                                    or kPathEnd. A conditional
 *                                    branch returns its fall-through;
 *                                    the skeleton forks the taken edge.
 *   void join(Addr leader, const State &st);   (optional) sees every
 *                                    newly memoised leader state
 */

#ifndef RTU_ANALYZE_WALKER_HH
#define RTU_ANALYZE_WALKER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cfg.hh"
#include "diag.hh"

namespace rtu {

/** New leader states one pass may explore per program. */
constexpr unsigned kWalkStateBudget = 200'000;

/** Policy::step result: the path ends at this instruction. */
constexpr Addr kPathEnd = ~Addr{0};

/**
 * Symbolic stack-pointer value, shared by the stack-discipline pass
 * and WCSU:
 *
 *  - entry-relative: a delta from the function's entry SP (`addi sp,
 *    sp, imm` frame pushes and pops);
 *  - absolute: a machine address, entered through a `lui sp` /
 *    `auipc sp` rebase (`la sp, <region>_top` expands to `lui` +
 *    `addi`, both precise in this mode);
 *  - unknown: after any other SP write (`lw sp, ...` frame switch,
 *    computed rebase). `value` then accumulates the `addi sp` offsets
 *    applied since the switch; a client that has no use for them
 *    leaves them out of its memo key.
 */
struct SpValue
{
    enum Mode : std::uint8_t { kEntryRel, kAbsolute, kUnknown };
    Mode mode = kEntryRel;
    std::int64_t value = 0;

    /** Transfer for an instruction that writes sp (rd == sp). */
    void
    write(Addr pc, const DecodedInsn &d)
    {
        if (d.op == Op::kAddi && d.rs1 == SP) {
            value += d.imm;
        } else if (d.op == Op::kLui) {
            *this = {kAbsolute, static_cast<std::int32_t>(
                                    static_cast<Word>(d.imm) << 12)};
        } else if (d.op == Op::kAuipc) {
            *this = {kAbsolute,
                     static_cast<std::int32_t>(
                         pc + (static_cast<Word>(d.imm) << 12))};
        } else {
            *this = {kUnknown, 0};
        }
    }

    /** Exact memo key over (mode, value). */
    std::uint64_t
    key() const
    {
        return (static_cast<std::uint64_t>(value) << 2) | mode;
    }
};

class PathWalker
{
  public:
    /** @p pass names the pass in the budget warning. */
    PathWalker(const Cfg &cfg, std::vector<Diagnostic> &out,
               std::string pass)
        : cfg_(cfg), out_(out), pass_(std::move(pass))
    {
    }

    const Cfg &cfg() const { return cfg_; }

    /** The pass ran out of budget; its results are partial. */
    bool exhausted() const { return exhausted_; }

    /** Append a pc-anchored diagnostic, once per code@pc. */
    void report(Severity severity, const std::string &code, Addr pc,
                const std::string &message);

    /**
     * Explore every path from @p entry. Re-entrant: a policy may start
     * a nested walk from inside step() (WCSU walks callees that way).
     */
    template <typename Policy>
    void
    walk(Policy &policy, Addr entry, typename Policy::State init)
    {
        using State = typename Policy::State;
        using Key = decltype(policy.key(init));
        std::vector<std::pair<Addr, State>> work;
        std::unordered_map<Addr, std::unordered_set<Key>> seen;
        work.emplace_back(entry, std::move(init));
        while (!work.empty()) {
            auto [pc, st] = std::move(work.back());
            work.pop_back();
            while (policy.inRange(pc)) {
                if (cfg_.blocks().count(pc) != 0) {
                    if (outOfBudget(pc))
                        return;
                    if (!seen[pc].insert(policy.key(st)).second)
                        break;
                    ++states_;
                    if constexpr (requires { policy.join(pc, st); })
                        policy.join(pc, st);
                }
                const DecodedInsn &d = cfg_.insnAt(pc);
                const Addr next = policy.step(pc, d, st);
                if (next == kPathEnd)
                    break;
                if (d.cls == InsnClass::kBranch) {
                    const Addr taken = pc + static_cast<Word>(d.imm);
                    if (policy.inRange(taken))
                        work.emplace_back(taken, st);
                }
                pc = next;
            }
        }
    }

  private:
    /** True once the budget is spent; warns the first time. */
    bool outOfBudget(Addr pc);

    const Cfg &cfg_;
    std::vector<Diagnostic> &out_;
    std::string pass_;
    std::unordered_set<std::string> reported_;
    unsigned states_ = 0;
    bool exhausted_ = false;
};

} // namespace rtu

#endif // RTU_ANALYZE_WALKER_HH
