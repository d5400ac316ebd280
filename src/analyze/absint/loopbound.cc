/**
 * @file
 * Loop-bound inference: natural-loop enumeration plus three bound
 * recognizers evaluated over the engine's final abstract states.
 *
 *  R1 (guarded counting loop): a register with exactly one in-loop
 *     definition `addi r, r, c` and an exit guard `r == f` (exit on
 *     equality) against a constant f. The trip count follows from the
 *     entry interval of r, the step c and f. Both
 *     the stepping block and the guard block must dominate the latch
 *     (every iteration steps and is tested), or the arithmetic says
 *     nothing about the back edge.
 *
 *  R3 (sentinel list walk): an exit guard `w == s` (exit on equality)
 *     against a fixed list sentinel, where every non-call definition
 *     of w inside the loop is a load. The sentinel operand must be
 *     constant at the guard or a loop-invariant in-data pointer set
 *     (a wait-list head reached through an object argument). The
 *     walker must either provably stay inside the data section, or
 *     the loop must have one of the two list-walk shapes:
 *       - advance: every load defining w is `lw w, off(w)` -- each
 *         continue follows one link;
 *       - drain: every load defining w is `lw w, off(s)` in the guard
 *         block (the head is re-read each iteration) and the body
 *         re-points an `off` link through another register (the head
 *         unlink) -- each continue removes one node.
 *     In both shapes the runtime list oracles (no cycles, a node is
 *     on at most one list) bound the walk by the number of registered
 *     tasks -- counted as the distinct non-null TCB pointers the
 *     abstract memory records in k_task_table.
 *
 *  R2 (unguarded countdown, fallback): a single `addi r, r, c` with
 *     c < 0 stepping a register whose entry interval is non-negative.
 *     Assumes the loop's consumer exits at or before zero (kernel
 *     invariant: priorities and indices are non-negative, enforced by
 *     the scheduler-state runtime oracles), giving ceil(E.hi / |c|).
 *
 * R1/R3 are sound under the engine's environment assumptions alone;
 * R2 additionally leans on the non-negative-counter invariant and is
 * only used when neither R1 nor R3 matches.
 */

#include <algorithm>
#include <array>
#include <set>

#include "analyze/absint/loopbound.hh"
#include "common/logging.hh"

namespace rtu {

namespace {

using I64 = std::int64_t;

/** Bounds above this are discarded as useless for WCET budgeting (and
 *  would make the longest-path search explode). */
constexpr I64 kMaxUsefulBound = I64{1} << 20;

constexpr unsigned kCallerSaved[] = {1,  5,  6,  7,  10, 11, 12, 13,
                                     14, 15, 16, 17, 28, 29, 30, 31};

/** Per-register definition census over one loop body. */
struct DefInfo
{
    std::array<unsigned, 32> loadDefs{};
    std::array<unsigned, 32> stepDefs{};  ///< addi r, r, c
    std::array<unsigned, 32> otherDefs{};
    std::array<unsigned, 32> clobbers{};  ///< via in-loop calls
    std::array<I64, 32> stepC{};
    std::array<Addr, 32> stepBlock{};  ///< leader of the stepping block
    bool analyzable = true;
};

struct Guard
{
    Addr leader = 0;
    Addr termPc = 0;
    DecodedInsn d{};
    bool exitOnTaken = false;
};

struct Loop
{
    Addr head = 0;
    Addr latch = 0;  ///< latch block leader
    Addr backPc = 0;
    std::set<Addr> blocks;  ///< member leaders
};

class BoundInferrer
{
  public:
    BoundInferrer(const AbsintEngine &engine,
                  const LoopBoundOptions &options, LoopBoundResult &out)
        : engine_(engine), cfg_(engine.cfg()),
          program_(engine.program()), options_(options), out_(out)
    {
        for (const auto &[leader, bb] : cfg_.blocks())
            for (Addr s : bb.succs)
                preds_[s].push_back(leader);
    }

    void
    run()
    {
        if (!engine_.converged()) {
            for (const auto &[pc, bound] : program_.loopBounds)
                out_.diags.push_back(diagAt(
                    cfg_, Severity::kWarning, "loop-bound-unverified", pc,
                    csprintf("abstract interpretation did not "
                             "converge; annotated bound %u is "
                             "unchecked", bound)));
            return;
        }

        std::set<Addr> backEdges;
        for (const auto &[leader, bb] : cfg_.blocks()) {
            if (bb.term != TermKind::kJump && bb.term != TermKind::kBranch)
                continue;
            if (bb.takenTarget == 0 || bb.takenTarget > bb.termPc())
                continue;
            backEdges.insert(bb.termPc());
            processBackEdge(leader, bb);
        }

        // Annotations that do not sit on any backward edge cannot be
        // checked against a loop trip count.
        for (const auto &[pc, bound] : program_.loopBounds) {
            if (backEdges.count(pc))
                continue;
            out_.diags.push_back(diagAt(
                cfg_, Severity::kWarning, "loop-bound-unverified", pc,
                csprintf("annotated bound %u is not attached to a "
                         "backward edge; nothing to verify", bound)));
        }
    }

  private:
    void
    processBackEdge(Addr leader, const BasicBlock &bb)
    {
        const Addr head = bb.takenTarget;
        const Addr backPc = bb.termPc();
        if (cfg_.isClosedLoop(head))
            return;  // terminal idle/fatal parks need no bound

        const AbsintEngine::Region *region = regionOf(head);
        // Dead code (never-called, non-entry-point regions) has no
        // abstract states and never executes: nothing to verify.
        if (region && !region->analyzed)
            return;

        const bool annotated = cfg_.hasLoopBound(backPc);
        const unsigned ann = annotated ? cfg_.loopBound(backPc) : 0;
        std::optional<I64> inferred;
        if (region && leader >= region->begin && leader < region->end) {
            Loop loop = naturalLoop(head, leader, *region);
            loop.backPc = backPc;
            inferred = inferOne(loop);
        }
        if (inferred && *inferred >= 0 &&
            *inferred <= kMaxUsefulBound) {
            out_.inferred[backPc] = static_cast<unsigned>(*inferred);
        } else {
            inferred.reset();
        }

        if (!annotated)
            return;
        if (!inferred) {
            out_.diags.push_back(diagAt(
                cfg_, Severity::kWarning, "loop-bound-unverified", backPc,
                csprintf("annotated bound %u could not be verified: "
                         "no bound recognizer matched this loop", ann)));
        } else if (*inferred > static_cast<I64>(ann)) {
            out_.diags.push_back(diagAt(
                cfg_, Severity::kError, "loop-bound-too-tight", backPc,
                csprintf("annotated bound %u is below the inferred "
                         "worst case %lld: WCET budgets derived from "
                         "this annotation are unsound", ann,
                         static_cast<long long>(*inferred))));
        } else if (*inferred < static_cast<I64>(ann) && options_.pedantic) {
            out_.diags.push_back(diagAt(
                cfg_, Severity::kWarning, "loop-bound-loose", backPc,
                csprintf("annotated bound %u exceeds the inferred "
                         "worst case %lld; the WCET is sound but "
                         "pessimistic", ann,
                         static_cast<long long>(*inferred))));
        }
    }

    const AbsintEngine::Region *
    regionOf(Addr pc) const
    {
        for (const auto &r : engine_.regions())
            if (pc >= r.begin && pc < r.end)
                return &r;
        return nullptr;
    }

    Loop
    naturalLoop(Addr head, Addr latch, const AbsintEngine::Region &region)
    {
        Loop loop;
        loop.head = head;
        loop.latch = latch;
        loop.blocks = {head, latch};
        std::vector<Addr> stack{latch};
        while (!stack.empty()) {
            const Addr b = stack.back();
            stack.pop_back();
            if (b == head)
                continue;
            auto it = preds_.find(b);
            if (it == preds_.end())
                continue;
            for (Addr p : it->second) {
                if (p < region.begin || p >= region.end)
                    continue;
                if (loop.blocks.insert(p).second)
                    stack.push_back(p);
            }
        }
        return loop;
    }

    /** Every head-to-latch path inside the loop passes through @p blk. */
    bool
    dominatesLatch(const Loop &loop, Addr blk) const
    {
        if (blk == loop.head || blk == loop.latch)
            return true;
        std::vector<Addr> stack{loop.head};
        std::set<Addr> seen{loop.head, blk};
        while (!stack.empty()) {
            const Addr b = stack.back();
            stack.pop_back();
            if (b == loop.latch)
                return false;
            for (Addr s : cfg_.blockAt(b).succs)
                if (loop.blocks.count(s) && seen.insert(s).second)
                    stack.push_back(s);
        }
        return true;
    }

    DefInfo
    scanDefs(const Loop &loop) const
    {
        DefInfo di;
        for (Addr leader : loop.blocks) {
            const BasicBlock &bb = cfg_.blockAt(leader);
            switch (bb.term) {
              case TermKind::kReturn:
              case TermKind::kTrapReturn:
              case TermKind::kIndirect:
              case TermKind::kFallOffText:
                di.analyzable = false;
                return di;
              case TermKind::kCall:
                for (unsigned r : kCallerSaved)
                    ++di.clobbers[r];
                break;
              default:
                break;
            }
            for (Addr pc = bb.begin; pc < bb.end; pc += 4) {
                const DecodedInsn &d = cfg_.insnAt(pc);
                if (!writesRd(d.op) || d.rd == 0)
                    continue;
                if (d.op == Op::kJal)
                    continue;  // call terminator counted as clobber
                if (classOf(d.op) == InsnClass::kLoad) {
                    ++di.loadDefs[d.rd];
                } else if (d.op == Op::kAddi && d.rs1 == d.rd &&
                           d.imm != 0) {
                    ++di.stepDefs[d.rd];
                    di.stepC[d.rd] = d.imm;
                    di.stepBlock[d.rd] = leader;
                } else {
                    ++di.otherDefs[d.rd];
                }
            }
        }
        return di;
    }

    std::vector<Guard>
    collectGuards(const Loop &loop) const
    {
        std::vector<Guard> guards;
        for (Addr leader : loop.blocks) {
            const BasicBlock &bb = cfg_.blockAt(leader);
            if (bb.term != TermKind::kBranch)
                continue;
            const bool takenIn = loop.blocks.count(bb.takenTarget) != 0;
            const bool fallIn = loop.blocks.count(bb.end) != 0;
            if (takenIn == fallIn)
                continue;  // both stay or both leave: not an exit guard
            Guard g;
            g.leader = leader;
            g.termPc = bb.termPc();
            g.d = cfg_.insnAt(bb.termPc());
            g.exitOnTaken = !takenIn;
            guards.push_back(g);
        }
        return guards;
    }

    /** Join of r's value along every loop-entry edge (preds of the
     *  head that are outside the loop). */
    std::optional<Interval>
    entryValue(const Loop &loop, unsigned r) const
    {
        AbsVal e = AbsVal::bottom();
        bool any = false;
        auto it = preds_.find(loop.head);
        if (it == preds_.end())
            return std::nullopt;
        for (Addr p : it->second) {
            if (loop.blocks.count(p))
                continue;
            const RegState *st = engine_.edgeState(p, loop.head);
            if (!st || !st->live)
                continue;
            e = AbsVal::join(e, st->reg(r));
            any = true;
        }
        if (!any || e.isBottom())
            return std::nullopt;
        return e.iv;
    }

    /**
     * Bound contribution of one exit guard for the counting register
     * @p r stepping by @p c: how many times can the guard see a value
     * in its continue region, starting from the entry interval E?
     */
    std::optional<I64>
    guardBound(const Loop &loop, const Guard &g, unsigned r, I64 c,
               const Interval &E) const
    {
        const DecodedInsn &d = g.d;
        if (d.rs1 == d.rs2)
            return std::nullopt;
        if (d.rs1 != r && d.rs2 != r)
            return std::nullopt;
        const RegState *ts = engine_.termState(g.leader);
        if (!ts || !ts->live)
            return std::nullopt;
        const unsigned other = (d.rs1 == r) ? d.rs2 : d.rs1;
        const AbsVal &F = ts->reg(other);

        // Only an equality exit is bounded: the loop leaves by
        // hitting F exactly. A guard that continues only while equal,
        // or an ordered predicate (none guards a generated kernel's
        // loop exit), gives no bound.
        const bool eqExit =
            (d.op == Op::kBeq && g.exitOnTaken) ||
            (d.op == Op::kBne && !g.exitOnTaken);
        if (!eqExit || !F.isConst())
            return std::nullopt;
        // The trajectory must approach F from the correct side (and
        // land on it when |c| > 1).
        const I64 f = F.constValue();
        I64 steps = 0;
        if (c < 0) {
            if (E.lo < f)
                return std::nullopt;
            const I64 diff = E.hi - f;
            if (c != -1 && (!E.isConst() || diff % (-c) != 0))
                return std::nullopt;
            steps = diff / (-c);
        } else {
            if (E.hi > f)
                return std::nullopt;
            const I64 diff = f - E.lo;
            if (c != 1 && (!E.isConst() || diff % c != 0))
                return std::nullopt;
            steps = diff / c;
        }
        // A bottom-tested loop (the guard is the back edge itself)
        // evaluates the guard only after the first step, so the
        // equality exit eats one fewer back edge.
        const bool guardIsLatch = g.termPc == loop.backPc;
        return std::max<I64>(steps - (guardIsLatch ? 1 : 0), 0);
    }

    /** Distinct non-null TCB pointers registered in k_task_table. */
    std::optional<I64>
    taskCount() const
    {
        if (taskCountDone_)
            return taskCount_;
        taskCountDone_ = true;
        auto it = program_.symbols.find("k_task_table");
        if (it == program_.symbols.end())
            return taskCount_;
        const Addr tbl = it->second;
        Addr end = program_.dataEnd();
        for (const auto &[name, a] : program_.symbols)
            if (a > tbl && a < end)
                end = a;
        std::set<I64> ids;
        for (Addr a = tbl; a < end; a += 4) {
            const AbsVal cv = engine_.cellValue(a);
            if (cv.hasSet) {
                for (I64 v : cv.consts)
                    if (v != 0)
                        ids.insert(v);
            } else if (cv.isConst()) {
                if (cv.constValue() != 0)
                    ids.insert(cv.constValue());
            } else {
                return taskCount_;  // table contents unresolved
            }
        }
        if (!ids.empty())
            taskCount_ = static_cast<I64>(ids.size());
        return taskCount_;
    }

    bool
    walkerStaysInData(const AbsVal &wv) const
    {
        if (wv.isBottom())
            return false;
        if (wv.hasSet) {
            for (I64 v : wv.consts)
                if (v != 0 && !engine_.inData(static_cast<Addr>(v)))
                    return false;
            return true;
        }
        const Addr lo = static_cast<Addr>(wv.iv.lo);
        const Addr hi = static_cast<Addr>(wv.iv.hi);
        if (wv.iv.lo < 0 || wv.iv.hi < wv.iv.lo)
            return false;
        if (!engine_.inData(hi))
            return false;
        return wv.iv.lo == 0 || engine_.inData(lo);
    }

    /** True when @p v is a pointer (set) whose non-null members all
     *  lie in the data section. */
    bool
    inDataPointer(const AbsVal &v) const
    {
        if (v.isConst())
            return v.constValue() > 0 &&
                   engine_.inData(static_cast<Addr>(v.constValue()));
        if (!v.hasSet)
            return false;
        bool any = false;
        for (I64 c : v.consts) {
            if (c == 0)
                continue;
            if (c < 0 || !engine_.inData(static_cast<Addr>(c)))
                return false;
            any = true;
        }
        return any;
    }

    /**
     * Structural list-walk check for walker @p w against sentinel
     * register @p s: every in-loop load defining w chases a fixed
     * offset either from w itself (advance shape) or from s in the
     * guard block (drain shape, which additionally needs an in-loop
     * store re-pointing an `off` link so the walk actually shrinks
     * the list).
     */
    bool
    chaseStructure(const Loop &loop, const Guard &g, unsigned w,
                   unsigned s) const
    {
        bool sawLoad = false, fromSelf = false, fromSentinel = false;
        I64 off = 0;
        for (Addr leader : loop.blocks) {
            const BasicBlock &bb = cfg_.blockAt(leader);
            for (Addr pc = bb.begin; pc < bb.end; pc += 4) {
                const DecodedInsn &d = cfg_.insnAt(pc);
                if (classOf(d.op) != InsnClass::kLoad || d.rd != w)
                    continue;
                if (sawLoad && d.imm != off)
                    return false;  // mixed fields: not one list's links
                off = d.imm;
                sawLoad = true;
                if (d.rs1 == w) {
                    fromSelf = true;
                } else if (d.rs1 == s && leader == g.leader) {
                    fromSentinel = true;
                } else {
                    return false;
                }
            }
        }
        if (!sawLoad || (fromSelf && fromSentinel))
            return false;
        if (fromSelf)
            return true;
        // Drain shape: some store inside the loop must re-point an
        // `off` link through a register other than the sentinel (the
        // head-unlink write), or the re-read head never changes.
        for (Addr leader : loop.blocks) {
            const BasicBlock &bb = cfg_.blockAt(leader);
            for (Addr pc = bb.begin; pc < bb.end; pc += 4) {
                const DecodedInsn &d = cfg_.insnAt(pc);
                if (classOf(d.op) == InsnClass::kStore && d.imm == off &&
                    d.rs1 != s)
                    return true;
            }
        }
        return false;
    }

    /** R3: sentinel-terminated list walk through one exit guard. */
    std::optional<I64>
    listWalkBound(const Loop &loop, const Guard &g,
                  const DefInfo &di) const
    {
        const DecodedInsn &d = g.d;
        const bool eqExit =
            (d.op == Op::kBeq && g.exitOnTaken) ||
            (d.op == Op::kBne && !g.exitOnTaken);
        if (!eqExit || d.rs1 == d.rs2)
            return std::nullopt;
        const RegState *ts = engine_.termState(g.leader);
        if (!ts || !ts->live)
            return std::nullopt;
        if (!dominatesLatch(loop, g.leader))
            return std::nullopt;
        for (const auto &[w, s] :
             {std::pair<unsigned, unsigned>{d.rs1, d.rs2},
              std::pair<unsigned, unsigned>{d.rs2, d.rs1}}) {
            if (w == 0 || s == 0)
                continue;
            // The sentinel stays fixed across the walk: constant at
            // the guard, or never written in the loop and known to be
            // an in-data pointer (wait-list heads reached through an
            // object argument).
            const AbsVal &sv = ts->reg(s);
            const bool sentinelConst =
                sv.isConst() && sv.constValue() > 0 &&
                engine_.inData(static_cast<Addr>(sv.constValue()));
            const bool sentinelInvariant =
                di.loadDefs[s] == 0 && di.stepDefs[s] == 0 &&
                di.otherDefs[s] == 0 && di.clobbers[s] == 0 &&
                inDataPointer(sv);
            if (!sentinelConst && !sentinelInvariant)
                continue;
            if (di.loadDefs[w] == 0 || di.stepDefs[w] != 0 ||
                di.otherDefs[w] != 0 || di.clobbers[w] != 0)
                continue;
            if (!walkerStaysInData(ts->reg(w)) &&
                !chaseStructure(loop, g, w, s))
                continue;
            return taskCount();
        }
        return std::nullopt;
    }

    std::optional<I64>
    inferOne(const Loop &loop) const
    {
        const DefInfo di = scanDefs(loop);
        if (!di.analyzable)
            return std::nullopt;
        const std::vector<Guard> guards = collectGuards(loop);

        auto keepMin = [](std::optional<I64> &best, std::optional<I64> b) {
            if (b && (!best || *b < *best))
                best = b;
        };

        std::optional<I64> best;
        // R1: guarded counting registers.
        for (unsigned r = 1; r < 32; ++r) {
            if (di.stepDefs[r] != 1 || di.loadDefs[r] != 0 ||
                di.otherDefs[r] != 0 || di.clobbers[r] != 0)
                continue;
            if (!dominatesLatch(loop, di.stepBlock[r]))
                continue;
            const auto E = entryValue(loop, r);
            if (!E)
                continue;
            for (const Guard &g : guards) {
                if (!dominatesLatch(loop, g.leader))
                    continue;
                keepMin(best, guardBound(loop, g, r, di.stepC[r], *E));
            }
        }
        // R3: sentinel list walks.
        for (const Guard &g : guards)
            keepMin(best, listWalkBound(loop, g, di));
        if (best)
            return best;

        // R2: unguarded countdown fallback.
        for (unsigned r = 1; r < 32; ++r) {
            if (di.stepDefs[r] != 1 || di.loadDefs[r] != 0 ||
                di.otherDefs[r] != 0 || di.clobbers[r] != 0)
                continue;
            const I64 c = di.stepC[r];
            if (c >= 0)
                continue;
            if (!dominatesLatch(loop, di.stepBlock[r]))
                continue;
            const auto E = entryValue(loop, r);
            if (!E || E->lo < 0 || E->hi >= Interval::kMax)
                continue;
            keepMin(best, (E->hi + (-c) - 1) / (-c));
        }
        return best;
    }

    const AbsintEngine &engine_;
    const Cfg &cfg_;
    const Program &program_;
    const LoopBoundOptions &options_;
    LoopBoundResult &out_;
    std::map<Addr, std::vector<Addr>> preds_;
    mutable bool taskCountDone_ = false;
    mutable std::optional<I64> taskCount_;
};

} // namespace

LoopBoundResult
inferLoopBounds(const AbsintEngine &engine, const LoopBoundOptions &options)
{
    LoopBoundResult result;
    BoundInferrer inferrer(engine, options, result);
    inferrer.run();
    return result;
}

AbsintFacts
deriveAbsintFacts(const Program &program)
{
    AbsintEngine engine(program);
    engine.run();
    AbsintFacts facts;
    if (!engine.converged())
        return facts;
    LoopBoundResult bounds = inferLoopBounds(engine);
    facts.inferredBounds = std::move(bounds.inferred);
    facts.infeasibleTaken = engine.infeasibleTaken();
    facts.infeasibleFall = engine.infeasibleFall();
    return facts;
}

} // namespace rtu
