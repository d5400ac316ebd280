/**
 * Abstract-interpretation engine (src/analyze/absint): the
 * interval/value-set/congruence domain, the fixpoint engine, the
 * loop-bound recognizers with their seeded-defect fixtures (each must
 * produce exactly the documented diagnostic), worst-case stack usage,
 * the derived-stack-size kernel generator path, and the acceptance
 * check — every generated kernel x workload x configuration point
 * passes the absint pass family clean.
 */

#include <gtest/gtest.h>

#include <random>

#include "analyze/absint/engine.hh"
#include "analyze/absint/interval.hh"
#include "analyze/absint/loopbound.hh"
#include "analyze/absint/wcsu.hh"
#include "analyze/linter.hh"
#include "asm/assembler.hh"
#include "kernel/kernel.hh"
#include "kernel/layout.hh"
#include "workloads/workloads.hh"

using namespace rtu;

namespace {

constexpr Addr kTextBase = 0x0000;
constexpr Addr kDataBase = 0x8000;

std::string
diagsText(const std::vector<Diagnostic> &diags)
{
    std::string out;
    for (const Diagnostic &d : diags)
        out += "  " + diagToString(d) + "\n";
    return out;
}

/** Run only the absint pass family over @p program. */
std::vector<Diagnostic>
absintLint(const Program &program, bool pedantic = false)
{
    LintOptions options;
    options.absint = true;
    options.absintPedanticBounds = pedantic;
    std::vector<Diagnostic> out;
    checkAbsint(program, options, out);
    return out;
}

/**
 * Countdown-loop fixture: t0 counts 10 -> 0, the bnez back edge
 * executes 9 times. @p annotation is attached to the back edge.
 */
Program
countdownLoop(unsigned annotation)
{
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("_start");
    a.li(T0, 10);
    a.label("loop");
    a.addi(T0, T0, -1);
    a.loopBound(annotation);
    a.bnez(T0, "loop");
    a.ret();
    a.fnEnd();
    return a.finish();
}

} // namespace

// ---- interval domain -------------------------------------------------

TEST(Interval, JoinMeetWiden)
{
    const Interval a = Interval::range(2, 5);
    const Interval b = Interval::range(8, 9);
    EXPECT_EQ(Interval::join(a, b), Interval::range(2, 9));
    EXPECT_TRUE(Interval::meet(a, b).isBottom());
    EXPECT_EQ(Interval::meet(Interval::range(2, 8), b),
              Interval::constant(8));

    // Threshold widening: an upward-creeping bound jumps to the next
    // ladder rung rather than iterating to the moon one step at a time.
    const Interval w =
        Interval::widen(Interval::range(0, 3), Interval::range(0, 4));
    EXPECT_EQ(w.lo, 0);
    EXPECT_EQ(w.hi, Interval::kMax);
    // A stable bound is left alone.
    EXPECT_EQ(Interval::widen(a, a), a);
}

TEST(Interval, TransferOverflowDegrades)
{
    // Adding past INT32_MAX may wrap in RV32, so the result must not
    // pretend to be a tight positive range.
    const Interval big = Interval::constant(Interval::kMax);
    const Interval one = Interval::constant(1);
    EXPECT_TRUE(Interval::add(big, one).isTop());
    // In-range arithmetic stays exact.
    EXPECT_EQ(Interval::add(Interval::range(1, 2), Interval::range(10, 20)),
              Interval::range(11, 22));
}

TEST(Interval, DecideBranches)
{
    const Interval lo = Interval::range(0, 3);
    const Interval hi = Interval::range(5, 9);
    EXPECT_EQ(Interval::decide(Op::kBlt, lo, hi), std::optional(true));
    EXPECT_EQ(Interval::decide(Op::kBge, lo, hi), std::optional(false));
    EXPECT_EQ(Interval::decide(Op::kBeq, lo, hi), std::optional(false));
    // Overlapping ranges cannot be decided.
    EXPECT_EQ(Interval::decide(Op::kBlt, lo, Interval::range(2, 4)),
              std::nullopt);
}

// ---- value-set / congruence domain -----------------------------------

TEST(AbsVal, StridedMaterializesSmallSets)
{
    // [0, 224] restricted to multiples of 32 is exactly 8 values:
    // small enough for the exact set (e.g. the 8 ready-list headers).
    const AbsVal v = AbsVal::strided(Interval::range(0, 224), 32, 0);
    ASSERT_TRUE(v.hasSet);
    ASSERT_EQ(v.consts.size(), 8u);
    EXPECT_EQ(v.consts.front(), 0);
    EXPECT_EQ(v.consts.back(), 224);
    EXPECT_EQ(v.valueGap(), 32);

    // Too many members: stays an interval but keeps the congruence.
    const AbsVal w = AbsVal::strided(Interval::range(0, 100'000), 8, 4);
    EXPECT_FALSE(w.hasSet);
    EXPECT_EQ(w.stride, 8);
    EXPECT_EQ(w.iv.lo % 8, 4);
}

TEST(AbsVal, JoinGrowsSetsThenKeepsStride)
{
    const AbsVal j = AbsVal::join(AbsVal::constant(0x8000),
                                  AbsVal::constant(0x8040));
    ASSERT_TRUE(j.hasSet);
    EXPECT_EQ(j.consts.size(), 2u);
    EXPECT_EQ(j.valueGap(), 0x40);

    // Past kMaxConsts the set degrades to its interval hull, but the
    // gcd of the member gaps survives as a congruence.
    AbsVal acc = AbsVal::constant(0);
    const std::int64_t last = 32 * (AbsVal::kMaxConsts + 4);
    for (std::int64_t v = 32; v <= last; v += 32)
        acc = AbsVal::join(acc, AbsVal::constant(v));
    EXPECT_FALSE(acc.hasSet);
    EXPECT_EQ(acc.stride, 32);
}

TEST(AbsVal, Pow2StrideSurvivesWrappingAdd)
{
    // The k_select address pattern: base + (i << 5) where the widened
    // index makes the interval add overflow the 32-bit guard. A
    // power-of-two stride divides 2^32, so the congruence is preserved
    // through the wrap and refinement against the array extent
    // recovers the exact 8-header set.
    const AbsVal base = AbsVal::constant(0x10000014);
    const AbsVal index =
        AbsVal::strided(Interval::range(Interval::kMin, 224), 32, 0);
    const AbsVal sum = absEval(Op::kAdd, base, index);
    ASSERT_FALSE(sum.isBottom());
    EXPECT_EQ(sum.stride, 32);
    EXPECT_EQ(((sum.iv.lo % 32) + 32) % 32, 0x14 % 32);

    const AbsVal refined =
        sum.refined(Interval::range(0x10000014, 0x10000113));
    ASSERT_TRUE(refined.hasSet);
    EXPECT_EQ(refined.consts.size(), 8u);
    EXPECT_EQ(refined.consts.front(), 0x10000014);
    EXPECT_EQ(refined.consts.back(), 0x10000014 + 7 * 32);
}

TEST(AbsVal, RefineByBranch)
{
    // beq taken against a constant pins the unknown operand.
    AbsVal a = AbsVal::fromInterval(Interval::range(0, 10));
    AbsVal b = AbsVal::constant(5);
    refineByBranch(Op::kBeq, /*taken=*/true, a, b);
    EXPECT_TRUE(a.isConst());
    EXPECT_EQ(a.constValue(), 5);

    // blt not-taken: a >= b.
    AbsVal c = AbsVal::fromInterval(Interval::range(0, 10));
    AbsVal d = AbsVal::constant(7);
    refineByBranch(Op::kBlt, /*taken=*/false, c, d);
    EXPECT_EQ(c.iv.lo, 7);
    EXPECT_EQ(c.iv.hi, 10);

    // Contradiction proves the edge infeasible.
    AbsVal e = AbsVal::constant(3);
    AbsVal f = AbsVal::constant(4);
    refineByBranch(Op::kBeq, /*taken=*/true, e, f);
    EXPECT_TRUE(e.isBottom() || f.isBottom());
}

TEST(AbsVal, SetwiseDecideBeatsIntervalHull)
{
    // Two disjoint pointer sets whose interval hulls overlap: the
    // set-pointwise decision still proves inequality.
    const AbsVal a = AbsVal::fromSet({0x8000, 0x8020});
    const AbsVal b = AbsVal::fromSet({0x8010, 0x8030});
    EXPECT_EQ(absDecide(Op::kBeq, a, b), std::optional(false));
    EXPECT_EQ(absDecide(Op::kBne, a, b), std::optional(true));
    EXPECT_EQ(absDecide(Op::kBeq, a, a), std::nullopt);
}

// ---- hash-consed value pool -----------------------------------------

namespace {

/**
 * Seeded corpus over the domain's shapes: bottom, top, constants
 * (including the word extremes), plain and strided intervals, and
 * exact sets of 1..kMaxConsts members.
 */
std::vector<AbsVal>
valueCorpus(unsigned seed)
{
    std::mt19937 rng(seed);
    const auto word = [&](std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    std::vector<AbsVal> corpus = {
        AbsVal::bottom(), AbsVal::top(), AbsVal::constant(0),
        AbsVal::constant(Interval::kMin), AbsVal::constant(Interval::kMax),
        AbsVal::fromInterval(Interval::range(0, 1)),
        AbsVal::fromInterval(Interval::range(Interval::kMin, -1))};
    for (unsigned i = 0; i < 24; ++i) {
        corpus.push_back(AbsVal::constant(word(-64, 64)));
        corpus.push_back(AbsVal::constant(word(0x8000, 0x8100)));
        const std::int64_t lo = word(-4096, 4096);
        corpus.push_back(
            AbsVal::fromInterval(Interval::range(lo, lo + word(1, 9000))));
        const std::int64_t stride = std::int64_t{1} << word(1, 6);
        corpus.push_back(AbsVal::strided(
            Interval::range(lo, lo + stride * word(1, 200)), stride,
            word(-64, 64)));
        std::vector<std::int64_t> members(word(1, AbsVal::kMaxConsts));
        const std::int64_t base = word(0x8000, 0x8100);
        for (std::int64_t &m : members)
            m = base + 4 * word(0, 48);
        corpus.push_back(AbsVal::fromSet(members));
    }
    return corpus;
}

} // namespace

TEST(ValuePool, AgreesWithThePlainDomain)
{
    const std::vector<AbsVal> corpus = valueCorpus(24);
    ValuePool pool;
    std::vector<ValId> ids;
    for (const AbsVal &v : corpus) {
        ids.push_back(pool.intern(v));
        ASSERT_EQ(pool[ids.back()], v) << v.str();
        EXPECT_EQ(pool.gap(ids.back()), v.valueGap()) << v.str();
    }
    EXPECT_EQ(ids[0], ValuePool::kBottom);
    EXPECT_EQ(ids[1], ValuePool::kTop);
    EXPECT_EQ(pool.constant(7), pool.intern(AbsVal::constant(7)));

    const Interval bounds = Interval::range(-100, 0x8040);
    const Op ops[] = {Op::kAdd, Op::kSub, Op::kAnd, Op::kSll, Op::kSrl};
    const Op preds[] = {Op::kBeq, Op::kBne, Op::kBlt, Op::kBgeu};
    for (size_t i = 0; i < corpus.size(); ++i) {
        const AbsVal &a = corpus[i];
        EXPECT_EQ(pool[pool.refined(ids[i], bounds)], a.refined(bounds));
        for (size_t j = 0; j < corpus.size(); ++j) {
            const AbsVal &b = corpus[j];
            const std::string at = a.str() + " | " + b.str();
            // Hash-consing: equal ids exactly when the values are equal.
            ASSERT_EQ(ids[i] == ids[j], a == b) << at;
            const ValId joined = pool.join(ids[i], ids[j]);
            ASSERT_EQ(pool[joined], AbsVal::join(a, b)) << at;
            ASSERT_EQ(pool.join(ids[i], ids[j]), joined) << at;
            ASSERT_EQ(pool[pool.widen(ids[i], ids[j])], AbsVal::widen(a, b))
                << at;
            for (Op op : ops)
                ASSERT_EQ(pool[pool.eval(op, ids[i], ids[j])],
                          absEval(op, a, b))
                    << opName(op) << " " << at;
            for (Op op : preds) {
                for (bool taken : {false, true}) {
                    AbsVal ra = a, rb = b;
                    refineByBranch(op, taken, ra, rb);
                    ValId ia = ids[i], ib = ids[j];
                    pool.refineBranch(op, taken, ia, ib);
                    ASSERT_EQ(pool[ia], ra) << opName(op) << " " << at;
                    ASSERT_EQ(pool[ib], rb) << opName(op) << " " << at;
                }
            }
        }
    }
}

TEST(ValuePool, EnginesShareNoState)
{
    // Two programs that differ in kernel code and data; the second one
    // is analyzed in between two analyses of the first.
    std::vector<Program> programs;
    unsigned seen = 0;
    forEachGeneratedProgram(
        [&](const LintPoint &point) {
            if (seen++ % 40 == 0)
                programs.push_back(point.program);
        },
        /*include_hwsync=*/false);
    ASSERT_GE(programs.size(), 2u);

    AbsintEngine first(programs[0]);
    first.run();
    {
        AbsintEngine other(programs[1]);
        other.run();
    }
    AbsintEngine second(programs[0]);
    second.run();
    ASSERT_EQ(first.converged(), second.converged());

    // A cache shared across engines would hand the second engine other
    // ids (or other values) than the first one interned cold.
    unsigned live = 0;
    const auto same = [&](const RegState *x, const RegState *y) {
        ASSERT_EQ(x == nullptr, y == nullptr);
        if (!x)
            return;
        ++live;
        EXPECT_EQ(x->v, y->v);
        for (unsigned r = 0; r < RegState::kNumSlots; ++r)
            EXPECT_EQ(x->reg(r), y->reg(r));
    };
    for (const auto &[leader, bb] : first.cfg().blocks()) {
        same(first.blockEntry(leader), second.blockEntry(leader));
        same(first.termState(leader), second.termState(leader));
        for (Addr succ : bb.succs)
            same(first.edgeState(leader, succ),
                 second.edgeState(leader, succ));
    }
    EXPECT_GT(live, 100u);
    EXPECT_EQ(first.infeasibleTaken(), second.infeasibleTaken());
    EXPECT_EQ(first.infeasibleFall(), second.infeasibleFall());
    const Program &p = programs[0];
    for (Addr a = p.dataBase; a < p.dataEnd(); a += 4)
        EXPECT_EQ(first.cellValue(a), second.cellValue(a));
}

// ---- engine ----------------------------------------------------------

TEST(AbsintEngine, ConvergesAndTracksTheCounter)
{
    const Program p = countdownLoop(9);
    AbsintEngine engine(p);
    engine.run();
    ASSERT_TRUE(engine.converged());

    // At the bnez the counter must include the whole descending chain
    // and nothing below 0 (the exit refinement pins t0 == 0 after).
    const Addr branch = p.symbol("loop") + 4;
    const RegState *term = engine.termState(p.symbol("loop"));
    ASSERT_NE(term, nullptr);
    EXPECT_GE(term->reg(T0).iv.lo, 0);
    EXPECT_LE(term->reg(T0).iv.hi, 9);

    const RegState *after = engine.edgeState(p.symbol("loop"), branch + 4);
    ASSERT_NE(after, nullptr);
    EXPECT_TRUE(after->reg(T0).isConst());
    EXPECT_EQ(after->reg(T0).constValue(), 0);
}

TEST(AbsintEngine, ProvesInfeasibleBranchEdges)
{
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("_start");
    a.li(T0, 0);
    a.bne(T0, Zero, "unreached");  // t0 == 0: taken edge infeasible
    a.nop();
    a.label("unreached");
    a.ret();
    a.fnEnd();
    const Program p = a.finish();

    AbsintEngine engine(p);
    engine.run();
    ASSERT_TRUE(engine.converged());
    EXPECT_EQ(engine.infeasibleTaken().size(), 1u);
    EXPECT_TRUE(engine.infeasibleFall().empty());

    const AbsintFacts facts = deriveAbsintFacts(p);
    EXPECT_FALSE(facts.empty());
    EXPECT_EQ(facts.infeasibleTaken.size(), 1u);
}

// ---- outer-fixpoint dependency tracking ------------------------------
//
// The engine re-analyzes a region only when an input it read was
// written after its last analysis started. Each fixture below chains
// three root-or-called regions in address order so that a dropped
// dependency is visible in the recorded states: the first region loads
// k_relay; the second stores into k_relay a value it gets through the
// dependency under test, which only a later region provides, in
// round 0. Tracked, the second region runs again in round 1 and the
// first in round 2. Untracked, the second region is skipped, the
// rounds stop, and the first region's last analysis ran before the
// second one updated k_relay.

namespace {

/** True when @p v admits the concrete word @p x. */
bool
admits(const AbsVal &v, std::int64_t x)
{
    if (v.hasSet)
        return std::find(v.consts.begin(), v.consts.end(), x) !=
               v.consts.end();
    return v.iv.contains(x);
}

/** a1 at the return of the first region, which loads k_relay. */
AbsVal
readerValue(const Program &p)
{
    AbsintEngine engine(p);
    engine.run();
    EXPECT_TRUE(engine.converged());
    const Addr reader = p.functions.at("k_task_reader").first;
    const RegState *st = engine.termState(reader);
    return st ? st->reg(A1) : AbsVal::bottom();
}

/** Start a fixture: the data cells and the first region. */
Assembler
relayFixture()
{
    Assembler a(kTextBase, kDataBase);
    a.dataWord("k_relay", 0);
    a.dataWord("k_source", 0);
    a.fnBegin("k_task_reader");
    a.la(T0, "k_relay");
    a.lw(A1, 0, T0);
    a.ret();
    a.fnEnd();
    return a;
}

/** Store @p reg into k_relay and return. */
void
storeRelayAndReturn(Assembler &a, Reg reg)
{
    a.la(T0, "k_relay");
    a.sw(reg, 0, T0);
    a.ret();
    a.fnEnd();
}

} // namespace

TEST(AbsintDeps, DataCellStoredByALaterRegion)
{
    Assembler a = relayFixture();
    a.fnBegin("k_task_relay");
    a.la(T0, "k_source");
    a.lw(T1, 0, T0);
    storeRelayAndReturn(a, T1);
    a.fnBegin("k_task_writer");
    a.la(T0, "k_source");
    a.li(T1, 7);
    a.sw(T1, 0, T0);
    a.ret();
    a.fnEnd();
    const AbsVal v = readerValue(a.finish());
    EXPECT_TRUE(admits(v, 0)) << v.str();
    EXPECT_TRUE(admits(v, 7)) << v.str();
}

TEST(AbsintDeps, CalleeReturnSummary)
{
    Assembler a = relayFixture();
    a.fnBegin("k_task_relay");
    a.call("get_seven");
    storeRelayAndReturn(a, A0);
    a.fnBegin("get_seven");
    a.li(A0, 7);
    a.ret();
    a.fnEnd();
    const AbsVal v = readerValue(a.finish());
    EXPECT_TRUE(admits(v, 0)) << v.str();
    EXPECT_TRUE(admits(v, 7)) << v.str();
}

TEST(AbsintDeps, HardwareListIdsAddedLater)
{
    Assembler a = relayFixture();
    a.fnBegin("k_task_relay");
    a.rtuGetHwSched(A0);
    storeRelayAndReturn(a, A0);
    a.fnBegin("k_task_writer");
    a.li(T1, 5);
    a.li(T2, 1);
    a.rtuAddReady(T1, T2);
    a.ret();
    a.fnEnd();
    const AbsVal v = readerValue(a.finish());
    EXPECT_TRUE(admits(v, 0)) << v.str();
    EXPECT_TRUE(admits(v, 5)) << v.str();
}

// ---- narrowing-sweep dependency tracking ------------------------------
//
// A narrowing sweep skips a block whose recomputed entry is the input
// of its last transfer when nothing that transfer read was stamped
// since. A converged run's last analyses see no stamps, so these
// fixtures keep the fixpoint moving until the round cap: a ticker (two
// regions relaying k_tick -> k_tock -> k_tick + 1) adds one member to
// k_tick every round, and the recording pass after the cap is each
// region's last analysis. In it, the region under test reads a global
// in its entry block and then, in a later block, writes the ticker's
// new member into that global. The entry block's input is the same in
// the sweep, so only its read log makes the sweep redo it; skipped, it
// keeps the value it read before the write.

namespace {

/** Start a sweep fixture: the ticker's cells and its two regions. */
Assembler
tickerFixture()
{
    Assembler a(kTextBase, kDataBase);
    a.dataWord("k_tick", 0);
    a.dataWord("k_tock", 0);
    a.dataWord("k_relay", 0);
    a.fnBegin("k_task_tick_copy");
    a.la(T0, "k_tick");
    a.lw(T1, 0, T0);
    a.la(T0, "k_tock");
    a.sw(T1, 0, T0);
    a.ret();
    a.fnEnd();
    a.fnBegin("k_task_tick_step");
    a.la(T0, "k_tock");
    a.lw(T1, 0, T0);
    a.addi(T1, T1, 1);
    a.la(T0, "k_tick");
    a.sw(T1, 0, T0);
    a.ret();
    a.fnEnd();
    return a;
}

/** Run @p engine; its ticker must still be moving at the round cap. */
void
runToTheCap(AbsintEngine &engine)
{
    engine.run();
    EXPECT_FALSE(engine.converged());
    EXPECT_EQ(engine.stats().rounds, 24u);
}

} // namespace

TEST(AbsintSweepDeps, DataCellWrittenAfterTheRead)
{
    Assembler a = tickerFixture();
    a.fnBegin("k_task_reader");
    a.la(T0, "k_relay");
    a.lw(A1, 0, T0);
    a.j("write");
    a.label("write");
    a.la(T0, "k_tick");
    a.lw(T1, 0, T0);
    a.la(T0, "k_relay");
    a.sw(T1, 0, T0);
    a.ret();
    a.fnEnd();
    const Program p = a.finish();
    AbsintEngine engine(p);
    runToTheCap(engine);
    const RegState *st = engine.termState(p.symbol("k_task_reader"));
    ASSERT_NE(st, nullptr);
    const AbsVal &tick = engine.cellValue(p.symbol("k_tick"));
    EXPECT_EQ(engine.cellValue(p.symbol("k_relay")), tick);
    EXPECT_EQ(st->reg(A1), tick) << st->reg(A1).str() << " vs "
                                 << tick.str();
}

TEST(AbsintSweepDeps, CalleeSummaryWrittenAfterTheCall)
{
    // relay_rec calls itself before its other path returns k_tick:
    // the worklist transfers the call first, then the return that
    // widens the summary the call read.
    Assembler a = tickerFixture();
    a.fnBegin("k_task_caller");
    a.call("relay_rec");
    a.ret();
    a.fnEnd();
    a.fnBegin("relay_rec");
    a.bnez(A0, "recurse");
    a.la(T0, "k_tick");
    a.lw(A0, 0, T0);
    a.ret();
    a.label("recurse");
    a.call("relay_rec");
    a.ret();
    a.fnEnd();
    const Program p = a.finish();
    AbsintEngine engine(p);
    runToTheCap(engine);
    const Addr call = p.symbol("recurse");
    const RegState *st = engine.edgeState(call, call + 4);
    ASSERT_NE(st, nullptr);
    const AbsVal &tick = engine.cellValue(p.symbol("k_tick"));
    EXPECT_EQ(st->reg(A0), tick) << st->reg(A0).str() << " vs "
                                 << tick.str();
}

TEST(AbsintSweepDeps, HardwareListIdsAddedAfterTheRead)
{
    Assembler a = tickerFixture();
    a.fnBegin("k_task_sched");
    a.rtuGetHwSched(A1);
    a.j("add");
    a.label("add");
    a.la(T0, "k_tick");
    a.lw(T1, 0, T0);
    a.li(T2, 1);
    a.rtuAddReady(T1, T2);
    a.ret();
    a.fnEnd();
    const Program p = a.finish();
    AbsintEngine engine(p);
    runToTheCap(engine);
    const RegState *st = engine.termState(p.symbol("k_task_sched"));
    ASSERT_NE(st, nullptr);
    const AbsVal &tick = engine.cellValue(p.symbol("k_tick"));
    EXPECT_EQ(st->reg(A1), tick) << st->reg(A1).str() << " vs "
                                 << tick.str();
}

TEST(AbsintSweepDeps, HavocRangeAddedAfterTheRead)
{
    // The store through a2 (top at a root entry) havocs the whole data
    // image. It is gated on k_tick holding 25, the member the ticker
    // adds in the recording pass, so the havoc lands in the region's
    // last analysis after its entry block read k_relay.
    Assembler a = tickerFixture();
    a.dataArray("k_pool", 80);
    a.fnBegin("k_task_reader");
    a.la(T0, "k_relay");
    a.lw(A1, 0, T0);
    a.j("gate");
    a.label("gate");
    a.la(T0, "k_tick");
    a.lw(T1, 0, T0);
    a.li(T2, 25);
    a.beq(T1, T2, "wide");
    a.ret();
    a.label("wide");
    a.sw(Zero, 0, A2);
    a.ret();
    a.fnEnd();
    const Program p = a.finish();
    AbsintEngine engine(p);
    runToTheCap(engine);
    ASSERT_NE(engine.blockEntry(p.symbol("wide")), nullptr);
    EXPECT_TRUE(engine.cellValue(p.symbol("k_relay")).isTop());
    const RegState *st = engine.termState(p.symbol("k_task_reader"));
    ASSERT_NE(st, nullptr);
    EXPECT_TRUE(st->reg(A1).isTop()) << st->reg(A1).str();
}

TEST(AbsintSweepDeps, EdgeLeftOutByTheLastVisitIsCleared)
{
    // At `head`, t0 is first {k_scalar}: the load reads {0, 5} and both
    // edges of the beqz are feasible. The back edge makes t0
    // {k_scalar, k_array}, a computed set, so the load drops the
    // scalar member and reads k_array's 5: the last phase-1 visit
    // refutes the taken edge. The sweep finds `head` clean, and its
    // taken edge must not keep the first visit's state.
    Assembler a(kTextBase, kDataBase);
    a.dataWord("k_scalar", 0);
    a.dataArray("k_array", 2, 5);
    a.fnBegin("k_task_store");
    a.la(T0, "k_scalar");
    a.li(T1, 5);
    a.sw(T1, 0, T0);
    a.ret();
    a.fnEnd();
    a.fnBegin("k_task_flip");
    a.la(T0, "k_scalar");
    a.label("head");
    a.lw(T1, 0, T0);
    a.beqz(T1, "out");
    a.la(T0, "k_array");
    a.j("head");
    a.label("out");
    a.ret();
    a.fnEnd();
    const Program p = a.finish();
    AbsintEngine engine(p);
    engine.run();
    ASSERT_TRUE(engine.converged());
    const Addr head = p.symbol("head");
    EXPECT_EQ(engine.infeasibleTaken(), std::set<Addr>{head + 4});
    EXPECT_EQ(engine.edgeState(head, p.symbol("out")), nullptr);
    EXPECT_NE(engine.edgeState(head, head + 8), nullptr);
    EXPECT_GT(engine.stats().sweepSkips, 0u);
}

// ---- loop-bound inference + seeded defects ---------------------------

TEST(LoopBound, InfersCountdownTripCount)
{
    const Program p = countdownLoop(9);
    AbsintEngine engine(p);
    engine.run();
    const LoopBoundResult r = inferLoopBounds(engine);
    ASSERT_EQ(r.inferred.size(), 1u);
    EXPECT_EQ(r.inferred.begin()->second, 9u);
    EXPECT_TRUE(r.diags.empty()) << diagsText(r.diags);
}

TEST(LoopBound, SeededTooTightAnnotationIsAnError)
{
    // Annotated 5, actual worst case 9: WCET budgets derived from the
    // annotation would be unsound.
    const auto diags = absintLint(countdownLoop(5));
    EXPECT_TRUE(hasCode(diags, "loop-bound-too-tight")) << diagsText(diags);
    EXPECT_GE(countErrors(diags), 1u);
}

TEST(LoopBound, ExactAnnotationVerifiesClean)
{
    const auto diags = absintLint(countdownLoop(9));
    EXPECT_TRUE(diags.empty()) << diagsText(diags);
}

TEST(LoopBound, SeededLooseAnnotationIsPedanticOnly)
{
    // Annotated 20, actual worst case 9: sound but pessimistic — only
    // flagged when the pedantic knob is set.
    EXPECT_TRUE(absintLint(countdownLoop(20)).empty());
    const auto diags = absintLint(countdownLoop(20), /*pedantic=*/true);
    EXPECT_TRUE(hasCode(diags, "loop-bound-loose")) << diagsText(diags);
    EXPECT_EQ(countErrors(diags), 0u);
}

TEST(LoopBound, SeededUnrecognizableLoopIsUnverified)
{
    // A halving loop terminates, but no recognizer covers shift steps:
    // the annotation must be flagged as unconfirmed, not trusted.
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("_start");
    a.li(T0, 10);
    a.label("loop");
    a.srli(T0, T0, 1);
    a.loopBound(4);
    a.bnez(T0, "loop");
    a.ret();
    a.fnEnd();
    const auto diags = absintLint(a.finish());
    EXPECT_TRUE(hasCode(diags, "loop-bound-unverified")) << diagsText(diags);
    EXPECT_EQ(countErrors(diags), 0u);
}

// ---- worst-case stack usage ------------------------------------------

TEST(Wcsu, ComposesDepthsOverTheCallGraph)
{
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("k_task_a");
    a.addi(SP, SP, -32);
    a.sw(RA, 28, SP);
    a.call("helper");
    a.lw(RA, 28, SP);
    a.addi(SP, SP, 32);
    a.ret();
    a.fnEnd();
    a.fnBegin("helper");
    a.addi(SP, SP, -16);
    a.addi(SP, SP, 16);
    a.ret();
    a.fnEnd();
    const Program p = a.finish();
    const Cfg cfg(p);

    WcsuAnalyzer wcsu(cfg);
    wcsu.run();
    ASSERT_TRUE(wcsu.converged());
    EXPECT_EQ(wcsu.entryDepth("helper"), 16u);
    EXPECT_EQ(wcsu.entryDepth("k_task_a"), 48u);
    EXPECT_TRUE(wcsu.diags().empty()) << diagsText(wcsu.diags());
}

TEST(Wcsu, SeededRecursionIsReported)
{
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("r");
    a.addi(SP, SP, -16);
    a.call("r");
    a.addi(SP, SP, 16);
    a.ret();
    a.fnEnd();
    const Program p = a.finish();
    const Cfg cfg(p);
    WcsuAnalyzer wcsu(cfg);
    wcsu.run();
    EXPECT_TRUE(hasCode(wcsu.diags(), "wcsu-recursion"))
        << diagsText(wcsu.diags());
}

TEST(Wcsu, SeededOverflowRiskIsReported)
{
    // A 512-byte frame against a 64-byte generated stack region.
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("k_task_big");
    a.addi(SP, SP, -512);
    a.addi(SP, SP, 512);
    a.ret();
    a.fnEnd();
    a.dataArray("k_stack_0", 16);
    a.dataWord("k_stack_0_top");
    const Program p = a.finish();
    const Cfg cfg(p);

    WcsuAnalyzer wcsu(cfg);
    wcsu.run();
    ASSERT_EQ(wcsu.stackRegions().size(), 1u);
    EXPECT_EQ(wcsu.stackRegions()[0].capacity(), 64u);

    std::vector<Diagnostic> out;
    wcsu.checkOverflow(out);
    EXPECT_TRUE(hasCode(out, "stack-overflow-risk")) << diagsText(out);
    EXPECT_GE(countErrors(out), 1u);
}

// ---- task-stack layout --------------------------------------------------

namespace {

Program
buildKernelImage(const std::string &config, const Workload &workload)
{
    const WorkloadInfo info = workload.info();
    KernelParams kparams;
    kparams.unit = RtosUnitConfig::fromName(config);
    kparams.timerPeriodCycles = 1000;
    kparams.usesExternalIrq = info.usesExternalIrq;
    kparams.usesDelayUntil = info.usesDelayUntil;
    KernelBuilder kb(kparams);
    workload.addTasks(kb);
    return kb.build();
}

} // namespace

TEST(DerivedStacks, OffPathIsDeterministicallyFixedSize)
{
    const auto w = makeWorkload("yield_pingpong", 3);
    const Program fixed = buildKernelImage("SLT", *w);
    const Program again = buildKernelImage("SLT", *w);
    EXPECT_EQ(fixed.text, again.text);
    EXPECT_EQ(fixed.data, again.data);
    EXPECT_EQ(fixed.symbols, again.symbols);

    // Fixed-size layout: every task stack is exactly kTaskStackBytes.
    const Addr base = fixed.symbol("k_stack_0");
    const Addr top = fixed.symbol("k_stack_0_top");
    EXPECT_EQ(top - base, kernel::kTaskStackBytes);
}

// ---- acceptance: the generated matrix passes the absint family -------

TEST(AbsintMatrix, EveryGeneratedKernelPassesClean)
{
    unsigned points = 0;
    forEachGeneratedProgram(
        [&](const LintPoint &point) {
            const auto diags = absintLint(point.program);
            EXPECT_TRUE(diags.empty())
                << point.unit.name() << "/" << point.workload << "\n"
                << diagsText(diags);
            ++points;
        },
        /*include_hwsync=*/false);
    EXPECT_EQ(points, 12u * 7u);
}
