/**
 * Static context-integrity verifier (src/analyze): CFG construction,
 * the four lint passes over seeded-defect fixtures (each must produce
 * exactly the documented diagnostic), and the headline acceptance
 * check — every generated kernel x workload x configuration point
 * lints clean.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analyze/absint/wcsu.hh"
#include "analyze/linter.hh"
#include "analyze/walker.hh"
#include "asm/assembler.hh"
#include "asm/encode.hh"
#include "kernel/layout.hh"
#include "wcet/wcet.hh"

using namespace rtu;
using kernel::frameSlotOfReg;

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

std::vector<Diagnostic>
lint(const Program &program, const std::string &config)
{
    return lintProgram(program, RtosUnitConfig::fromName(config)).diags;
}

unsigned
countCode(const std::vector<Diagnostic> &diags, const std::string &code)
{
    return static_cast<unsigned>(
        std::count_if(diags.begin(), diags.end(),
                      [&](const Diagnostic &d) { return d.code == code; }));
}

/** @p prefix followed by @p i, e.g. "skip3". */
std::string
numbered(const char *prefix, unsigned i)
{
    std::string name = prefix;
    name += std::to_string(i);  // not operator+: GCC 12 -Wrestrict
    return name;
}

/** Trap handler making @p nested calls: k_isr -> c0 -> c1 -> ... */
Program
callChainIsr(unsigned calls)
{
    Assembler a(kTextBase, kDataBase);
    a.label("k_isr");
    a.call("c0");
    a.mret();
    for (unsigned i = 0; i < calls; ++i) {
        a.fnBegin(numbered("c", i));
        if (i + 1 < calls)
            a.call(numbered("c", i + 1));
        a.ret();
        a.fnEnd();
    }
    return a.finish();
}

/** Push @p bytes with as few `addi sp` as the 12-bit immediate allows. */
void
pushBytes(Assembler &a, int bytes)
{
    for (; bytes > 0; bytes -= 2048)
        a.addi(SP, SP, -std::min(bytes, 2048));
}

} // namespace

// ---- CFG construction ------------------------------------------------

TEST(Cfg, BlocksAndTerminators)
{
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("f");
    a.addi(T0, Zero, 3);          // 0x00
    a.label("loop");
    a.addi(T0, T0, -1);           // 0x04
    a.bnez(T0, "loop");           // 0x08: branch, back edge
    a.call("g");                  // 0x0c: call
    a.ret();                      // 0x10: return
    a.fnEnd();
    a.fnBegin("g");
    a.nop();                      // 0x14
    a.ret();                      // 0x18
    a.fnEnd();
    const Program p = a.finish();
    const Cfg cfg(p);

    // Leaders: 0x00 (entry), 0x04 (loop label + branch target),
    // 0x0c (post-branch), 0x10 (call continuation), 0x14 (g), 0x18
    // (post-call of g's body split by no label -> none; 0x18 belongs
    // to g's block).
    ASSERT_TRUE(cfg.blocks().count(0x00));
    ASSERT_TRUE(cfg.blocks().count(0x04));
    ASSERT_TRUE(cfg.blocks().count(0x0c));
    ASSERT_TRUE(cfg.blocks().count(0x10));
    ASSERT_TRUE(cfg.blocks().count(0x14));

    const BasicBlock &loop = cfg.blockAt(0x04);
    EXPECT_EQ(loop.term, TermKind::kBranch);
    EXPECT_EQ(loop.takenTarget, 0x04u);
    EXPECT_EQ(loop.succs.size(), 2u);

    const BasicBlock &callBlock = cfg.blockAt(0x0c);
    EXPECT_EQ(callBlock.term, TermKind::kCall);
    EXPECT_EQ(callBlock.takenTarget, 0x14u);
    ASSERT_EQ(callBlock.succs.size(), 1u);
    EXPECT_EQ(callBlock.succs[0], 0x10u);  // continuation, not callee

    EXPECT_EQ(cfg.blockAt(0x10).term, TermKind::kReturn);

    // Interprocedural reachability descends through the call.
    const auto scope = cfg.reachableFrom(0x00, /*follow_calls=*/true);
    EXPECT_TRUE(scope.count(0x14));
    const auto local = cfg.reachableFrom(0x00, /*follow_calls=*/false);
    EXPECT_FALSE(local.count(0x14));
}

TEST(Cfg, ClosedLoopDetection)
{
    Assembler a(kTextBase, kDataBase);
    a.label("spin");
    a.wfi();
    a.j("spin");       // idle pattern: closed
    a.label("exit_loop");
    a.nop();
    a.ret();           // reaches a return: not closed
    const Program p = a.finish();
    const Cfg cfg(p);
    EXPECT_TRUE(cfg.isClosedLoop(p.symbol("spin")));
    EXPECT_FALSE(cfg.isClosedLoop(p.symbol("exit_loop")));
}

// ---- pass 1: context integrity ---------------------------------------

TEST(ContextIntegrity, ClobberBeforeSaveVanilla)
{
    Assembler a(kTextBase, kDataBase);
    a.label("k_isr");
    a.addi(T0, Zero, 1);  // t0 clobbered, never saved
    a.mret();
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_TRUE(hasCode(diags, "ctx-clobbered-before-save"))
        << diagsText(diags);
}

TEST(ContextIntegrity, SavedButNotRestored)
{
    Assembler a(kTextBase, kDataBase);
    a.label("k_isr");
    a.addi(SP, SP, -128);
    a.sw(T0, frameSlotOfReg(5), SP);  // save t0 properly
    a.addi(T0, Zero, 7);              // clobber (legal: saved)
    a.addi(SP, SP, 128);
    a.mret();                         // ...but never reloaded
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_FALSE(hasCode(diags, "ctx-clobbered-before-save"))
        << diagsText(diags);
    EXPECT_TRUE(hasCode(diags, "ctx-not-restored")) << diagsText(diags);
}

TEST(ContextIntegrity, SaveRestoreRoundTripIsClean)
{
    Assembler a(kTextBase, kDataBase);
    a.label("k_isr");
    a.addi(SP, SP, -128);
    a.sw(T0, frameSlotOfReg(5), SP);
    a.addi(T0, Zero, 7);
    a.lw(T0, frameSlotOfReg(5), SP);  // reload before mret
    a.addi(SP, SP, 128);
    a.mret();
    const auto diags = lint(a.finish(), "vanilla");
    for (const Diagnostic &d : diags)
        EXPECT_NE(d.code, "ctx-not-restored") << diagsText(diags);
    EXPECT_FALSE(hasCode(diags, "ctx-clobbered-before-save"))
        << diagsText(diags);
}

TEST(ContextIntegrity, UntouchedRegistersNeedNoRestore)
{
    // A handler that touches nothing resumes the interrupted task
    // with all values intact: no obligations.
    Assembler a(kTextBase, kDataBase);
    a.label("k_isr");
    a.mret();
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_FALSE(hasCode(diags, "ctx-not-restored")) << diagsText(diags);
    EXPECT_FALSE(hasCode(diags, "ctx-clobbered-before-save"))
        << diagsText(diags);
}

TEST(ContextIntegrity, StoreConfigAllowsClobberButFlagsStaleRead)
{
    Assembler a(kTextBase, kDataBase);
    a.label("k_isr");
    a.addi(T1, T0, 1);  // reads t0: ISR bank is stale at entry
    a.mret();
    const auto diags = lint(a.finish(), "S");
    // The write to t1 is fine under (S) - hardware archived the task
    // context - but the read of never-written t0 is not.
    EXPECT_FALSE(hasCode(diags, "ctx-clobbered-before-save"))
        << diagsText(diags);
    EXPECT_TRUE(hasCode(diags, "isr-uninit-read")) << diagsText(diags);
}

TEST(ContextIntegrity, OmitConfigRejectsLiveSwitchRf)
{
    Assembler a(kTextBase, kDataBase);
    a.label("k_isr");
    a.rtuSwitchRf();  // touches the app bank: omitted loads are live
    a.mret();
    const auto diags = lint(a.finish(), "SDLO");
    EXPECT_TRUE(hasCode(diags, "omit-live-load")) << diagsText(diags);
}

TEST(ContextIntegrity, OmitConfigCleanWithoutSwitchRf)
{
    Assembler a(kTextBase, kDataBase);
    a.label("k_isr");
    a.mret();  // hardware restores; software never switches banks
    const auto diags = lint(a.finish(), "SDLO");
    EXPECT_FALSE(hasCode(diags, "omit-live-load")) << diagsText(diags);
    EXPECT_FALSE(hasCode(diags, "ctx-not-restored")) << diagsText(diags);
}

TEST(ContextIntegrity, Cv32rtRestoreBeforeBarrier)
{
    Assembler a(kTextBase, kDataBase);
    a.label("k_isr");
    a.addi(SP, SP, -128);
    // x16 (a6) is hardware-drained under CV32RT; reloading its frame
    // slot before the SWITCH_RF barrier races the drain.
    a.lw(A6, frameSlotOfReg(16), SP);
    a.addi(SP, SP, 128);
    a.mret();
    const auto diags = lint(a.finish(), "CV32RT");
    EXPECT_TRUE(hasCode(diags, "ctx-restore-before-barrier"))
        << diagsText(diags);
}

TEST(ContextIntegrity, CallChainDeeperThanSixteenIsReported)
{
    const RtosUnitConfig unit = RtosUnitConfig::vanilla();
    std::vector<Diagnostic> deep;
    checkContextIntegrity(Cfg(callChainIsr(17)), unit, {}, deep);
    ASSERT_EQ(countCode(deep, "lint-call-depth"), 1u) << diagsText(deep);
    for (const Diagnostic &d : deep) {
        if (d.code == "lint-call-depth") {
            EXPECT_EQ(d.function, "c15");  // its call is the 17th
        }
    }

    std::vector<Diagnostic> limit;
    checkContextIntegrity(Cfg(callChainIsr(16)), unit, {}, limit);
    EXPECT_FALSE(hasCode(limit, "lint-call-depth")) << diagsText(limit);
}

// ---- pass 2: callee-saved ABI ----------------------------------------

TEST(CalleeSaved, ClobberedSRegisterNotRestored)
{
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("f");
    a.addi(S0, Zero, 5);  // clobbers s0 with no spill
    a.ret();
    a.fnEnd();
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_TRUE(hasCode(diags, "abi-callee-saved")) << diagsText(diags);
}

TEST(CalleeSaved, SpillReloadIsClean)
{
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("f");
    a.addi(SP, SP, -16);
    a.sw(S0, 0, SP);
    a.addi(S0, Zero, 5);
    a.lw(S0, 0, SP);
    a.addi(SP, SP, 16);
    a.ret();
    a.fnEnd();
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_FALSE(hasCode(diags, "abi-callee-saved")) << diagsText(diags);
    EXPECT_FALSE(hasCode(diags, "abi-ra-clobbered")) << diagsText(diags);
}

TEST(CalleeSaved, ReloadFromWrongSlotStillClobbered)
{
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("f");
    a.addi(SP, SP, -16);
    a.sw(S0, 0, SP);
    a.addi(S0, Zero, 5);
    a.lw(S0, 4, SP);  // wrong slot: garbage, not the entry value
    a.addi(SP, SP, 16);
    a.ret();
    a.fnEnd();
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_TRUE(hasCode(diags, "abi-callee-saved")) << diagsText(diags);
}

TEST(CalleeSaved, CallWithoutRaSpill)
{
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("f");
    a.call("g");  // overwrites ra; never spilled
    a.ret();      // returns into g's caller frame: wrong address
    a.fnEnd();
    a.fnBegin("g");
    a.ret();
    a.fnEnd();
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_TRUE(hasCode(diags, "abi-ra-clobbered")) << diagsText(diags);
}

TEST(CalleeSaved, CallWithRaSpillIsClean)
{
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("f");
    a.addi(SP, SP, -16);
    a.sw(RA, 12, SP);
    a.call("g");
    a.lw(RA, 12, SP);
    a.addi(SP, SP, 16);
    a.ret();
    a.fnEnd();
    a.fnBegin("g");
    a.ret();
    a.fnEnd();
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_FALSE(hasCode(diags, "abi-ra-clobbered")) << diagsText(diags);
}

// ---- pass 3: stack discipline ----------------------------------------

TEST(StackDiscipline, ImbalancedJoinAndReturn)
{
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("f");
    a.addi(SP, SP, -16);
    a.beqz(A0, "skip");   // taken path keeps the frame...
    a.addi(SP, SP, 16);   // ...fall-through pops it
    a.label("skip");
    a.ret();
    a.fnEnd();
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_TRUE(hasCode(diags, "stack-imbalance")) << diagsText(diags);
    EXPECT_TRUE(hasCode(diags, "stack-ret-imbalance"))
        << diagsText(diags);
}

TEST(StackDiscipline, AccessBelowSp)
{
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("f");
    a.sw(T0, -4, SP);  // below sp: dead zone, interrupts clobber it
    a.ret();
    a.fnEnd();
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_TRUE(hasCode(diags, "stack-below-sp")) << diagsText(diags);
}

TEST(StackDiscipline, BalancedFrameIsClean)
{
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("f");
    a.addi(SP, SP, -32);
    a.sw(T0, 0, SP);
    a.lw(T0, 0, SP);
    a.addi(SP, SP, 32);
    a.ret();
    a.fnEnd();
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_FALSE(hasCode(diags, "stack-imbalance")) << diagsText(diags);
    EXPECT_FALSE(hasCode(diags, "stack-ret-imbalance"))
        << diagsText(diags);
    EXPECT_FALSE(hasCode(diags, "stack-below-sp")) << diagsText(diags);
}

TEST(StackDiscipline, SixteenImbalancedDiamondsStayTractable)
{
    // Each diamond pushes 2^min(i, 11) bytes on one arm only, so up to
    // 12288 distinct sp values meet at the last joins; the join check
    // must stay linear in them.
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("f");
    for (int i = 0; i < 16; ++i) {
        const std::string skip = numbered("skip", i);
        a.beqz(A0, skip);
        pushBytes(a, 1 << std::min(i, 11));
        a.label(skip);
    }
    a.ret();
    a.fnEnd();
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_TRUE(hasCode(diags, "stack-imbalance")) << diagsText(diags);
    EXPECT_TRUE(hasCode(diags, "stack-ret-imbalance"))
        << diagsText(diags);
    EXPECT_FALSE(hasCode(diags, "lint-budget-exceeded"))
        << diagsText(diags);
}

// ---- state budget ----------------------------------------------------

TEST(LintBudget, EachWalkingPassWarnsOnceWhenExhausted)
{
    // 18 diamonds whose arms each write their own register and push
    // 2^i bytes: 2^18 distinct states reach the last join in every
    // walking pass, past the shared budget.
    constexpr int kDiamonds = 18;
    static_assert((1u << kDiamonds) > kWalkStateBudget);
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("k_isr");
    for (int i = 0; i < kDiamonds; ++i) {
        const std::string skip = numbered("skip", i);
        a.beqz(A0, skip);
        // x5..x9, x11..x23: any register but a0, the branch operand.
        a.addi(static_cast<Reg>(i < 5 ? 5 + i : 6 + i), Zero, 1);
        pushBytes(a, 1 << i);
        a.label(skip);
    }
    a.mret();
    a.fnEnd();
    const Program p = a.finish();
    const Cfg cfg(p);

    std::vector<Diagnostic> ctx, abi, stack;
    checkContextIntegrity(cfg, RtosUnitConfig::vanilla(), {}, ctx);
    checkCalleeSaved(cfg, {}, abi);
    checkStackDiscipline(cfg, {}, stack);
    for (const auto *diags : {&ctx, &abi, &stack}) {
        EXPECT_EQ(countCode(*diags, "lint-budget-exceeded"), 1u)
            << diagsText(*diags);
    }

    // WCSU walks the same lattice under the same budget and keeps its
    // own verdict: not converged, overflow check skipped.
    WcsuAnalyzer wcsu(cfg);
    wcsu.run();
    EXPECT_FALSE(wcsu.converged());
    EXPECT_EQ(countCode(wcsu.diags(), "lint-budget-exceeded"), 1u)
        << diagsText(wcsu.diags());
    std::vector<Diagnostic> overflow;
    wcsu.checkOverflow(overflow);
    EXPECT_TRUE(hasCode(overflow, "wcsu-unanalyzable"))
        << diagsText(overflow);
}

// ---- pass 4: CFG soundness and WCET coverage -------------------------

TEST(Soundness, UnboundedIsrLoop)
{
    Assembler a(kTextBase, kDataBase);
    a.label("k_isr");
    a.addi(SP, SP, -128);
    a.sw(T0, frameSlotOfReg(5), SP);
    a.li(T0, 8);
    a.label("loop");
    a.addi(T0, T0, -1);
    a.bnez(T0, "loop");  // backward branch without loopBound()
    a.lw(T0, frameSlotOfReg(5), SP);
    a.addi(SP, SP, 128);
    a.mret();
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_TRUE(hasCode(diags, "wcet-unannotated-back-edge"))
        << diagsText(diags);
}

TEST(Soundness, AnnotatedIsrLoopIsClean)
{
    Assembler a(kTextBase, kDataBase);
    a.label("k_isr");
    a.addi(SP, SP, -128);
    a.sw(T0, frameSlotOfReg(5), SP);
    a.li(T0, 8);
    a.label("loop");
    a.addi(T0, T0, -1);
    a.beqz(T0, "done");
    a.loopBound(8);
    a.j("loop");  // the generator's annotated back-edge idiom
    a.label("done");
    a.lw(T0, frameSlotOfReg(5), SP);
    a.addi(SP, SP, 128);
    a.mret();
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_FALSE(hasCode(diags, "wcet-unannotated-back-edge"))
        << diagsText(diags);
}

TEST(Soundness, IsrWithoutMret)
{
    Assembler a(kTextBase, kDataBase);
    a.label("k_isr");
    a.j("k_isr");  // handler spins forever, can never return
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_TRUE(hasCode(diags, "isr-no-mret")) << diagsText(diags);
    // The self-loop is a closed terminal loop, not a missing bound.
    EXPECT_FALSE(hasCode(diags, "wcet-unannotated-back-edge"))
        << diagsText(diags);
}

TEST(Soundness, FallThroughAcrossFunctions)
{
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("f");
    a.nop();  // no terminator: falls into g
    a.fnEnd();
    a.fnBegin("g");
    a.ret();
    a.fnEnd();
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_TRUE(hasCode(diags, "cfg-fall-through-function"))
        << diagsText(diags);
}

TEST(Soundness, FallOffTextEnd)
{
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("f");
    a.nop();  // last text word is not a terminator
    a.fnEnd();
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_TRUE(hasCode(diags, "cfg-fall-off-text")) << diagsText(diags);
}

TEST(Soundness, BranchOutOfTextIsADiagnosticNotAnAbort)
{
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("f");
    a.label("top");
    a.beqz(A0, "top");  // patched below to branch past textEnd()
    a.ret();
    a.fnEnd();
    Program p = a.finish();
    p.text[0] = encode(Op::kBeq, 0, A0, Zero, 64);
    EXPECT_EQ(Cfg(p).outOfTextTransfers(), std::vector<Addr>{kTextBase});

    LintOptions options;
    options.absint = true;
    const auto diags =
        lintProgram(p, RtosUnitConfig::fromName("vanilla"), options).diags;
    ASSERT_EQ(diags.size(), 1u) << diagsText(diags);
    EXPECT_EQ(diags[0].code, "cfg-target-outside-text");
    EXPECT_EQ(diags[0].severity, Severity::kError);
}

TEST(Soundness, UnreachableBlock)
{
    Assembler a(kTextBase, kDataBase);
    a.fnBegin("f");
    a.ret();
    a.fnEnd();
    a.label("orphan");  // no edge and no function reaches this
    a.nop();
    a.ret();
    const auto diags = lint(a.finish(), "vanilla");
    EXPECT_TRUE(hasCode(diags, "cfg-unreachable")) << diagsText(diags);
}

// ---- WCET analyzer: structured diagnostics instead of aborts ---------

TEST(WcetDiagnostics, UnannotatedBackEdgeIsReportedNotFatal)
{
    Assembler a(kTextBase, kDataBase);
    a.label("k_isr");
    a.li(T0, 8);
    a.label("loop");
    a.addi(T0, T0, -1);
    a.bnez(T0, "loop");  // would previously rtu_assert-abort
    a.mret();
    const Program p = a.finish();
    WcetAnalyzer analyzer(p, RtosUnitConfig::vanilla());
    const WcetResult res = analyzer.analyzeIsr();  // must not abort
    EXPECT_GT(res.totalCycles, 0u);
    EXPECT_TRUE(hasCode(analyzer.diagnostics(),
                        "wcet-unannotated-back-edge"));
}

TEST(WcetDiagnostics, CleanIsrHasNoDiagnostics)
{
    Assembler a(kTextBase, kDataBase);
    a.label("k_isr");
    a.li(T0, 8);
    a.label("loop");
    a.addi(T0, T0, -1);
    a.beqz(T0, "done");
    a.loopBound(8);
    a.j("loop");
    a.label("done");
    a.mret();
    const Program p = a.finish();
    WcetAnalyzer analyzer(p, RtosUnitConfig::vanilla());
    analyzer.analyzeIsr();
    EXPECT_TRUE(analyzer.diagnostics().empty());
}

// ---- acceptance: the generated matrix lints clean --------------------

TEST(GeneratedMatrix, EveryProgramPointLintsClean)
{
    unsigned points = 0;
    forEachGeneratedProgram([&](const LintPoint &point) {
        ++points;
        const LintResult result = lintProgram(point.program, point.unit);
        EXPECT_TRUE(result.clean())
            << point.unit.name() << " x " << point.workload << ":\n"
            << diagsText(result.diags);
    });
    // 12 paper configs + 3 hwsync points, 7 workloads each.
    EXPECT_EQ(points, 15u * 7u);
}

TEST(GeneratedMatrix, WcetAnalyzerCleanOnGeneratedIsrs)
{
    // The shared-CFG WCET walk must agree with the lint passes that
    // every generated ISR is statically sound.
    forEachGeneratedProgram(
        [&](const LintPoint &point) {
            WcetAnalyzer analyzer(point.program, point.unit);
            analyzer.analyzeIsr();
            EXPECT_TRUE(analyzer.diagnostics().empty())
                << point.unit.name() << " x " << point.workload << ":\n"
                << diagsText(analyzer.diagnostics());
        },
        /*include_hwsync=*/false);
}
