/**
 * Output goldens for the path-walking analyses (src/analyze): lint
 * passes 1-3 and the worst-case stack usage (WCSU) walk.
 *
 * Exploration order decides which message wins each pass's
 * code@pc deduplication, so these goldens pin the walks' observable
 * output, not just their verdicts:
 *
 *  - WcsuGolden: every WCSU result the kernel generator and the lint
 *    gate consume, over the 105 generated images;
 *  - LintMutationGolden: every diagnostic (as its JSONL line, in
 *    emission order) that passes 1-3 plus WCSU produce on seeded
 *    single-word mutants of those images. The unmutated matrix lints
 *    clean, so only mutants exercise the reporting paths.
 *
 * AbsintGolden pins the abstract-interpretation engine's final states
 * over the same images. The matrix lints clean, so a change that
 * moved an abstract value without flipping a verdict would pass every
 * diagnostic-level check; this digest catches it. AbsintWorkGolden
 * pins the engine's work counters over the images, so a change that
 * makes the fixpoint redo (or skip) work shows up even when every
 * state stays the same.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <string_view>

#include "analyze/absint/engine.hh"
#include "analyze/absint/loopbound.hh"
#include "analyze/absint/wcsu.hh"
#include "analyze/linter.hh"
#include "asm/decode.hh"
#include "asm/encode.hh"
#include "common/rng.hh"
#include "common/types.hh"

using namespace rtu;

namespace {

/** FNV-1a digest plus the number of values folded into it. */
struct Digest
{
    std::string text;
    unsigned count = 0;

    /** Fold one value, given as the concatenation of @p parts. */
    void
    add(std::initializer_list<std::string_view> parts)
    {
        for (std::string_view part : parts)
            text += part;
        text += '\n';
        ++count;
    }

    std::uint64_t value() const { return fnv1a(text); }
};

std::string
pointName(const LintPoint &point)
{
    return point.unit.name() + "/" + point.workload;
}

/**
 * Fold one mutant into @p digest: the JSONL line of every pass 1-3
 * and WCSU diagnostic in lintProgram/checkAbsint order, then the
 * WCSU ISR add-on and region usage (ISR-frame edits move them
 * without any diagnostic).
 */
void
addWalkOutput(Digest &digest, const Program &program,
              const RtosUnitConfig &unit, const std::string &extra)
{
    const Cfg cfg(program);
    const LintOptions options;
    std::vector<Diagnostic> out;
    checkContextIntegrity(cfg, unit, options, out);
    checkCalleeSaved(cfg, options, out);
    checkStackDiscipline(cfg, options, out);
    WcsuAnalyzer wcsu(cfg);
    wcsu.run();
    out.insert(out.end(), wcsu.diags().begin(), wcsu.diags().end());
    wcsu.checkOverflow(out);
    for (const Diagnostic &d : out)
        digest.add({diagToJson(d, extra)});
    std::string usage = "{" + extra + ",\"isr_add_on\":" +
                        std::to_string(wcsu.isrAddOn());
    for (const auto &[region, bytes] : wcsu.regionUsage())
        usage.append(",\"").append(region).append("\":").append(
            std::to_string(bytes));
    digest.add({usage, "}"});
}

/** Word addresses a mutant may edit, by kind of edit. */
struct MutationSites
{
    /** Frame saves/restores and spills: `sw`/`lw` relative to sp,
     *  and every `sw`/`lw` of the trap handler (the store family
     *  restores from the context region through a temporary). */
    std::vector<Addr> spills;
    /** Frame adjustments: `addi sp, sp, imm`. */
    std::vector<Addr> frames;
};

MutationSites
mutationSites(const Program &program)
{
    MutationSites sites;
    for (size_t i = 0; i < program.text.size(); ++i) {
        const DecodedInsn d = decode(program.text[i]);
        const Addr pc = program.textBase + 4 * static_cast<Addr>(i);
        if ((d.op == Op::kSw || d.op == Op::kLw) &&
            (d.rs1 == SP || program.functionAt(pc) == "k_isr"))
            sites.spills.push_back(pc);
        else if (d.op == Op::kAddi && d.rd == SP && d.rs1 == SP)
            sites.frames.push_back(pc);
    }
    return sites;
}

/** A register state as its 33 slot values, or null/dead. */
std::string
stateText(const RegState *st)
{
    if (!st)
        return "null";
    if (!st->live)
        return "dead";
    std::string s;
    for (unsigned i = 0; i < RegState::kNumSlots; ++i)
        s.append(st->reg(i).str()).append(" ");
    return s;
}

constexpr unsigned kMutantsPerImage = 8;
constexpr Word kNop = 0x00000013;  // addi zero, zero, 0

} // namespace

TEST(WcsuGolden, GeneratedMatrix)
{
    Digest digest;
    unsigned images = 0;
    forEachGeneratedProgram([&](const LintPoint &point) {
        ++images;
        const Cfg cfg(point.program);
        WcsuAnalyzer wcsu(cfg);
        wcsu.run();
        const std::string at = pointName(point) + " ";
        digest.add({at, "converged=", std::to_string(wcsu.converged())});
        digest.add({at, "isr_add_on=", std::to_string(wcsu.isrAddOn())});
        for (const auto &[name, range] : point.program.functions) {
            if (name == "k_isr" || name.rfind("k_task_", 0) == 0) {
                digest.add(
                    {at, name, "=", std::to_string(wcsu.entryDepth(name))});
            }
        }
        for (const auto &[region, bytes] : wcsu.regionUsage())
            digest.add({at, region, "=", std::to_string(bytes)});
    });
    EXPECT_EQ(images, 105u);
    EXPECT_EQ(digest.count, 750u) << digest.text;
    EXPECT_EQ(digest.value(), 0x76ec89b1b0755c61ull) << digest.text;
}

TEST(LintMutationGolden, SeededSingleWordEdits)
{
    Digest digest;
    unsigned mutants = 0;
    forEachGeneratedProgram([&](const LintPoint &point) {
        const MutationSites sites = mutationSites(point.program);
        ASSERT_FALSE(sites.spills.empty()) << pointName(point);
        ASSERT_FALSE(sites.frames.empty()) << pointName(point);
        SplitMix64 rng(fnv1a(pointName(point)));
        for (unsigned m = 0; m < kMutantsPerImage; ++m) {
            // Alternate the two edit kinds: nop a spill, or move a
            // frame adjustment by a multiple of 4 bytes.
            const std::vector<Addr> &pool =
                m % 2 ? sites.frames : sites.spills;
            Program mutant = point.program;
            const Addr pc = pool[rng.below(pool.size())];
            Word &word = mutant.text[(pc - mutant.textBase) / 4];
            DecodedInsn d = decode(word);
            if (d.op == Op::kAddi) {
                const SWord step =
                    4 * static_cast<SWord>(1 + rng.below(4));
                d.imm += rng.below(2) ? step : -step;
                word = encode(d);
            } else {
                word = kNop;
            }
            ++mutants;
            const std::string extra =
                "\"point\":\"" + pointName(point) + "\",\"mutant\":" +
                std::to_string(m);
            addWalkOutput(digest, mutant, point.unit, extra);
        }
    });
    EXPECT_EQ(mutants, 105u * kMutantsPerImage);
    EXPECT_EQ(digest.count, 1072u) << digest.text;
    EXPECT_EQ(digest.value(), 0x648a1401a8319bc3ull) << digest.text;
}

TEST(AbsintGolden, GeneratedMatrixStates)
{
    Digest digest;
    unsigned images = 0;
    forEachGeneratedProgram([&](const LintPoint &point) {
        ++images;
        AbsintEngine engine(point.program);
        engine.run();
        const std::string at = pointName(point) + " ";
        digest.add({at, "converged=", std::to_string(engine.converged())});
        for (const auto &[leader, bb] : engine.cfg().blocks()) {
            const std::string pc = at + std::to_string(leader);
            digest.add({pc, " in ", stateText(engine.blockEntry(leader))});
            digest.add({pc, " term ", stateText(engine.termState(leader))});
            for (Addr succ : bb.succs)
                digest.add({pc, "->", std::to_string(succ), " ",
                            stateText(engine.edgeState(leader, succ))});
        }
        for (Addr pc : engine.infeasibleTaken())
            digest.add({at, "infeasible-taken ", std::to_string(pc)});
        for (Addr pc : engine.infeasibleFall())
            digest.add({at, "infeasible-fall ", std::to_string(pc)});
        const Program &program = point.program;
        for (size_t i = 0; i < program.data.size(); ++i) {
            const Addr cell = program.dataBase + 4 * static_cast<Addr>(i);
            digest.add({at, "cell ", std::to_string(cell), " ",
                        engine.cellValue(cell).str()});
        }
        for (const auto &[pc, bound] : inferLoopBounds(engine).inferred)
            digest.add({at, "bound ", std::to_string(pc), " ",
                        std::to_string(bound)});
    });
    EXPECT_EQ(images, 105u);
    // The folded text runs to ~10^5 lines: report only the totals, and
    // diff `digest.text` between two builds to see what moved.
    EXPECT_EQ(digest.count, 108219u);
    EXPECT_EQ(digest.value(), 0x99250de66972df25ull);
}

TEST(AbsintWorkGolden, GeneratedMatrixStats)
{
    AbsintEngine::Stats total;
    unsigned images = 0;
    forEachGeneratedProgram([&](const LintPoint &point) {
        ++images;
        AbsintEngine engine(point.program);
        engine.run();
        const AbsintEngine::Stats &s = engine.stats();
        total.rounds += s.rounds;
        total.regionAnalyses += s.regionAnalyses;
        total.blockTransfers += s.blockTransfers;
        total.sweepSkips += s.sweepSkips;
    });
    EXPECT_EQ(images, 105u);
    EXPECT_EQ(total.rounds, 1020u);
    EXPECT_EQ(total.regionAnalyses, 4233u);
    EXPECT_EQ(total.blockTransfers, 175228u);
    EXPECT_EQ(total.sweepSkips, 41358u);
}
