/**
 * Tests of the benchmark itself: the ledger's span arithmetic, the
 * per-op checks and digests, and the equivalences the workloads rely
 * on (traced decomposition == public entry point, the lint op list ==
 * the CI lint matrix, one-point campaign == full-campaign slice).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analyze/linter.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "inject/campaign.hh"
#include "ledger.hh"
#include "workloads.hh"
#include "workloads/workloads.hh"

using namespace perfbench;
using namespace rtu;

namespace {

/** Run @p order untraced, then reversed and traced; both passes must
 *  check clean and produce the same output. */
void
expectTracedMatchesUntraced(const std::string &name,
                            std::vector<std::size_t> order,
                            Ledger &traced)
{
    setQuiet(true);
    const auto w = makeBenchWorkload(name, 1);
    ASSERT_NE(w, nullptr);
    Ledger off;
    const PassResult a = w->runPass(order, off);
    EXPECT_TRUE(off.spans().empty());
    std::reverse(order.begin(), order.end());
    traced.setEnabled(true);
    const PassResult b = w->runPass(order, traced);
    EXPECT_EQ(a.failed, 0u) << (a.failures.empty() ? "" : a.failures[0]);
    EXPECT_EQ(b.failed, 0u) << (b.failures.empty() ? "" : b.failures[0]);
    EXPECT_EQ(a.opMs.size(), order.size());
    EXPECT_FALSE(a.output.empty());
    EXPECT_EQ(fnv1a(a.output), fnv1a(b.output));
}

bool
hasSpan(const Ledger &l, const std::string &prefix)
{
    for (const Span &s : l.spans()) {
        if (std::string(s.name).rfind(prefix, 0) == 0)
            return true;
    }
    return false;
}

} // namespace

TEST(Ledger, SelfTimeSubtractsDirectChildrenOnly)
{
    Ledger l(true);
    const int op = l.add("op", 0, 100, -1, 3);
    const int a = l.add("a", 10, 40, op, 3);
    l.add("a.inner", 15, 25, a, 3);
    l.add("b", 50, 90, op, 3);
    l.add("pass", 100, 120, -1, -1);

    const std::vector<std::int64_t> self = l.selfNs();
    ASSERT_EQ(self.size(), 5u);
    EXPECT_EQ(self[0], 30);  // 100 - (30 + 40)
    EXPECT_EQ(self[1], 20);  // 30 - 10
    EXPECT_EQ(self[2], 10);
    EXPECT_EQ(self[3], 40);
    EXPECT_EQ(self[4], 20);
    // Self times partition the top-level spans exactly.
    std::int64_t sum = 0;
    for (std::int64_t s : self)
        sum += s;
    EXPECT_EQ(sum, 120);

    EXPECT_EQ(l.untracedOpNs(), 30);  // pass-level span excluded
    EXPECT_EQ(l.opSpanNs(), 100);
    EXPECT_EQ(l.selfNsByName().at("a"), 20);
    EXPECT_EQ(l.totalNsByName().at("a"), 30);
}

TEST(Ledger, ScopesNestAndCarryTheOp)
{
    Ledger l(true);
    l.setOp(7);
    {
        Ledger::Scope outer(l, "outer");
        { Ledger::Scope inner(l, "inner"); }
        { Ledger::Scope second(l, "second"); }
    }
    l.setOp(-1);
    { Ledger::Scope after(l, "after"); }

    const std::vector<Span> &s = l.spans();
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[0].parent, -1);
    EXPECT_EQ(s[1].parent, 0);
    EXPECT_EQ(s[2].parent, 0);
    EXPECT_EQ(s[3].parent, -1);
    EXPECT_EQ(s[1].op, 7);
    EXPECT_EQ(s[3].op, -1);
    EXPECT_LE(s[0].startNs, s[1].startNs);
    EXPECT_LE(s[1].endNs, s[2].startNs);
    EXPECT_LE(s[2].endNs, s[0].endNs);
    for (std::int64_t self : l.selfNs())
        EXPECT_GE(self, 0);

    std::ostringstream os;
    l.writeJsonl(os, 2);
    EXPECT_NE(os.str().find("\"name\":\"inner\",\"start_ns\""),
              std::string::npos);
}

TEST(Ledger, DisabledRecordsNothing)
{
    Ledger l;
    { Ledger::Scope s(l, "x"); }
    EXPECT_TRUE(l.spans().empty());
    EXPECT_EQ(l.opSpanNs(), 0);
}

TEST(Checks, CounterClosure)
{
    setQuiet(true);
    SweepPoint p;
    p.core = CoreKind::kCva6;
    p.unit = RtosUnitConfig::fromName("SLT");
    p.workload = "delay_wake";
    p.iterations = 3;
    p.reseed();
    SweepResult r = runSweepPoint(p, false);
    ASSERT_TRUE(r.run.ok);
    EXPECT_TRUE(countersClose(r.run));
    EXPECT_GT(r.run.throughput.cyclesSkipped, 0u);
    r.run.throughput.cyclesBlockExecuted += 1;
    EXPECT_FALSE(countersClose(r.run));
}

TEST(Workloads, Fig9TracedMatchesRunSweepPoint)
{
    // One point per core, sleep-heavy and compute-bound workloads.
    Ledger traced;
    expectTracedMatchesUntraced("fig9_sweep", {0, 1, 73, 75, 141, 146},
                                traced);
    EXPECT_TRUE(hasSpan(traced, "sim.run"));
    EXPECT_TRUE(hasSpan(traced, "kernel.build"));
    EXPECT_FALSE(hasSpan(traced, "analyze."));
    EXPECT_FALSE(hasSpan(traced, "absint."));
}

TEST(Workloads, Fig9PassCountsClose)
{
    setQuiet(true);
    const auto w = makeBenchWorkload("fig9_sweep", 1);
    Ledger off;
    const PassResult p = w->runPass({3, 10, 200}, off);
    auto c = p.counts;
    EXPECT_EQ(c["sim.runs"], 3);
    EXPECT_EQ(c["sim.cycles"], c["sim.cycles_ticked"] +
                                   c["sim.cycles_skipped"] +
                                   c["sim.cycles_block_executed"]);
    EXPECT_GT(c["trace.episodes"], 0);
    EXPECT_EQ(c["trace.bytes"], static_cast<double>(p.output.size()));
}

TEST(Workloads, LintTracedMatchesLintProgram)
{
    // Two lint programs and one WCET row.
    Ledger traced;
    expectTracedMatchesUntraced("lint_absint", {0, 104, 105}, traced);
    EXPECT_TRUE(hasSpan(traced, "absint.engine"));
    EXPECT_TRUE(hasSpan(traced, "wcet.facts"));
    EXPECT_FALSE(hasSpan(traced, "sim."));
}

TEST(Workloads, LintOpsAreTheGateMatrix)
{
    setQuiet(true);
    std::vector<Program> expected;
    forEachGeneratedProgram(
        [&](const LintPoint &p) { expected.push_back(p.program); });
    Ledger off;
    std::size_t i = 0;
    for (const RtosUnitConfig &unit : lintUnits()) {
        for (const std::string &name : standardWorkloadNames()) {
            ASSERT_LT(i, expected.size());
            const Program p =
                buildLintProgram(off, unit, *makeWorkload(name, 20));
            EXPECT_EQ(p.text, expected[i].text) << unit.name() << name;
            EXPECT_EQ(p.data, expected[i].data) << unit.name() << name;
            ++i;
        }
    }
    EXPECT_EQ(i, expected.size());
    EXPECT_EQ(makeBenchWorkload("lint_absint", 1)->ops(), i + 9);
}

TEST(Workloads, InjectTracedGoldenMatchesCampaign)
{
    Ledger traced;
    expectTracedMatchesUntraced("inject_campaign", {0}, traced);
    EXPECT_TRUE(hasSpan(traced, "inject.golden"));
    EXPECT_TRUE(hasSpan(traced, "sim.run"));
}

TEST(Workloads, OnePointCampaignIsTheFullCampaignSlice)
{
    setQuiet(true);
    SweepSpec grid = injectGrid();
    grid.cores = {CoreKind::kCv32e40p};
    grid.workloads = {"yield_pingpong", "ext_interrupt"};
    grid.iterations = 2;
    CampaignSpec full;
    full.points = grid.points();
    full.faultsPerPoint = 3;
    full.seed = 2;
    const CampaignResult all = runCampaign(full, SweepRunner(1));
    std::ostringstream allJsonl;
    writeCampaignJsonl(allJsonl, full, all);

    std::string sliced;
    for (std::size_t i = 0; i < full.points.size(); ++i) {
        CampaignSpec one = full;
        one.points = {full.points[i]};
        const CampaignResult res = runCampaign(one, SweepRunner(1));
        ASSERT_EQ(res.faults.size(), full.faultsPerPoint);
        for (std::size_t k = 0; k < res.faults.size(); ++k) {
            const FaultRunRecord &f = res.faults[k];
            const FaultRunRecord &g =
                all.faults[i * full.faultsPerPoint + k];
            EXPECT_EQ(g.pointIndex, i);
            EXPECT_EQ(f.fault.describe(), g.fault.describe());
            EXPECT_EQ(f.outcome, g.outcome);
            EXPECT_EQ(f.cycles, g.cycles);
        }
        std::ostringstream os;
        writeCampaignJsonl(os, one, res);
        sliced += os.str();
    }
    EXPECT_EQ(sliced, allJsonl.str());
}
