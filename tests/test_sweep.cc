/** SweepRunner tests: grid expansion, determinism (same spec twice
 *  => byte-identical JSONL; serial == parallel), closed cycle
 *  accounting on every result line, and the per-episode trace schema
 *  (all six phase timestamps present; hardware phases populated on
 *  hardware configurations). */

#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.hh"
#include "sweep/sweep.hh"
#include "workloads/workloads.hh"

namespace rtu {
namespace {

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.cores = {CoreKind::kCv32e40p, CoreKind::kNax};
    spec.units = {RtosUnitConfig::vanilla(),
                  RtosUnitConfig::fromName("SLT")};
    spec.workloads = {"mutex_workload", "yield_pingpong"};
    spec.iterations = 4;
    return spec;
}

std::pair<std::string, std::string>
runToJsonl(const SweepSpec &spec, unsigned threads)
{
    const auto results = SweepRunner(threads).run(spec, true);
    std::ostringstream res, trc;
    writeResultsJsonl(res, results);
    writeTraceJsonl(trc, results);
    return {res.str(), trc.str()};
}

/** Value of the unsigned integer field @p key in one JSONL line. */
std::uint64_t
u64Field(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const size_t at = line.find(needle);
    EXPECT_NE(at, std::string::npos) << "missing " << key << " in: " << line;
    if (at == std::string::npos)
        return 0;
    return std::stoull(line.substr(at + needle.size()));
}

TEST(SweepSpec, ExpandsTheFullCartesianGridInStableOrder)
{
    const SweepSpec spec = smallSpec();
    const auto pts = spec.points();
    ASSERT_EQ(pts.size(), 8u);
    // Core-major nesting: first half CV32E40P, second half Nax.
    EXPECT_EQ(pts[0].core, CoreKind::kCv32e40p);
    EXPECT_EQ(pts[4].core, CoreKind::kNax);
    // unit > workload nesting inside a core.
    EXPECT_TRUE(pts[0].unit.isVanilla());
    EXPECT_EQ(pts[0].workload, "mutex_workload");
    EXPECT_EQ(pts[1].workload, "yield_pingpong");
    EXPECT_FALSE(pts[2].unit.isVanilla());
    // Seeds are deterministic and distinct per point.
    EXPECT_NE(pts[0].seed, 0u);
    EXPECT_NE(pts[0].seed, pts[1].seed);
    EXPECT_EQ(pts[0].seed, spec.points()[0].seed);
}

TEST(SweepSpecDeath, EmptyAxisPanics)
{
    SweepSpec spec = smallSpec();
    spec.workloads.clear();
    EXPECT_DEATH(spec.points(), "empty axis");
}

TEST(SweepSpecDeath, ZeroIterationsPanics)
{
    // A zero-iteration workload never reaches its exit call, so the
    // simulation would spin forever; reject it up front.
    SweepSpec spec = smallSpec();
    spec.iterations = 0;
    EXPECT_DEATH(spec.points(), "at least one iteration");
}

TEST(SweepRunner, SameSpecTwiceIsByteIdentical)
{
    setQuiet(true);
    const SweepSpec spec = smallSpec();
    const auto [res_a, trc_a] = runToJsonl(spec, 2);
    const auto [res_b, trc_b] = runToJsonl(spec, 2);
    EXPECT_FALSE(res_a.empty());
    EXPECT_FALSE(trc_a.empty());
    EXPECT_EQ(res_a, res_b);
    EXPECT_EQ(trc_a, trc_b);
}

TEST(SweepRunner, SerialAndParallelAgree)
{
    setQuiet(true);
    const SweepSpec spec = smallSpec();
    const auto [res_serial, trc_serial] = runToJsonl(spec, 1);
    const auto [res_par, trc_par] = runToJsonl(spec, 4);
    EXPECT_EQ(res_serial, res_par);
    EXPECT_EQ(trc_serial, trc_par);
}

TEST(SweepRunner, ResultLinesCloseTheCycleAccounting)
{
    // Every simulated cycle is ticked, skipped or block-executed — a
    // consumer can check the engine split against the total.
    setQuiet(true);
    std::ostringstream os;
    writeResultsHeaderJsonl(os, "test");
    writeResultsJsonl(os, SweepRunner(2).run(smallSpec()));

    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(u64Field(line, "schema"), kSweepResultsSchema);
    size_t lines = 0;
    std::uint64_t blockExecuted = 0;
    while (std::getline(is, line)) {
        ++lines;
        const std::uint64_t executed =
            u64Field(line, "cycles_block_executed");
        EXPECT_EQ(u64Field(line, "cycles"),
                  u64Field(line, "cycles_ticked") +
                      u64Field(line, "cycles_skipped") + executed)
            << line;
        blockExecuted += executed;
    }
    EXPECT_EQ(lines, smallSpec().points().size());
    EXPECT_GT(blockExecuted, 0u);
}

TEST(SweepRunner, ResultsMatchTheDirectHarnessPath)
{
    setQuiet(true);
    SweepSpec spec;
    spec.cores = {CoreKind::kCv32e40p};
    spec.units = {RtosUnitConfig::fromName("SLT")};
    spec.workloads = {"mutex_workload"};
    spec.iterations = 4;
    const auto results = SweepRunner(3).run(spec);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].run.ok);

    const auto w = makeWorkload("mutex_workload", 4);
    const RunResult direct =
        runWorkload(CoreKind::kCv32e40p, spec.units[0], *w);
    ASSERT_TRUE(direct.ok);
    EXPECT_EQ(results[0].run.cycles, direct.cycles);
    ASSERT_EQ(results[0].run.switchLatency.count(),
              direct.switchLatency.count());
    EXPECT_DOUBLE_EQ(results[0].run.switchLatency.mean(),
                     direct.switchLatency.mean());
    EXPECT_DOUBLE_EQ(results[0].run.switchLatency.jitter(),
                     direct.switchLatency.jitter());
}

TEST(SweepRunner, TraceCarriesAllSixPhaseTimestamps)
{
    setQuiet(true);
    SweepSpec spec;
    spec.cores = {CoreKind::kCv32e40p};
    spec.units = {RtosUnitConfig::fromName("SLT")};
    spec.workloads = {"mutex_workload"};
    spec.iterations = 4;
    const auto results = SweepRunner(1).run(spec, true);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].run.ok);
    const std::string &trace = results[0].trace;
    ASSERT_FALSE(trace.empty());

    // Every line is one episode object carrying all six phase fields.
    std::istringstream is(trace);
    std::string line;
    size_t lines = 0;
    while (std::getline(is, line)) {
        ++lines;
        for (const char *field :
             {"\"irq_assert\":", "\"trap_taken\":", "\"store_done\":",
              "\"sched_done\":", "\"load_done\":", "\"mret\":"}) {
            EXPECT_NE(line.find(field), std::string::npos)
                << "missing " << field << " in: " << line;
        }
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }
    // One line per recorded episode: at least every episode that
    // entered the latency statistics (queued/preempted add more).
    EXPECT_GE(lines,
              static_cast<size_t>(
                  results[0].run.episodeLatency.count()));
    EXPECT_GT(lines, 0u);

    // On (SLT) the hardware performs store+sched+load: the phases
    // must actually be stamped (not the absent-phase null) on
    // switching episodes.
    bool sawStamped = false;
    std::istringstream is2(trace);
    while (std::getline(is2, line)) {
        if (line.find("\"store_done\":null,") == std::string::npos &&
            line.find("\"sched_done\":null,") == std::string::npos &&
            line.find("\"load_done\":null,") == std::string::npos) {
            sawStamped = true;
            break;
        }
    }
    EXPECT_TRUE(sawStamped)
        << "no episode carries all three hardware phase stamps";
}

} // namespace
} // namespace rtu
