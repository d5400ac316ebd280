/** Co-exploration engine tests: Pareto dominance properties,
 *  constraint parsing and queries, the analytical prefilter, and the
 *  persistent result cache (cold -> warm gives a byte-identical
 *  frontier with zero simulations, >= 10x faster). */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "common/logging.hh"
#include "explore/cache.hh"
#include "explore/explorer.hh"
#include "inject/campaign.hh"
#include "workloads/workloads.hh"

namespace rtu {
namespace {

DesignEval
synthetic(double mean, double jitter, double area, double fmax = 1.0,
          double power = 1.0)
{
    DesignEval e;
    e.ok = true;
    e.latMean = mean;
    e.latJitter = jitter;
    e.areaNorm = area;
    e.fmaxGHz = fmax;
    e.powerMw = power;
    return e;
}

const std::vector<Objective> kLatArea = {Objective::kLatMean,
                                         Objective::kArea};

TEST(Pareto, DominanceIsStrict)
{
    const DesignEval a = synthetic(10, 5, 1.0);
    const DesignEval b = synthetic(20, 5, 1.2);
    const DesignEval c = synthetic(10, 5, 1.0);  // equal to a
    EXPECT_TRUE(dominates(a, b, kLatArea));
    EXPECT_FALSE(dominates(b, a, kLatArea));
    EXPECT_FALSE(dominates(a, c, kLatArea));  // equality never dominates
    EXPECT_FALSE(dominates(c, a, kLatArea));
}

TEST(Pareto, FmaxIsMaximized)
{
    const DesignEval slow = synthetic(10, 5, 1.0, 0.9);
    const DesignEval fast = synthetic(10, 5, 1.0, 1.4);
    EXPECT_TRUE(dominates(fast, slow,
                          {Objective::kLatMean, Objective::kFmax}));
    EXPECT_FALSE(dominates(slow, fast,
                           {Objective::kLatMean, Objective::kFmax}));
}

TEST(Pareto, MissingWcetNeverBeatsAPresentOne)
{
    DesignEval bounded = synthetic(10, 5, 1.0);
    bounded.hasWcet = true;
    bounded.wcetCycles = 1000;
    DesignEval unbounded = synthetic(10, 5, 1.0);
    EXPECT_TRUE(dominates(bounded, unbounded,
                          {Objective::kLatMean, Objective::kWcet}));
    EXPECT_FALSE(dominates(unbounded, bounded,
                           {Objective::kLatMean, Objective::kWcet}));
}

TEST(Pareto, FrontierPropertyOnRandomPoints)
{
    // Property test: no frontier point is dominated, and every
    // dropped point is dominated by some frontier member.
    std::mt19937 rng(0xc0de);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::vector<DesignEval> evals;
    for (int i = 0; i < 200; ++i)
        evals.push_back(synthetic(u(rng), u(rng), u(rng), u(rng)));
    // Inject duplicates: equal points must both survive.
    evals.push_back(evals[0]);

    const std::vector<Objective> objs = {Objective::kLatMean,
                                         Objective::kLatJitter,
                                         Objective::kArea,
                                         Objective::kFmax};
    const std::vector<size_t> front = paretoFrontier(evals, objs);
    ASSERT_FALSE(front.empty());

    std::vector<bool> onFront(evals.size(), false);
    for (size_t i : front)
        onFront[i] = true;

    for (size_t i = 0; i < evals.size(); ++i) {
        if (onFront[i]) {
            for (size_t j = 0; j < evals.size(); ++j)
                EXPECT_FALSE(dominates(evals[j], evals[i], objs))
                    << "frontier point " << i << " dominated by " << j;
        } else {
            bool dominatedByFront = false;
            for (size_t j : front)
                dominatedByFront =
                    dominatedByFront || dominates(evals[j], evals[i], objs);
            EXPECT_TRUE(dominatedByFront)
                << "dropped point " << i
                << " not dominated by any frontier member";
        }
    }
}

TEST(Pareto, NonDominatedRankLayersConsistently)
{
    // A chain a > b > c plus one incomparable point.
    std::vector<DesignEval> evals = {
        synthetic(1, 1, 1.0),   // rank 0
        synthetic(2, 2, 1.1),   // rank 1 (dominated only by [0])
        synthetic(3, 3, 1.2),   // rank 2
        synthetic(0.5, 9, 2.0), // rank 0 (best mean, worst area)
    };
    const std::vector<Objective> objs = {Objective::kLatMean,
                                         Objective::kArea};
    const std::vector<unsigned> rank = nonDominatedRank(evals, objs);
    EXPECT_EQ(rank[0], 0u);
    EXPECT_EQ(rank[1], 1u);
    EXPECT_EQ(rank[2], 2u);
    EXPECT_EQ(rank[3], 0u);
    const std::vector<size_t> front = paretoFrontier(evals, objs);
    EXPECT_EQ(front, (std::vector<size_t>{0, 3}));
}

TEST(Constraints, ParseAndPrint)
{
    const Constraint area = parseConstraint("area<=1.35");
    EXPECT_EQ(area.obj, Objective::kArea);
    EXPECT_TRUE(area.isUpperBound);
    EXPECT_DOUBLE_EQ(area.bound, 1.35);
    EXPECT_FALSE(area.relativeToVanilla);
    EXPECT_TRUE(area.analytic());
    EXPECT_EQ(area.str(), "area<=1.35");

    const Constraint fmax = parseConstraint("fmax>=0.9x");
    EXPECT_EQ(fmax.obj, Objective::kFmax);
    EXPECT_FALSE(fmax.isUpperBound);
    EXPECT_TRUE(fmax.relativeToVanilla);
    EXPECT_EQ(fmax.str(), "fmax>=0.9x");

    const Constraint jitter = parseConstraint("jitter<=20");
    EXPECT_EQ(jitter.obj, Objective::kLatJitter);
    EXPECT_FALSE(jitter.analytic());
}

TEST(ConstraintsDeath, MalformedInputIsFatal)
{
    EXPECT_DEATH(parseConstraint("area=1.35"), "malformed");
    EXPECT_DEATH(parseConstraint("area<=abc"), "malformed");
    EXPECT_DEATH(parseConstraint("frobs<=1"), "unknown objective");
    EXPECT_DEATH(parseConstraint("lat_mean<=100x"), "relative bound");
}

TEST(Constraints, SelectBestHonorsBoundsAndTieBreaksByOrder)
{
    std::vector<DesignEval> evals = {
        synthetic(50, 10, 1.5),  // infeasible: area
        synthetic(80, 10, 1.2),
        synthetic(60, 10, 1.3),
        synthetic(60, 10, 1.1),  // same mean as [2]: earlier wins -> [2]
    };
    const std::vector<Constraint> cs = {parseConstraint("area<=1.35")};
    EXPECT_EQ(selectBest(evals, Objective::kLatMean, cs), 2u);
    // Without constraints the global optimum wins.
    EXPECT_EQ(selectBest(evals, Objective::kLatMean, {}), 0u);
    // Failed runs are never selected.
    evals[2].ok = evals[3].ok = false;
    EXPECT_EQ(selectBest(evals, Objective::kLatMean, cs), 1u);
    // An unsatisfiable bound yields no selection.
    EXPECT_EQ(selectBest(evals, Objective::kLatMean,
                         {parseConstraint("area<=0.5")}),
              SIZE_MAX);
}

class ExploreEngine : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setQuiet(true);
        char tmpl[] = "/tmp/rtu_explore_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    /** Small but real spec: 2 configs x 2 workloads on CV32E40P. */
    ExploreSpec
    smallSpec() const
    {
        ExploreSpec spec;
        spec.cores = {CoreKind::kCv32e40p};
        spec.units = {RtosUnitConfig::vanilla(),
                      RtosUnitConfig::fromName("SLT")};
        spec.workloads = {"mutex_workload", "yield_pingpong"};
        spec.iterations = 5;
        spec.threads = 2;
        spec.cacheDir = dir_;
        return spec;
    }

    static std::string
    report(const ExploreSpec &spec, const std::vector<DesignEval> &evals)
    {
        // Fixed stats: the report must compare across cold/warm runs.
        std::ostringstream os;
        writeExploreJson(os, spec, evals,
                         {Objective::kLatMean, Objective::kLatJitter,
                          Objective::kArea},
                         ExploreStats(), SIZE_MAX);
        return os.str();
    }

    std::string dir_;
};

TEST_F(ExploreEngine, ColdThenWarmCacheIsByteIdenticalAndTenTimesFaster)
{
    using clock = std::chrono::steady_clock;
    // Enough cold simulation work (3 configs x full suite x 40
    // iterations, single-threaded) that the >= 10x timing assertion
    // has real margin: warm-side cost is one small file parse and
    // barely grows with the grid.
    ExploreSpec spec = smallSpec();
    spec.units = {RtosUnitConfig::vanilla(),
                  RtosUnitConfig::fromName("T"),
                  RtosUnitConfig::fromName("SLT")};
    spec.workloads.clear();  // full standard suite
    spec.iterations = 40;
    spec.threads = 1;
    const size_t nPoints = 3 * standardWorkloadNames().size();

    const auto t0 = clock::now();
    Explorer cold(spec);
    const auto coldEvals = cold.evaluate();
    const auto t1 = clock::now();
    ASSERT_EQ(coldEvals.size(), 3u);
    EXPECT_TRUE(coldEvals[0].ok);
    EXPECT_EQ(cold.stats().sweepPoints, nPoints);
    EXPECT_EQ(cold.stats().simulated, nPoints);
    EXPECT_EQ(cold.stats().cacheHits, 0u);

    const auto t2 = clock::now();
    Explorer warm(spec);
    const auto warmEvals = warm.evaluate();
    const auto t3 = clock::now();
    // Zero simulations: everything served from the JSONL cache.
    EXPECT_EQ(warm.stats().simulated, 0u);
    EXPECT_EQ(warm.stats().cacheHits, nPoints);

    // Byte-identical frontier and evaluations.
    EXPECT_EQ(report(spec, coldEvals), report(spec, warmEvals));
    std::ostringstream mdCold, mdWarm;
    writeFrontierMarkdown(mdCold, coldEvals, kLatArea);
    writeFrontierMarkdown(mdWarm, warmEvals, kLatArea);
    EXPECT_EQ(mdCold.str(), mdWarm.str());

    // The cache must buy at least 10x (in practice it's 100x+: file
    // parse vs cycle-level simulation of four workload runs).
    const auto coldUs =
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0);
    const auto warmUs =
        std::chrono::duration_cast<std::chrono::microseconds>(t3 - t2);
    EXPECT_GE(coldUs.count(), 10 * warmUs.count())
        << "cold " << coldUs.count() << "us vs warm "
        << warmUs.count() << "us";
}

TEST_F(ExploreEngine, CacheToleratesCorruptAndForeignSchemaLines)
{
    const ExploreSpec spec = smallSpec();
    Explorer(spec).evaluate();
    std::string clean;
    {
        std::ifstream is(dir_ + "/results.jsonl");
        std::stringstream ss;
        ss << is.rdbuf();
        clean = ss.str();
    }

    {
        std::ofstream os(dir_ + "/results.jsonl", std::ios::app);
        os << "this is not json\n";
        os << "{\"v\":999,\"key\":\"future/schema\",\"ok\":true}\n";
        os << "{\"v\":1,\"key\":\"truncated";  // no newline, cut short
    }
    Explorer warm(spec);
    EXPECT_EQ(warm.evaluate().size(), 2u);
    EXPECT_EQ(warm.stats().simulated, 0u);
    EXPECT_EQ(warm.stats().cacheHits, 4u);

    // Two caches concatenated (a header mid-file) and a malformed
    // header line: the process survives and every entry still serves.
    const std::string entries = clean.substr(clean.find('\n') + 1);
    const std::pair<const char *, std::string> damaged[] = {
        {"merged", clean + clean},
        {"malformed", "{\"schema\":,\"bench\":\"explore_cache\"}\n" +
                          entries},
    };
    for (const auto &[name, text] : damaged) {
        ExploreSpec s = spec;
        s.cacheDir = dir_ + "/" + name;
        std::filesystem::create_directories(s.cacheDir);
        std::ofstream(s.cacheDir + "/results.jsonl") << text;
        Explorer e(s);
        EXPECT_EQ(e.evaluate().size(), 2u) << name;
        EXPECT_EQ(e.stats().simulated, 0u) << name;
        EXPECT_EQ(e.stats().cacheHits, 4u) << name;
    }
}

TEST_F(ExploreEngine, CacheFileStartsWithASchemaHeaderTheLoaderChecks)
{
    const ExploreSpec spec = smallSpec();
    Explorer(spec).evaluate();

    // Fresh cache files lead with the schema-stamped header object
    // (the sweep benches' --out convention).
    std::ifstream is(dir_ + "/results.jsonl");
    std::string first;
    ASSERT_TRUE(std::getline(is, first));
    EXPECT_EQ(first,
              csprintf("{\"schema\":%u,\"bench\":\"explore_cache\"}",
                       ResultCache::kSchemaVersion));

    // A warm explorer still serves everything from the cache.
    Explorer warm(spec);
    warm.evaluate();
    EXPECT_EQ(warm.stats().simulated, 0u);

    // A file stamped by another writer generation loads no entries:
    // its header (and every line after it) is another schema.
    const std::string foreign = dir_ + "/foreign";
    std::filesystem::create_directories(foreign);
    {
        std::ofstream os(foreign + "/results.jsonl");
        os << "{\"schema\":999,\"bench\":\"explore_cache\"}\n";
        os << "{\"v\":999,\"key\":\"future/entry\",\"ok\":true}\n";
    }
    ResultCache other(foreign);
    EXPECT_EQ(other.size(), 0u);
}

TEST_F(ExploreEngine, CacheRoundTripsNonFiniteSamplesAsNull)
{
    // Regression: non-finite samples used to serialize through printf
    // as bare `inf`/`nan`, corrupting the JSONL stream. They now
    // serialize as JSON null and load back as quiet NaN — same sample
    // count, finite neighbors untouched.
    SweepPoint point;
    point.core = CoreKind::kCv32e40p;
    point.unit = RtosUnitConfig::vanilla();
    point.workload = "mutex_workload";
    point.iterations = 5;

    CachedRun run;
    run.ok = true;
    run.cycles = 1234;
    run.switchSamples = {42.0,
                         std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         7.5};
    {
        ResultCache cache(dir_);
        cache.insert(point, run);
    }
    ResultCache reloaded(dir_);
    CachedRun back;
    ASSERT_TRUE(reloaded.lookup(point, &back));
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.cycles, 1234u);
    ASSERT_EQ(back.switchSamples.size(), 4u);
    EXPECT_DOUBLE_EQ(back.switchSamples[0], 42.0);
    EXPECT_TRUE(std::isnan(back.switchSamples[1]));
    EXPECT_TRUE(std::isnan(back.switchSamples[2]));  // null loses sign
    EXPECT_DOUBLE_EQ(back.switchSamples[3], 7.5);
    // The file itself never contains a bare inf/nan token.
    std::ifstream is(reloaded.filePath());
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text.find("inf"), std::string::npos);
    EXPECT_EQ(text.find("nan"), std::string::npos);
    EXPECT_NE(text.find("null"), std::string::npos);
}

TEST_F(ExploreEngine, AnalyticPrefilterSkipsBeforeSimulating)
{
    ExploreSpec spec = smallSpec();
    spec.units = {RtosUnitConfig::vanilla(),
                  RtosUnitConfig::fromName("SPLIT")};
    // SPLIT on CV32E40P costs ~+47 % area: an area<=1.01 bound prunes
    // it from the grid before any simulation is spent on it.
    spec.constraints = {parseConstraint("area<=1.01")};
    Explorer ex(spec);
    const auto evals = ex.evaluate();
    EXPECT_EQ(ex.stats().designPoints, 2u);
    EXPECT_EQ(ex.stats().prefiltered, 1u);
    EXPECT_EQ(ex.stats().sweepPoints, 2u);  // vanilla's workloads only
    EXPECT_EQ(ex.stats().simulated, 2u);
    ASSERT_EQ(evals.size(), 1u);
    EXPECT_TRUE(evals[0].id.unit.isVanilla());
}

TEST_F(ExploreEngine, CtxQueueAxisOnlyExpandsOnNax)
{
    ExploreSpec spec = smallSpec();
    spec.units = {RtosUnitConfig::vanilla()};
    spec.workloads = {"yield_pingpong"};
    spec.iterations = 2;
    spec.ctxQueueDepths = {4, 8};
    Explorer ex(spec);
    // The ctxQueue is a NaxRiscv LSU structure; CV32E40P evaluates one
    // design point, not one per depth.
    EXPECT_EQ(ex.evaluate().size(), 1u);
    EXPECT_EQ(ex.stats().designPoints, 1u);
}

TEST_F(ExploreEngine, AcceptanceQuerySelectsSltClassOnCv32e40p)
{
    // The paper's Section 6 recommendation, as a constrained query:
    // "minimize mean latency subject to area <= +35 %" on CV32E40P
    // must land on an SLT-class configuration (hardware store + load
    // + scheduling) — SPLIT is priced out, vanilla/CV32RT/S/SL/T are
    // out-performed.
    ExploreSpec spec = smallSpec();
    spec.units = RtosUnitConfig::latencyConfigs();
    spec.workloads = {"mutex_workload", "yield_pingpong"};
    spec.iterations = 4;
    spec.threads = 4;
    spec.constraints = {parseConstraint("area<=1.35")};
    Explorer ex(spec);
    const auto evals = ex.evaluate();
    // SPLIT (~+47 %) is the one analytically pruned configuration.
    EXPECT_EQ(ex.stats().prefiltered, 1u);

    const size_t best =
        selectBest(evals, Objective::kLatMean, spec.constraints);
    ASSERT_NE(best, SIZE_MAX);
    const RtosUnitConfig &u = evals[best].id.unit;
    EXPECT_TRUE(u.store && u.load && u.sched)
        << "expected an SLT-class config, got " << u.name();

    // The frontier over {lat_mean, jitter, area} contains no
    // dominated point (acceptance criterion).
    const std::vector<Objective> objs = {Objective::kLatMean,
                                         Objective::kLatJitter,
                                         Objective::kArea};
    const auto front = paretoFrontier(evals, objs);
    for (size_t i : front) {
        for (size_t j = 0; j < evals.size(); ++j)
            EXPECT_FALSE(dominates(evals[j], evals[i], objs));
    }
    // The winning SLT-class point is itself Pareto-optimal, and
    // vanilla sits on the frontier too — as the unique minimum-area
    // point it can't be dominated once area is an objective, yet the
    // constrained query never picks it (the whole reason queries, not
    // raw frontiers, drive the paper's recommendations).
    EXPECT_NE(std::find(front.begin(), front.end(), best), front.end());
    EXPECT_FALSE(evals[best].id.unit.isVanilla());

    // Adding the paper's hard-real-time lens (tight jitter) narrows
    // the pick to (SLT) itself: SDLOT trades jitter for mean.
    std::vector<Constraint> rt = spec.constraints;
    rt.push_back(parseConstraint("jitter<=20"));
    const size_t rtBest = selectBest(evals, Objective::kLatMean, rt);
    if (rtBest != SIZE_MAX) {
        const RtosUnitConfig &ru = evals[rtBest].id.unit;
        EXPECT_TRUE(ru.sched) << "hard-RT pick must use hardware "
                                 "scheduling, got " << ru.name();
    }
}

TEST_F(ExploreEngine, RobustnessObjectiveMatchesTheCampaignAtAnyThreadCount)
{
    // The detect axis: every design carries the detection coverage of
    // a seeded fault campaign over its own sweep points, independent
    // of the worker count. No cache, so both runs simulate.
    ExploreSpec spec = smallSpec();
    spec.cacheDir.clear();
    spec.robustnessFaults = 2;
    spec.robustnessSeed = 15;
    const std::vector<Objective> objectives = {Objective::kLatMean,
                                               Objective::kDetect};
    auto evaluate = [&](unsigned threads) {
        spec.threads = threads;
        Explorer ex(spec);
        return ex.evaluate();
    };
    const std::vector<DesignEval> evals = evaluate(1);
    ASSERT_EQ(evals.size(), 2u);

    std::ostringstream one, four;
    writeExploreJson(one, spec, evals, objectives, ExploreStats(),
                     SIZE_MAX);
    writeExploreJson(four, spec, evaluate(4), objectives, ExploreStats(),
                     SIZE_MAX);
    EXPECT_EQ(one.str(), four.str());

    for (const DesignEval &e : evals) {
        ASSERT_TRUE(e.hasDetect) << e.id.key();
        EXPECT_GE(e.detectCoverage, 0.0) << e.id.key();
        EXPECT_LE(e.detectCoverage, 1.0) << e.id.key();

        // Fault plans depend only on (seed, point), so a campaign over
        // this design's points alone reproduces its slice.
        CampaignSpec cs;
        cs.faultsPerPoint = spec.robustnessFaults;
        cs.seed = spec.robustnessSeed;
        for (const std::string &w : spec.workloads) {
            SweepPoint p;
            p.core = e.id.core;
            p.unit = e.id.unit;
            p.workload = w;
            p.iterations = e.id.iterations;
            p.timerPeriodCycles = e.id.timerPeriodCycles;
            p.naxCtxQueueEntries = e.id.ctxQueueEntries;
            p.reseed();
            cs.points.push_back(p);
        }
        const CampaignResult cres = runCampaign(cs, SweepRunner(2));
        EXPECT_EQ(cres.faults.size(),
                  spec.workloads.size() * spec.robustnessFaults);
        EXPECT_DOUBLE_EQ(e.detectCoverage, cres.detectionCoverage())
            << e.id.key();
    }
}

TEST_F(ExploreEngine, SchedUtilObjectiveRanksFasterSwitchPathsHigher)
{
    // The schedulability axis: with the sched-util objective enabled,
    // every evaluated point carries a breakdown utilization computed
    // from its own measured switch path, and the hardware-assisted
    // SLT configuration admits strictly more schedulable load than
    // vanilla (its margined switch maximum is several times smaller).
    ExploreSpec spec = smallSpec();
    spec.schedTasksets = 4;
    spec.schedSeed = 7;
    Explorer ex(spec);
    const auto evals = ex.evaluate();
    ASSERT_EQ(evals.size(), 2u);

    const DesignEval *vanilla = nullptr, *slt = nullptr;
    for (const DesignEval &e : evals) {
        if (e.id.unit.isVanilla())
            vanilla = &e;
        else
            slt = &e;
    }
    ASSERT_NE(vanilla, nullptr);
    ASSERT_NE(slt, nullptr);
    ASSERT_TRUE(vanilla->hasSchedUtil);
    ASSERT_TRUE(slt->hasSchedUtil);
    EXPECT_GT(vanilla->schedUtil, 0.0);
    EXPECT_LE(slt->schedUtil, 1.0);
    EXPECT_GT(slt->schedUtil, vanilla->schedUtil);

    // A constrained "maximize schedulable utilization" query — the
    // co-design question the subsystem exists to answer — picks the
    // hardware-assisted point.
    const std::vector<Constraint> cs = {parseConstraint("area<=1.35")};
    const size_t best =
        selectBest(evals, Objective::kSchedUtil, cs);
    ASSERT_NE(best, SIZE_MAX);
    EXPECT_FALSE(evals[best].id.unit.isVanilla());

    // Objective plumbing: name round-trip, maximized direction, and
    // the missing-value canonicalization (a never-analyzed point
    // scores worst, mirroring wcet/detect).
    EXPECT_EQ(objectiveFromName("sched-util"), Objective::kSchedUtil);
    EXPECT_TRUE(objectiveMaximized(Objective::kSchedUtil));
    DesignEval bare;
    EXPECT_TRUE(std::isinf(canonicalValue(bare,
                                          Objective::kSchedUtil)));
    EXPECT_EQ(canonicalValue(*slt, Objective::kSchedUtil),
              -slt->schedUtil);
}

} // namespace
} // namespace rtu
