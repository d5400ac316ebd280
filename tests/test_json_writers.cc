/** Byte pin of every library JSON writer: fixed synthetic inputs
 *  (adversarial names, NaN values, empty sample sets, unreached trace
 *  phases, a missing selection) through each writer, hashed into one
 *  FNV-1a digest. Any change to quoting, escaping, separators, number
 *  formats or field order moves the digest. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "analyze/diag.hh"
#include "common/rng.hh"
#include "explore/cache.hh"
#include "explore/explorer.hh"
#include "inject/campaign.hh"
#include "sched/campaign.hh"
#include "sweep/sweep.hh"
#include "trace/trace.hh"

namespace rtu {
namespace {

const std::string kNasty = "a\"b\\c\n\x01\xc3\xa9";

SweepPoint
nastyPoint()
{
    SweepPoint p;
    p.core = CoreKind::kNax;
    p.unit = RtosUnitConfig::fromName("SLT");
    p.workload = kNasty;
    p.iterations = 7;
    p.timerPeriodCycles = 1234;
    p.naxCtxQueueEntries = 4;
    p.reseed();
    return p;
}

std::string
sweepBytes()
{
    SweepResult empty;
    empty.point = nastyPoint();
    empty.run.ok = false;
    empty.run.exitCode = 3;
    empty.run.status = RunStatus::kCycleLimit;
    empty.run.cycles = 99;

    SweepResult full;
    full.point = nastyPoint();
    full.point.core = CoreKind::kCv32e40p;
    full.run.ok = true;
    full.run.cycles = 5000;
    full.run.throughput.cyclesTicked = 3000;
    full.run.throughput.cyclesSkipped = 1500;
    full.run.throughput.cyclesBlockExecuted = 500;
    full.run.throughput.wallSeconds = 0.0125;
    full.run.coreStats.instret = 4321;
    full.run.coreStats.fetchPredecoded = 11;
    full.run.coreStats.fetchSlowPath = 12;
    full.run.coreStats.textInvalidations = 13;
    full.run.coreStats.blocksExecuted = 14;
    full.run.coreStats.blockFallbacks = 15;
    full.run.coreStats.blockInvalidations = 16;
    for (double v : {147.0, 71.0, 88.0, 90.0})
        full.run.switchLatency.add(v);

    std::ostringstream os;
    writeResultsHeaderJsonl(os, "pinned");
    writeResultsJsonl(os, {empty, full});
    writeResultsJsonl(os, {empty, full}, true);
    return os.str();
}

std::string
traceBytes()
{
    std::ostringstream os;
    JsonlTraceSink sink(os);
    TraceRunLabel label;
    label.core = "NaxRiscv";
    label.config = "SLT";
    label.workload = kNasty;
    label.seed = 0xdeadbeefcafeull;
    sink.beginRun(label);
    EpisodeTrace e;
    e.cause = 0x8000000b;
    e.fromTask = 1;
    e.toTask = 2;
    e.queued = true;
    e.irqAssert = 10;
    e.trapTaken = 12;
    e.storeDone = 20;
    e.schedDone = kNoPhase;
    e.loadDone = 30;
    e.mret = 40;
    sink.episode(e);
    e.preempted = true;
    e.queued = false;
    e.storeDone = kNoPhase;
    e.loadDone = kNoPhase;
    sink.episode(e);
    sink.endRun();
    label.workload = "second";
    sink.beginRun(label);
    sink.episode(e);
    return os.str();
}

std::string
campaignBytes()
{
    CampaignSpec spec;
    spec.points = {nastyPoint()};
    spec.seed = 77;
    CampaignResult result;
    FaultRunRecord f;
    f.fault.kind = FaultKind::kTcbField;
    f.fault.episode = 3;
    f.fault.word = 5;
    f.fault.bitMask = 0x80000001u;
    f.fault.tcbField = 8;
    f.fault.taskSel = 1;
    f.fault.cycles = 123456789012ull;
    f.fault.irqIndex = 2;
    f.fired = true;
    f.outcome = FaultOutcome::kDetectedOracle;
    f.oracleHits = 2;
    f.oracleName = "ctx\"name";
    f.oracleCycle = 4444;
    f.oracleEpisode = 6;
    f.oracleDetail = kNasty;
    f.status = RunStatus::kNoRetire;
    f.statusDetail = kNasty;
    f.exitCode = 0xffffffffu;
    f.cycles = 99999;
    result.faults.push_back(f);
    result.faults.push_back(FaultRunRecord());
    std::ostringstream os;
    writeCampaignJsonl(os, spec, result);
    return os.str();
}

std::string
schedBytes()
{
    SchedCampaignSpec spec;
    spec.cores = {CoreKind::kCv32e40p, CoreKind::kCva6};
    spec.configs = {RtosUnitConfig::vanilla(),
                    RtosUnitConfig::fromName("SLT")};
    spec.utilGrid = {0.4, std::nan(""), 0.95};
    spec.margin = 1.25;
    spec.simulate = false;

    SchedCampaignResult result;
    SchedConfigSummary s;
    s.core = CoreKind::kCva6;
    s.config = kNasty;
    s.overheads.rta.switchCost = 123.4567;
    s.overheads.rta.tickCost = std::nan("");
    s.overheads.measSwitchMax = 150;
    s.overheads.measTickMax = 80.25;
    s.overheads.measEntryMax = std::numeric_limits<double>::infinity();
    s.overheads.hasWcet = true;
    s.overheads.wcetCycles = 1649;
    s.overheads.busy.cyclesPerIter = 8.125;
    s.overheads.busy.perJobOverheadCycles = 42.0005;
    result.summaries = {s, SchedConfigSummary()};

    SchedPointResult p;
    p.core = CoreKind::kNax;
    p.config = "SLT";
    p.utilIndex = 2;
    p.tasksetIndex = 5;
    p.util = 0.7;
    p.tasksetSeed = 0x123456789abcdefull;
    p.rtaSchedulable = true;
    p.rtaMaxNorm = std::nan("");
    p.simRan = true;
    p.simOk = true;
    p.jobsExpected = 10;
    p.jobsDone = 9;
    p.misses = 1;
    p.simMaxNorm = 1.00005;
    p.sound = false;
    p.status = kNasty;
    result.points = {p, SchedPointResult()};

    std::ostringstream os;
    writeSchedJsonl(os, spec, result);
    return os.str();
}

std::string
exploreBytes()
{
    ExploreSpec spec;
    spec.constraints = {parseConstraint("area<=1.35"),
                        parseConstraint("jitter<=20")};

    DesignEval a;
    a.id.core = CoreKind::kCv32e40p;
    a.id.unit = RtosUnitConfig::fromName("SLT");
    a.ok = true;
    a.latMean = 71.25;
    a.latJitter = 17;
    a.latMin = 64;
    a.latMax = 81;
    a.latP99 = 80;
    a.switches = 1234;
    a.hasWcet = true;
    a.wcetCycles = 70;
    a.areaNorm = 1.2345678;
    a.areaMm2 = 0.0123456;
    a.fmaxGHz = 0.987654;
    a.powerMw = 12.3456;

    DesignEval b;
    b.id.core = CoreKind::kNax;
    b.id.unit = RtosUnitConfig::vanilla();
    b.id.ctxQueueEntries = 4;
    b.latMean = std::nan("");
    b.latJitter = std::nan("");
    b.latMin = std::numeric_limits<double>::infinity();
    b.latMax = std::nan("");
    b.latP99 = std::nan("");
    b.hasDetect = true;
    b.detectCoverage = 0.5;
    b.hasSchedUtil = true;
    b.schedUtil = std::nan("");

    ExploreStats stats;
    stats.designPoints = 10;
    stats.prefiltered = 2;
    stats.sweepPoints = 16;
    stats.cacheHits = 5;
    stats.simulated = 11;

    const std::vector<Objective> objs = {Objective::kLatMean,
                                         Objective::kArea,
                                         Objective::kWcet};
    std::ostringstream os;
    writeExploreJson(os, spec, {a, b}, objs, stats, SIZE_MAX);
    writeExploreJson(os, spec, {a, b}, objs, stats, 0);
    writeExploreJson(os, ExploreSpec(), {}, {}, ExploreStats(), SIZE_MAX);
    return os.str();
}

std::string
cacheBytes()
{
    char tmpl[] = "/tmp/rtu_json_writers_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr)
        return "mkdtemp failed";
    const std::string dir = tmpl;
    {
        ResultCache cache(dir);
        CachedRun run;
        run.ok = true;
        run.exitCode = 7;
        run.cycles = 123456;
        run.switchSamples = {71, 12.5, std::nan(""), -3, 1e17};
        run.activity.cycles = 1;
        run.activity.instret = 2;
        run.activity.memOps = 3;
        run.activity.unitMemWords = 4;
        run.activity.sortPhases = 5;
        run.activity.unitBusyCycles = 6;
        run.activity.traps = 7;
        cache.insert(nastyPoint(), run);
        SweepPoint other = nastyPoint();
        other.workload = "plain";
        cache.insert(other, CachedRun());
    }
    std::ifstream is(dir + "/results.jsonl");
    std::stringstream ss;
    ss << is.rdbuf();
    std::filesystem::remove_all(dir);
    return ss.str();
}

std::string
diagBytes()
{
    Diagnostic bare;
    bare.severity = Severity::kWarning;
    bare.code = "abi-clobber";
    bare.message = kNasty;

    Diagnostic full;
    full.code = "ctx\"code";
    full.pc = 0x80001234;
    full.hasPc = true;
    full.function = "vPortISR";
    full.insn = "sw ra, 4(sp)";
    full.message = "stack \\ overflow";

    return diagToJson(bare) + "\n" + diagToJson(full) + "\n" +
           diagToJson(full, "\"config\":\"SLT\",\"workload\":\"w\"") +
           "\n";
}

TEST(JsonWriters, BytesPinned)
{
    const std::string blob = sweepBytes() + traceBytes() +
                             campaignBytes() + schedBytes() +
                             exploreBytes() + cacheBytes() + diagBytes();
    EXPECT_EQ(fnv1a(blob), 0x64e608e7155391e4ull) << blob;
}

} // namespace
} // namespace rtu
