#include "explorer.hh"

#include <cmath>
#include <cstdio>

#include "asic/asic.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "inject/campaign.hh"
#include "kernel/kernel.hh"
#include "sched/rta.hh"
#include "sched/taskset.hh"
#include "wcet/wcet.hh"
#include "workloads/workloads.hh"

namespace rtu {

namespace {

/** The paper measures power on mutex_workload; fall back to the
 *  first workload when the spec doesn't include it. */
const std::string &
powerWorkload(const std::vector<std::string> &workloads)
{
    for (const std::string &w : workloads) {
        if (w == "mutex_workload")
            return w;
    }
    return workloads.front();
}

SampleStats
statsOf(const CachedRun &run)
{
    SampleStats s;
    for (double v : run.switchSamples)
        s.add(v);
    return s;
}

} // namespace

Explorer::Explorer(const ExploreSpec &spec)
    : spec_(spec), cache_(spec.cacheDir)
{
    rtu_assert(!spec_.cores.empty() && !spec_.units.empty(),
               "explore spec has an empty core or config axis");
    rtu_assert(!spec_.ctxQueueDepths.empty(),
               "explore spec has an empty ctxQueue axis");
    rtu_assert(spec_.iterations > 0,
               "explore spec needs at least one iteration");
    if (spec_.workloads.empty())
        spec_.workloads = standardWorkloadNames();
}

std::vector<DesignId>
Explorer::designGrid() const
{
    std::vector<DesignId> grid;
    for (CoreKind core : spec_.cores) {
        for (const RtosUnitConfig &unit : spec_.units) {
            // The ctxQueue is a NaxRiscv LSU structure; other cores
            // would evaluate identical duplicates per depth.
            const bool depthMatters = core == CoreKind::kNax;
            for (unsigned depth : spec_.ctxQueueDepths) {
                DesignId id;
                id.core = core;
                id.unit = unit;
                id.ctxQueueEntries = depth;
                id.timerPeriodCycles = spec_.timerPeriodCycles;
                id.iterations = spec_.iterations;
                grid.push_back(id);
                if (!depthMatters)
                    break;
            }
        }
    }
    return grid;
}

double
Explorer::wcetFor(const DesignId &id) const
{
    const std::string memoKey =
        id.unit.name() + "/" + std::to_string(id.unit.listSlots);
    const auto it = wcetMemo_.find(memoKey);
    if (it != wcetMemo_.end())
        return it->second;

    // Same maximally-loaded setup as bench_wcet_table: up to eight
    // TCBs moving through the lists, external path enabled.
    KernelParams kp;
    kp.unit = id.unit;
    kp.usesExternalIrq = true;
    KernelBuilder kb(kp);
    const auto w = makeDelayWake(1);
    w->addTasks(kb);
    const Program program = kb.build();

    WcetAnalyzer analyzer(program, id.unit);
    const double wcet =
        static_cast<double>(analyzer.analyzeIsr().totalCycles);
    wcetMemo_[memoKey] = wcet;
    return wcet;
}

DesignEval
Explorer::join(const DesignId &id,
               const std::vector<CachedRun> &runs) const
{
    DesignEval e;
    e.id = id;

    const AreaResult area = AsicModel::area(id.core, id.unit);
    e.areaNorm = area.normalized;
    e.areaMm2 = area.areaMm2;
    e.fmaxGHz = AsicModel::fmaxGHz(id.core, id.unit);

    bool ok = !runs.empty();
    SampleStats merged;
    for (const CachedRun &r : runs) {
        ok = ok && r.ok;
        merged.merge(statsOf(r));
    }
    e.ok = ok && !merged.empty();
    if (!merged.empty()) {
        e.latMean = merged.mean();
        e.latJitter = merged.jitter();
        e.latMin = merged.min();
        e.latMax = merged.max();
        e.latP99 = merged.percentile(0.99);
        e.switches = merged.count();
    }

    // Power from the measured activity of the paper's power workload.
    const size_t powerIdx =
        &powerWorkload(spec_.workloads) - spec_.workloads.data();
    if (powerIdx < runs.size() &&
        runs[powerIdx].activity.cycles > 0) {
        e.powerMw = AsicModel::power(id.core, id.unit,
                                     runs[powerIdx].activity,
                                     spec_.powerFreqMhz)
                        .totalMw();
    }

    if (spec_.computeWcet && id.core == CoreKind::kCv32e40p) {
        e.wcetCycles = wcetFor(id);
        e.hasWcet = true;
    }
    return e;
}

std::vector<DesignEval>
Explorer::evaluate()
{
    stats_ = ExploreStats();
    const std::vector<DesignId> grid = designGrid();
    stats_.designPoints = grid.size();

    // (4) Analytical prefilter: area/f_max bounds need no simulation;
    // points violating them never reach the runner.
    std::vector<Constraint> analytic;
    for (const Constraint &c : spec_.constraints) {
        if (c.analytic())
            analytic.push_back(c);
    }
    std::vector<DesignId> survivors;
    for (const DesignId &id : grid) {
        DesignEval shell;
        shell.id = id;
        const AreaResult area = AsicModel::area(id.core, id.unit);
        shell.areaNorm = area.normalized;
        shell.fmaxGHz = AsicModel::fmaxGHz(id.core, id.unit);
        bool keep = true;
        for (const Constraint &c : analytic)
            keep = keep && c.satisfiedBy(shell);
        if (keep)
            survivors.push_back(id);
        else
            ++stats_.prefiltered;
    }
    if (stats_.prefiltered > 0) {
        inform("explore: analytical prefilter pruned %zu of %zu design "
               "points before simulation",
               stats_.prefiltered, stats_.designPoints);
    }

    // (3) Cache-aware result gathering: only unseen points simulate.
    auto sweepPointFor = [&](const DesignId &id, const std::string &w) {
        SweepPoint p;
        p.core = id.core;
        p.unit = id.unit;
        p.workload = w;
        p.iterations = id.iterations;
        p.timerPeriodCycles = id.timerPeriodCycles;
        p.naxCtxQueueEntries = id.ctxQueueEntries;
        p.reseed();
        return p;
    };

    std::vector<SweepPoint> missing;
    for (const DesignId &id : survivors) {
        for (const std::string &w : spec_.workloads) {
            ++stats_.sweepPoints;
            const SweepPoint p = sweepPointFor(id, w);
            CachedRun cached;
            if (cache_.lookup(p, &cached))
                ++stats_.cacheHits;
            else
                missing.push_back(p);
        }
    }

    if (!missing.empty()) {
        const SweepRunner runner(spec_.threads);
        const std::vector<SweepResult> fresh = runner.runPoints(missing);
        stats_.simulated = fresh.size();
        for (const SweepResult &r : fresh) {
            if (!r.run.ok) {
                const std::string line = csprintf(
                    "%s: status=%s%s%s", r.point.key().c_str(),
                    runStatusName(r.run.status),
                    r.run.diagnostic.empty() ? "" : ": ",
                    r.run.diagnostic.c_str());
                warn("explore point %s failed", line.c_str());
                stats_.failures.push_back(line);
            }
            cache_.insert(r.point, ResultCache::fromRunResult(r.run));
        }
    }

    // (1) Join both sides into one objective vector per design point.
    std::vector<DesignEval> evals;
    evals.reserve(survivors.size());
    for (const DesignId &id : survivors) {
        std::vector<CachedRun> runs;
        runs.reserve(spec_.workloads.size());
        for (const std::string &w : spec_.workloads) {
            CachedRun cached;
            const bool hit = cache_.lookup(sweepPointFor(id, w), &cached);
            rtu_assert(hit, "sweep point vanished from the cache");
            runs.push_back(std::move(cached));
        }
        evals.push_back(join(id, runs));
    }

    // (2) Optional robustness objective: a deterministic fault
    // campaign over the surviving grid; per-design detection coverage
    // becomes the "detect" axis. Never cached — the coverage is a
    // function of the campaign seed, not just the sweep point.
    if (spec_.robustnessFaults > 0 && !survivors.empty()) {
        CampaignSpec cs;
        cs.faultsPerPoint = spec_.robustnessFaults;
        cs.seed = spec_.robustnessSeed;
        for (const DesignId &id : survivors) {
            for (const std::string &w : spec_.workloads)
                cs.points.push_back(sweepPointFor(id, w));
        }
        const SweepRunner runner(spec_.threads);
        const CampaignResult cres = runCampaign(cs, runner);
        const size_t perDesign = spec_.workloads.size();
        std::vector<unsigned> detected(survivors.size(), 0);
        std::vector<unsigned> escaped(survivors.size(), 0);
        for (const FaultRunRecord &f : cres.faults) {
            const size_t design = f.pointIndex / perDesign;
            if (f.outcome == FaultOutcome::kMasked)
                continue;
            if (f.outcome == FaultOutcome::kDetectedOracle ||
                f.outcome == FaultOutcome::kDetectedWatchdog) {
                ++detected[design];
            } else {
                ++escaped[design];
            }
        }
        for (size_t i = 0; i < evals.size(); ++i) {
            const unsigned effective = detected[i] + escaped[i];
            evals[i].hasDetect = true;
            evals[i].detectCoverage =
                effective == 0 ? 1.0
                               : static_cast<double>(detected[i]) /
                                     effective;
        }
    }

    // (5) Optional schedulability objective: per design, the mean RTA
    // breakdown utilization over seeded unit-utilization taskset
    // shapes. The same shapes score every design (the seed never
    // mixes in the configuration), so the axis ranks configurations
    // by how much schedulable load their measured switch path admits.
    // The overheads here are the margined observed maxima, not the
    // trace-phase decomposition bench_sched measures — this axis is a
    // ranking heuristic; soundness claims stay with bench_sched's
    // simulator-validated campaign.
    if (spec_.schedTasksets > 0) {
        TasksetParams shape;
        shape.totalUtil = 1.0;
        for (DesignEval &e : evals) {
            if (!e.ok)
                continue;
            RtaOverheads oh;
            oh.switchCost = spec_.schedMargin * e.latMax;
            oh.tickCost = e.hasWcet
                              ? e.wcetCycles
                              : spec_.schedMargin * e.latMax;
            oh.tickPeriodCycles =
                static_cast<double>(e.id.timerPeriodCycles);
            double sum = 0;
            for (unsigned t = 0; t < spec_.schedTasksets; ++t) {
                const Taskset ts = makeTaskset(
                    tasksetSeed(spec_.schedSeed, 0, t), shape);
                sum += breakdownUtilization(
                    ts, oh,
                    static_cast<double>(e.id.timerPeriodCycles));
            }
            e.schedUtil = sum / spec_.schedTasksets;
            e.hasSchedUtil = true;
        }
    }
    return evals;
}

namespace {

/** Byte-stable numeric formatting per objective (cycle quantities
 *  print integrally, model outputs with fixed precision). Missing
 *  objectives (no WCET, no campaign, no RTA) and non-finite values —
 *  a NaN from an empty latency set — serialize as JSON null, never as
 *  bare inf/nan; canonicalValue is +inf exactly when missing. */
std::string
formatObjective(const DesignEval &e, Objective o)
{
    const char *fmt = "%.4f";  // area, detect, sched_util
    if (o == Objective::kLatJitter || o == Objective::kWcet)
        fmt = "%.0f";
    else if (o == Objective::kLatMean || o == Objective::kFmax ||
             o == Objective::kPower)
        fmt = "%.3f";
    return jsonNumber(std::isfinite(canonicalValue(e, o))
                          ? objectiveValue(e, o)
                          : std::nan(""),
                      fmt);
}

void
writeEvalJson(JsonWriter &w, const char *key, const DesignEval &e)
{
    w.beginObject(key)
        .str("key", e.id.key())
        .str("core", coreKindName(e.id.core))
        .str("config", e.id.unit.name())
        .num("list_slots", e.id.unit.listSlots)
        .num("ctxqueue", e.id.ctxQueueEntries)
        .boolean("ok", e.ok)
        .raw("lat_mean", formatObjective(e, Objective::kLatMean))
        .raw("jitter", formatObjective(e, Objective::kLatJitter))
        .fixed("lat_min", e.latMin, "%.0f")
        .fixed("lat_max", e.latMax, "%.0f")
        .fixed("lat_p99", e.latP99, "%.0f")
        .num("switches", e.switches)
        .raw("wcet", formatObjective(e, Objective::kWcet))
        .raw("area", formatObjective(e, Objective::kArea))
        .fixed("area_mm2", e.areaMm2, "%.5f")
        .raw("fmax", formatObjective(e, Objective::kFmax))
        .raw("power", formatObjective(e, Objective::kPower))
        .raw("detect", formatObjective(e, Objective::kDetect))
        .raw("sched_util", formatObjective(e, Objective::kSchedUtil))
        .endObject();
}

} // namespace

void
writeExploreJson(std::ostream &os, const ExploreSpec &spec,
                 const std::vector<DesignEval> &evals,
                 const std::vector<Objective> &objs,
                 const ExploreStats &stats, size_t best)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject()
        .num("schema", kExploreReportSchema)
        .str("bench", "explore")
        .beginObject("stats")
        .num("design_points", stats.designPoints)
        .num("prefiltered", stats.prefiltered)
        .num("sweep_points", stats.sweepPoints)
        .num("cache_hits", stats.cacheHits)
        .num("simulated", stats.simulated)
        .endObject()
        .beginArray("objectives");
    for (Objective o : objs)
        w.str(nullptr, objectiveName(o));
    w.endArray().beginArray("constraints");
    for (const Constraint &c : spec.constraints)
        w.str(nullptr, c.str());
    w.endArray().beginArray("evals");
    for (const DesignEval &e : evals)
        writeEvalJson(w, nullptr, e);
    w.endArray().beginArray("frontier");
    for (size_t i : paretoFrontier(evals, objs))
        w.num(nullptr, i);
    w.endArray();
    if (best == SIZE_MAX) {
        w.null("best");
    } else {
        rtu_assert(best < evals.size(), "selection index out of range");
        writeEvalJson(w, "best", evals[best]);
    }
    w.endObject();
    os << out << '\n';
}

void
writeFrontierMarkdown(std::ostream &os,
                      const std::vector<DesignEval> &evals,
                      const std::vector<Objective> &objs)
{
    os << "| core | config | slots |";
    for (Objective o : objs)
        os << ' ' << objectiveName(o) << " |";
    os << "\n|---|---|---|";
    for (size_t i = 0; i < objs.size(); ++i)
        os << "---|";
    os << "\n";
    for (size_t i : paretoFrontier(evals, objs)) {
        const DesignEval &e = evals[i];
        os << "| " << coreKindName(e.id.core) << " | "
           << e.id.unit.name() << " | " << e.id.unit.listSlots << " |";
        for (Objective o : objs)
            os << ' ' << formatObjective(e, o) << " |";
        os << "\n";
    }
}

} // namespace rtu
