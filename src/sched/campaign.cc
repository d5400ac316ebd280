#include "campaign.hh"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "analyze/absint/loopbound.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "kernel/kernel.hh"
#include "sweep/sweep.hh"
#include "trace/trace.hh"
#include "wcet/wcet.hh"

namespace rtu {

namespace {

/** In-memory sink for the overhead-measurement probe runs. */
class VectorTraceSink : public TraceSink
{
  public:
    void beginRun(const TraceRunLabel &) override {}
    void episode(const EpisodeTrace &e) override { episodes_.push_back(e); }

    const std::vector<EpisodeTrace> &episodes() const { return episodes_; }

  private:
    std::vector<EpisodeTrace> episodes_;
};

/** Taskset parameters for the overhead probe: moderate load, same
 *  shape knobs as the campaign so the same kernel paths run. */
TasksetParams
probeParams(const SchedCampaignSpec &spec)
{
    TasksetParams p = spec.taskset;
    p.totalUtil = std::min(0.5, static_cast<double>(p.tasks));
    return p;
}

void
accumulate(const std::vector<EpisodeTrace> &episodes,
           OverheadMeasurement *m)
{
    for (const EpisodeTrace &e : episodes) {
        if (e.preempted)
            continue;  // truncated episode: no complete latency
        const double lat = static_cast<double>(e.latency());
        const double entry = static_cast<double>(e.trapTaken) -
                             static_cast<double>(e.irqAssert);
        m->measEntryMax = std::max(m->measEntryMax, entry);
        if (e.fromTask != e.toTask)
            m->measSwitchMax = std::max(m->measSwitchMax, lat);
        else
            m->measTickMax = std::max(m->measTickMax, lat);
    }
}

double
maxNorm(const RtaResult &rta, const std::vector<RtaTask> &tasks)
{
    double norm = 0.0;
    for (size_t i = 0; i < tasks.size(); ++i) {
        if (tasks[i].deadlineCycles > 0.0)
            norm = std::max(norm, rta.tasks[i].responseCycles /
                                      tasks[i].deadlineCycles);
    }
    return norm;
}

std::vector<RtaTask>
effectiveRtaTasks(const Taskset &ts, const LowerParams &lower,
                  const BusyCalibration &cal)
{
    // The solver bounds the *calibrated* job cost — the same iteration
    // counts the lowered workload will run — never the nominal value.
    std::vector<RtaTask> tasks;
    const double clk = static_cast<double>(lower.timerPeriodCycles);
    for (const SchedTask &t : ts.tasks) {
        RtaTask rt;
        rt.periodCycles = t.periodTicks * clk;
        rt.deadlineCycles = t.deadlineTicks * clk;
        const unsigned iters = busyItersFor(cal, t.util * rt.periodCycles);
        rt.execCycles = effectiveExecCycles(cal, iters);
        tasks.push_back(rt);
    }
    return tasks;
}

} // namespace

OverheadMeasurement
measureOverheads(CoreKind core, const RtosUnitConfig &unit,
                 const SchedCampaignSpec &spec)
{
    OverheadMeasurement m;
    const Word clk = spec.lower.timerPeriodCycles;
    m.busy = calibrateBusy(core, unit, clk);

    // Probe runs with phase tracing: a lowered taskset (the exact
    // kernel flavour the campaign will run, k_delay_until included)
    // plus two standard workloads for path diversity.
    const Taskset probe =
        makeTaskset(tasksetSeed(spec.seed, 0xFFFF, 0), probeParams(spec));
    const auto probeWorkload =
        lowerTaskset(probe, spec.lower, m.busy, "sched_probe");

    VectorTraceSink sink;
    RunOptions opts;
    opts.timerPeriodCycles = clk;
    opts.sink = &sink;
    runWorkload(core, unit, *probeWorkload, opts);
    runWorkload(core, unit, *makeDelayWake(8), opts);
    runWorkload(core, unit, *makePriorityPreempt(8), opts);
    accumulate(sink.episodes(), &m);
    rtu_assert(m.measSwitchMax > 0.0,
               "overhead probe on %s/%s observed no switch episodes",
               coreKindName(core), unit.name().c_str());

    if (core == CoreKind::kCv32e40p) {
        // Static bound on the ISR of the kernel flavour actually run
        // (usesDelayUntil changes the timer path on hw-sched configs).
        KernelParams kp;
        kp.unit = unit;
        kp.timerPeriodCycles = clk;
        kp.usesDelayUntil = true;
        KernelBuilder kb(kp);
        probeWorkload->addTasks(kb);
        const Program program = kb.build();
        WcetAnalyzer analyzer(program, unit);
        // Tighten the walk with abstract-interpretation facts:
        // inferred loop bounds (never looser than the annotations)
        // and statically infeasible branch edges. The tighter ISR
        // WCET directly lowers the RTA switch-cost floor below.
        analyzer.setFacts(deriveAbsintFacts(program));
        m.hasWcet = true;
        m.wcetCycles =
            static_cast<double>(analyzer.analyzeIsr().totalCycles);
    }

    m.rta.tickPeriodCycles = static_cast<double>(clk);
    m.rta.switchCost = spec.margin * m.measSwitchMax;
    if (m.hasWcet)
        m.rta.switchCost =
            std::max(m.rta.switchCost,
                     m.wcetCycles + spec.margin * m.measEntryMax);
    m.rta.tickCost =
        spec.margin *
        (m.measTickMax > 0.0 ? m.measTickMax : m.measSwitchMax);
    return m;
}

SchedCampaignResult
runSchedCampaign(const SchedCampaignSpec &spec)
{
    rtu_assert(!spec.cores.empty() && !spec.configs.empty() &&
                   !spec.utilGrid.empty() && spec.tasksetsPerUtil > 0,
               "sched campaign with an empty axis");

    SchedCampaignResult result;

    // Overheads and calibrations: serial, up front, in grid order —
    // shared read-only by the fan-out below.
    std::vector<OverheadMeasurement> overheads;
    for (CoreKind core : spec.cores)
        for (const RtosUnitConfig &unit : spec.configs)
            overheads.push_back(measureOverheads(core, unit, spec));

    const size_t nUtil = spec.utilGrid.size();
    const size_t nSet = spec.tasksetsPerUtil;
    const size_t perPair = nUtil * nSet;
    const size_t nPoints =
        spec.cores.size() * spec.configs.size() * perPair;
    result.points.resize(nPoints);

    SweepRunner runner(spec.threads);
    runner.forEachIndex(nPoints, [&](std::size_t idx) {
        const size_t pair = idx / perPair;
        const size_t ci = pair / spec.configs.size();
        const size_t ki = pair % spec.configs.size();
        const size_t ui = (idx % perPair) / nSet;
        const size_t ti = idx % nSet;

        const CoreKind core = spec.cores[ci];
        const RtosUnitConfig &unit = spec.configs[ki];
        const OverheadMeasurement &m = overheads[pair];

        SchedPointResult &r = result.points[idx];
        r.core = core;
        r.config = unit.name();
        r.utilIndex = static_cast<unsigned>(ui);
        r.tasksetIndex = static_cast<unsigned>(ti);
        r.util = spec.utilGrid[ui];
        r.tasksetSeed = tasksetSeed(spec.seed, static_cast<unsigned>(ui),
                                    static_cast<unsigned>(ti));

        TasksetParams tparams = spec.taskset;
        tparams.totalUtil = r.util;
        const Taskset ts = makeTaskset(r.tasksetSeed, tparams);

        const std::vector<RtaTask> rtaTasks =
            effectiveRtaTasks(ts, spec.lower, m.busy);
        const RtaResult rta = responseTimeAnalysis(rtaTasks, m.rta);
        r.rtaSchedulable = rta.schedulable;
        r.rtaMaxNorm = maxNorm(rta, rtaTasks);

        if (!spec.simulate) {
            r.status = "rta-only";
            return;
        }
        r.simRan = true;
        const auto workload = lowerTaskset(
            ts, spec.lower, m.busy,
            csprintf("sched_u%zu_s%zu", ui, ti));
        RunOptions opts;
        opts.timerPeriodCycles = spec.lower.timerPeriodCycles;
        std::vector<GuestEvent> events;
        opts.postRun = [&events](Simulation &sim) {
            events = sim.hostIo().events();
        };
        const RunResult rr = runWorkload(core, unit, *workload, opts);
        r.simOk = rr.ok;
        r.status = rr.ok ? runStatusName(rr.status)
                         : (rr.diagnostic.empty()
                                ? runStatusName(rr.status)
                                : rr.diagnostic);
        const DeadlineReport report = checkDeadlines(
            events, ts, spec.lower, horizonTicksFor(ts, spec.lower));
        r.jobsExpected = report.jobsExpected;
        r.jobsDone = report.jobsDone;
        r.misses = report.misses;
        r.simMaxNorm = report.maxNormResponse;
        r.sound = !(r.rtaSchedulable && (!r.simOk || r.misses > 0));
    });

    // Rollups, grid order.
    size_t pair = 0;
    for (CoreKind core : spec.cores) {
        for (const RtosUnitConfig &unit : spec.configs) {
            SchedConfigSummary s;
            s.core = core;
            s.config = unit.name();
            s.overheads = overheads[pair];
            double pessimism = 0.0;
            unsigned pessimismPoints = 0;
            for (size_t i = pair * perPair; i < (pair + 1) * perPair;
                 ++i) {
                const SchedPointResult &r = result.points[i];
                ++s.points;
                if (r.rtaSchedulable)
                    ++s.rtaSchedulable;
                if (r.simRan && r.simOk && r.misses == 0)
                    ++s.simSchedulable;
                if (!r.sound)
                    ++s.violations;
                if (r.rtaSchedulable && r.simRan && r.simOk &&
                    r.misses == 0 && r.simMaxNorm > 0.0) {
                    pessimism += r.rtaMaxNorm / r.simMaxNorm;
                    ++pessimismPoints;
                }
            }
            if (pessimismPoints)
                s.meanPessimism = pessimism / pessimismPoints;
            result.soundnessViolations += s.violations;
            result.summaries.push_back(s);
            ++pair;
        }
    }
    return result;
}

void
writeSchedJsonl(std::ostream &os, const SchedCampaignSpec &spec,
                const SchedCampaignResult &result)
{
    std::string line;
    JsonWriter w(line);
    w.beginObject()
        .num("schema", kSchedSchemaVersion)
        .str("bench", "sched")
        .num("seed", spec.seed)
        .beginArray("cores");
    for (CoreKind c : spec.cores)
        w.str(nullptr, coreKindName(c));
    w.endArray().beginArray("configs");
    for (const RtosUnitConfig &c : spec.configs)
        w.str(nullptr, c.name());
    w.endArray().beginArray("util_grid");
    for (double u : spec.utilGrid)
        w.fixed(nullptr, u, "%.4f");
    w.endArray()
        .num("tasksets_per_util", spec.tasksetsPerUtil)
        .num("tasks", spec.taskset.tasks)
        .num("period_min_ticks", spec.taskset.periodMinTicks)
        .num("period_max_ticks", spec.taskset.periodMaxTicks)
        .num("phase_ticks", spec.lower.phaseTicks)
        .num("horizon_ticks", spec.lower.horizonTicks)
        .num("timer_period", spec.lower.timerPeriodCycles)
        .fixed("margin", spec.margin, "%.4f")
        .boolean("simulate", spec.simulate)
        .beginArray("overheads");
    for (const SchedConfigSummary &s : result.summaries) {
        const OverheadMeasurement &m = s.overheads;
        w.beginObject()
            .str("core", coreKindName(s.core))
            .str("config", s.config)
            .fixed("switch_cost", m.rta.switchCost, "%.3f")
            .fixed("tick_cost", m.rta.tickCost, "%.3f")
            .fixed("meas_switch_max", m.measSwitchMax, "%.1f")
            .fixed("meas_tick_max", m.measTickMax, "%.1f")
            .fixed("meas_entry_max", m.measEntryMax, "%.1f")
            .boolean("has_wcet", m.hasWcet)
            .fixed("wcet", m.wcetCycles, "%.1f")
            .fixed("cycles_per_iter", m.busy.cyclesPerIter, "%.4f")
            .fixed("per_job_overhead", m.busy.perJobOverheadCycles,
                   "%.3f")
            .endObject();
    }
    w.endArray().endObject();
    os << line << '\n';

    for (const SchedPointResult &r : result.points) {
        line.clear();
        w.beginObject()
            .str("core", coreKindName(r.core))
            .str("config", r.config)
            .num("util_index", r.utilIndex)
            .num("taskset_index", r.tasksetIndex)
            .fixed("util", r.util, "%.4f")
            .num("taskset_seed", r.tasksetSeed)
            .boolean("rta_schedulable", r.rtaSchedulable)
            .fixed("rta_max_norm", r.rtaMaxNorm, "%.4f")
            .boolean("sim_ran", r.simRan)
            .boolean("sim_ok", r.simOk)
            .num("jobs_expected", r.jobsExpected)
            .num("jobs_done", r.jobsDone)
            .num("misses", r.misses)
            .fixed("sim_max_norm", r.simMaxNorm, "%.4f")
            .boolean("sound", r.sound)
            .str("status", r.status).endObject();
        os << line << '\n';
    }
}

} // namespace rtu
