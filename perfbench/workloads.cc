#include "workloads.hh"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "analyze/absint/loopbound.hh"
#include "analyze/absint/wcsu.hh"
#include "analyze/linter.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "inject/campaign.hh"
#include "inject/oracle.hh"
#include "kernel/kernel.hh"
#include "wcet/wcet.hh"
#include "workloads/workloads.hh"

using namespace rtu;

namespace perfbench {

PassResult
BenchWorkload::runPass(const std::vector<std::size_t> &order,
                       Ledger &ledger)
{
    PassResult pass;
    pass.order = order;
    pass.opMs.reserve(order.size());
    for (std::size_t i : order) {
        ledger.setOp(static_cast<int>(i));
        const Clock::time_point t0 = Clock::now();
        const std::string why = runOp(i, ledger, pass);
        pass.opMs.push_back(seconds(t0, Clock::now()) * 1e3);
        if (!why.empty()) {
            ++pass.failed;
            pass.failures.push_back(why);
        }
    }
    ledger.setOp(-1);
    finishPass(ledger, pass);
    return pass;
}

bool
countersClose(const RunResult &run)
{
    const RunThroughput &t = run.throughput;
    return run.cycles ==
           t.cyclesTicked + t.cyclesSkipped + t.cyclesBlockExecuted;
}

namespace {

/**
 * runWorkload() from src/harness, rebuilt from the calls it makes so
 * each gets a span: kernel.build (KernelBuilder::build), sim.ctor
 * (the Simulation constructor) and sim.run (Simulation::run). Honors
 * the RunOptions fields the benchmark sets (timer period, ctxQueue
 * depth, seed, trace sink, pre/post-run hooks); the engine knobs keep
 * their defaults, as in every benchmark run. Fills the RunResult
 * fields the sweep results stream and the benchmark's counters read.
 */
RunResult
runWorkloadTraced(Ledger &ledger, CoreKind core, const RtosUnitConfig &unit,
                  const Workload &workload, const RunOptions &opts)
{
    const WorkloadInfo winfo = workload.info();

    KernelParams kparams;
    kparams.unit = unit;
    kparams.timerPeriodCycles = opts.timerPeriodCycles;
    kparams.usesExternalIrq = winfo.usesExternalIrq;
    kparams.usesDelayUntil = winfo.usesDelayUntil;
    KernelBuilder kb(kparams);
    workload.addTasks(kb);
    Program program;
    {
        Ledger::Scope s(ledger, "kernel.build");
        program = kb.build();
    }

    SimConfig sconfig;
    sconfig.core = core;
    sconfig.unit = unit;
    sconfig.timerPeriodCycles = opts.timerPeriodCycles;
    sconfig.maxCycles = winfo.maxCycles;
    sconfig.naxCtxQueueEntries = opts.naxCtxQueueEntries;
    std::unique_ptr<Simulation> sim;
    {
        Ledger::Scope s(ledger, "sim.ctor");
        sim = std::make_unique<Simulation>(sconfig, program);
    }
    for (Cycle at : winfo.extIrqSchedule)
        sim->scheduleExtIrq(at);
    if (opts.preRun)
        opts.preRun(*sim);
    if (opts.sink) {
        TraceRunLabel label;
        label.core = coreKindName(core);
        label.config = unit.name();
        label.workload = winfo.name;
        label.seed = opts.seed;
        opts.sink->beginRun(label);
        sim->setTraceSink(opts.sink);
    }
    bool exited = false;
    {
        Ledger::Scope s(ledger, "sim.run");
        exited = sim->run();
    }
    if (opts.postRun)
        opts.postRun(*sim);
    if (opts.sink)
        opts.sink->endRun();

    RunResult res;
    res.core = core;
    res.unit = unit;
    res.workload = winfo.name;
    res.ok = exited && sim->exitCode() == 0;
    res.exitCode = sim->exitCode();
    res.cycles = sim->now();
    res.status = sim->status();
    const SimKernelStats &ks = sim->kernelStats();
    res.throughput.cyclesTicked = ks.cyclesTicked;
    res.throughput.cyclesSkipped = ks.cyclesSkipped;
    res.throughput.fastForwards = ks.fastForwards;
    res.throughput.strideSkips = ks.strideSkips;
    res.throughput.blockRuns = ks.blockRuns;
    res.throughput.cyclesBlockExecuted = ks.cyclesBlockExecuted;
    res.switchLatency = sim->recorder().latencyStats(true);
    res.coreStats = sim->coreStats();
    return res;
}

/** runSweepPoint() with trace capture, through runWorkloadTraced(). */
SweepResult
sweepPointTraced(Ledger &ledger, const SweepPoint &point)
{
    SweepResult out;
    out.point = point;
    const auto workload = makeWorkload(point.workload, point.iterations);
    RunOptions opts;
    opts.timerPeriodCycles = point.timerPeriodCycles;
    opts.naxCtxQueueEntries = point.naxCtxQueueEntries;
    opts.seed = point.seed;
    std::ostringstream trace;
    JsonlTraceSink sink(trace);
    opts.sink = &sink;
    out.run = runWorkloadTraced(ledger, point.core, point.unit, *workload,
                                opts);
    out.trace = trace.str();
    return out;
}


/** Simulator and core work counts of one run. */
void
countRun(const RunResult &run, std::map<std::string, double> &c)
{
    const RunThroughput &t = run.throughput;
    const CoreStats &s = run.coreStats;
    c["sim.runs"] += 1;
    c["sim.cycles"] += static_cast<double>(run.cycles);
    c["sim.cycles_ticked"] += static_cast<double>(t.cyclesTicked);
    c["sim.cycles_skipped"] += static_cast<double>(t.cyclesSkipped);
    c["sim.cycles_block_executed"] +=
        static_cast<double>(t.cyclesBlockExecuted);
    c["sim.fast_forwards"] += static_cast<double>(t.fastForwards);
    c["sim.block_runs"] += static_cast<double>(t.blockRuns);
    c["sim.stride_skips"] += static_cast<double>(t.strideSkips);
    c["core.instret"] += static_cast<double>(s.instret);
    c["core.fetch_slow_path"] += static_cast<double>(s.fetchSlowPath);
    c["core.text_invalidations"] +=
        static_cast<double>(s.textInvalidations);
    c["core.block_invalidations"] +=
        static_cast<double>(s.blockInvalidations);
    c["core.blocks_executed"] += static_cast<double>(s.blocksExecuted);
    c["core.block_fallbacks"] += static_cast<double>(s.blockFallbacks);
}

std::string
pointFailure(const SweepPoint &p, const char *what)
{
    return csprintf("%s: %s", p.key().c_str(), what);
}

// ---- fig9_sweep --------------------------------------------------------

/** The Fig 9 grid: 3 cores x 10 latency configs x 7 workloads x 20
 *  iterations, trace capture on, results and trace serialized into
 *  memory at the end of every pass. */
class Fig9Sweep : public BenchWorkload
{
  public:
    Fig9Sweep()
    {
        SweepSpec spec;
        spec.cores = {CoreKind::kCv32e40p, CoreKind::kCva6, CoreKind::kNax};
        spec.units = RtosUnitConfig::latencyConfigs();
        spec.workloads = standardWorkloadNames();
        spec.iterations = 20;
        points_ = spec.points();
        results_.resize(points_.size());
    }

    std::size_t ops() const override { return points_.size(); }

  protected:
    std::string
    runOp(std::size_t i, Ledger &ledger, PassResult &pass) override
    {
        SweepResult &r = results_[i];
        {
            Ledger::Scope op(ledger, "sweep.point");
            r = ledger.enabled() ? sweepPointTraced(ledger, points_[i])
                                 : runSweepPoint(points_[i], true);
        }
        countRun(r.run, pass.counts);
        pass.counts["kernel.images"] += 1;
        if (!r.run.ok || r.run.exitCode != 0)
            return pointFailure(r.point, "run not ok");
        if (!countersClose(r.run))
            return pointFailure(r.point, "cycles != ticked + skipped + "
                                         "block-executed");
        return "";
    }

    void
    finishPass(Ledger &ledger, PassResult &pass) override
    {
        std::ostringstream os;
        {
            Ledger::Scope s(ledger, "report.write");
            writeResultsJsonl(os, results_);
            writeTraceJsonl(os, results_);
        }
        pass.output = os.str();
        for (const SweepResult &r : results_) {
            pass.counts["trace.episodes"] += static_cast<double>(
                std::count(r.trace.begin(), r.trace.end(), '\n'));
        }
        pass.counts["trace.bytes"] = static_cast<double>(pass.output.size());
        results_.assign(points_.size(), SweepResult{});
    }

  private:
    std::vector<SweepPoint> points_;
    std::vector<SweepResult> results_;
};

// ---- lint_absint -------------------------------------------------------

/** The nine configurations of bench_wcet_table. */
const char *const kWcetConfigs[] = {"vanilla", "CV32RT", "S",
                                    "SL",      "T",      "ST",
                                    "SLT",     "SDLOT",  "SPLIT"};

/** The CI lint gate (rtu_lint --absint over the generated matrix),
 *  then the WCET table with absint facts. */
class LintAbsint : public BenchWorkload
{
  public:
    LintAbsint()
    {
        for (const RtosUnitConfig &unit : lintUnits()) {
            for (const std::string &w : standardWorkloadNames())
                programs_.push_back({unit, makeWorkload(w, 20)});
        }
        slots_.resize(ops());
    }

    std::size_t
    ops() const override
    {
        return programs_.size() + std::size(kWcetConfigs);
    }

  protected:
    std::string
    runOp(std::size_t i, Ledger &ledger, PassResult &pass) override
    {
        if (i < programs_.size())
            return lintOp(i, ledger, pass);
        return wcetOp(i, ledger, pass);
    }

    void
    finishPass(Ledger &ledger, PassResult &pass) override
    {
        (void)ledger;
        for (const std::string &s : slots_)
            pass.output += s;
    }

  private:
    struct LintInput
    {
        RtosUnitConfig unit;
        std::unique_ptr<Workload> workload;
    };

    std::string
    lintOp(std::size_t i, Ledger &ledger, PassResult &pass)
    {
        const LintInput &in = programs_[i];
        Ledger::Scope op(ledger, "lint.program");
        const Program program =
            buildLintProgram(ledger, in.unit, *in.workload);
        LintOptions options;
        options.absint = true;
        LintResult result;
        if (ledger.enabled()) {
            result.diags = lintTraced(ledger, program, in.unit, options,
                                      pass);
        } else {
            result = lintProgram(program, in.unit, options);
        }
        pass.counts["kernel.images"] += 1;
        pass.counts["absint.programs"] += 1;
        pass.counts["analyze.diagnostics"] +=
            static_cast<double>(result.diags.size());

        const std::string context = csprintf(
            "\"config\":\"%s\",\"workload\":\"%s\"",
            jsonEscape(in.unit.name()).c_str(),
            jsonEscape(in.workload->info().name).c_str());
        std::string &slot = slots_[i];
        slot.clear();
        for (const Diagnostic &d : result.diags)
            slot += diagToJson(d, context) + "\n";
        for (const Diagnostic &d : result.diags) {
            if (d.severity == Severity::kError)
                return in.unit.name() + " x " + in.workload->info().name +
                       ": " + diagToString(d);
        }
        return "";
    }

    /** lintProgram() with checkAbsint() unrolled, one span per call. */
    static std::vector<Diagnostic>
    lintTraced(Ledger &ledger, const Program &program,
               const RtosUnitConfig &unit, const LintOptions &options,
               PassResult &pass)
    {
        std::vector<Diagnostic> diags;
        std::unique_ptr<Cfg> cfg;
        {
            Ledger::Scope s(ledger, "analyze.cfg");
            cfg = std::make_unique<Cfg>(program);
        }
        {
            Ledger::Scope s(ledger, "analyze.ctx");
            checkContextIntegrity(*cfg, unit, options, diags);
        }
        {
            Ledger::Scope s(ledger, "analyze.abi");
            checkCalleeSaved(*cfg, options, diags);
        }
        {
            Ledger::Scope s(ledger, "analyze.stack");
            checkStackDiscipline(*cfg, options, diags);
        }
        {
            Ledger::Scope s(ledger, "analyze.soundness");
            checkCfgSoundness(*cfg, options, diags);
        }
        std::unique_ptr<AbsintEngine> engine;
        {
            Ledger::Scope s(ledger, "absint.engine");
            engine = std::make_unique<AbsintEngine>(program);
            engine->run();
        }
        pass.counts["absint.converged"] += engine->converged() ? 1 : 0;
        {
            Ledger::Scope s(ledger, "absint.loopbound");
            LoopBoundOptions lbo;
            lbo.pedantic = options.absintPedanticBounds;
            const LoopBoundResult bounds = inferLoopBounds(*engine, lbo);
            diags.insert(diags.end(), bounds.diags.begin(),
                         bounds.diags.end());
        }
        {
            Ledger::Scope s(ledger, "absint.wcsu");
            WcsuAnalyzer wcsu(engine->cfg());
            wcsu.run();
            diags.insert(diags.end(), wcsu.diags().begin(),
                         wcsu.diags().end());
            wcsu.checkOverflow(diags);
        }
        return diags;
    }

    /** bench_wcet_table's row: annotation-only and absint-fact WCET of
     *  a maximally loaded kernel. */
    std::string
    wcetOp(std::size_t i, Ledger &ledger, PassResult &pass)
    {
        const char *name = kWcetConfigs[i - programs_.size()];
        const RtosUnitConfig unit = RtosUnitConfig::fromName(name);
        Ledger::Scope op(ledger, "wcet.config");
        KernelParams kp;
        kp.unit = unit;
        kp.usesExternalIrq = true;
        KernelBuilder kb(kp);
        makeDelayWake(1)->addTasks(kb);
        Program program;
        {
            Ledger::Scope s(ledger, "kernel.build");
            program = kb.build();
        }
        pass.counts["kernel.images"] += 1;
        pass.counts["wcet.configs"] += 1;

        WcetAnalyzer annotated(program, unit);
        WcetResult ann;
        {
            Ledger::Scope s(ledger, "wcet.analyze");
            ann = annotated.analyzeIsr();
        }
        AbsintFacts facts;
        {
            Ledger::Scope s(ledger, "wcet.facts");
            facts = deriveAbsintFacts(program);
        }
        WcetAnalyzer inferred(program, unit);
        inferred.setFacts(std::move(facts));
        WcetResult inf;
        {
            Ledger::Scope s(ledger, "wcet.analyze");
            inf = inferred.analyzeIsr();
        }

        slots_[i] = csprintf(
            "{\"config\":\"%s\",\"wcet\":%llu,\"sw\":%llu,\"hw\":%llu,"
            "\"insns\":%llu,\"mem_ops\":%llu,\"wcet_inferred\":%llu}\n",
            name, static_cast<unsigned long long>(ann.totalCycles),
            static_cast<unsigned long long>(ann.softwareCycles),
            static_cast<unsigned long long>(ann.hardwareCycles),
            static_cast<unsigned long long>(ann.pathInsns),
            static_cast<unsigned long long>(ann.pathMemOps),
            static_cast<unsigned long long>(inf.totalCycles));
        if (!annotated.diagnostics().empty() ||
            !inferred.diagnostics().empty())
            return csprintf("%s: WCET diagnostics", name);
        if (inf.totalCycles > ann.totalCycles)
            return csprintf("%s: facts WCET %llu > annotated %llu", name,
                            static_cast<unsigned long long>(
                                inf.totalCycles),
                            static_cast<unsigned long long>(
                                ann.totalCycles));
        return "";
    }

    std::vector<LintInput> programs_;
    std::vector<std::string> slots_;
};

// ---- inject_campaign ---------------------------------------------------

/** Vanilla and CV32RT x 3 cores x 3 workloads x 5 iterations, 8 faults
 *  per point; one op is one point run as a one-point campaign. */
class InjectCampaign : public BenchWorkload
{
  public:
    explicit InjectCampaign(std::uint64_t campaign_seed)
        : seed_(campaign_seed)
    {
        points_ = injectGrid().points();
        slots_.resize(points_.size());
    }

    std::size_t ops() const override { return points_.size(); }

  protected:
    std::string
    runOp(std::size_t i, Ledger &ledger, PassResult &pass) override
    {
        const SweepPoint &pt = points_[i];
        Ledger::Scope op(ledger, "inject.point");
        RunResult golden;
        unsigned goldenHits = 0;
        unsigned goldenEpisodes = 0;
        if (ledger.enabled()) {
            Ledger::Scope s(ledger, "inject.golden");
            golden = goldenTraced(ledger, pt, goldenHits, goldenEpisodes);
            countRun(golden, pass.counts);
            pass.counts["kernel.images"] += 1;
        }

        CampaignSpec spec;
        spec.points = {pt};
        spec.faultsPerPoint = kFaultsPerPoint;
        spec.seed = seed_;
        CampaignResult res;
        {
            Ledger::Scope s(ledger, "inject.campaign");
            res = runCampaign(spec, SweepRunner(1));
        }
        {
            Ledger::Scope s(ledger, "report.write");
            std::ostringstream os;
            writeCampaignJsonl(os, spec, res);
            slots_[i] = os.str();
        }
        countCampaign(res, pass.counts);

        const GoldenRecord &g = res.goldens.front();
        if (!g.run.ok)
            return pointFailure(pt, "golden run not ok");
        if (res.cleanOracleHits() != 0)
            return pointFailure(pt, "oracle fired on the clean run");
        if (ledger.enabled() &&
            (golden.cycles != g.run.cycles ||
             golden.exitCode != g.run.exitCode ||
             goldenHits != g.oracleHits || goldenEpisodes != g.episodes))
            return pointFailure(pt, "traced golden differs from the "
                                    "campaign's golden");
        return "";
    }

    void
    finishPass(Ledger &ledger, PassResult &pass) override
    {
        (void)ledger;
        for (const std::string &s : slots_)
            pass.output += s;
    }

  private:
    static constexpr unsigned kFaultsPerPoint = 8;

    /** The campaign's golden run: the point's workload with a
     *  KernelOracle attached, as runCampaign runs it. */
    static RunResult
    goldenTraced(Ledger &ledger, const SweepPoint &pt, unsigned &hits,
                 unsigned &episodes)
    {
        const auto workload = makeWorkload(pt.workload, pt.iterations);
        RunOptions opts;
        opts.timerPeriodCycles = pt.timerPeriodCycles;
        opts.naxCtxQueueEntries = pt.naxCtxQueueEntries;
        opts.seed = pt.seed;
        std::unique_ptr<KernelOracle> oracle;
        opts.preRun = [&](Simulation &sim) {
            oracle = std::make_unique<KernelOracle>(sim, pt.unit);
            oracle->plantCanaries();
            sim.setRunObserver(oracle.get());
        };
        opts.postRun = [&](Simulation &) { oracle->finalCheck(); };
        RunResult run =
            runWorkloadTraced(ledger, pt.core, pt.unit, *workload, opts);
        hits = oracle->hitCount();
        episodes = oracle->episodes();
        return run;
    }

    static void
    countCampaign(const CampaignResult &res, std::map<std::string, double> &c)
    {
        static const char *const kOutcomeKeys[kNumFaultOutcomes] = {
            "inject.outcome.masked", "inject.outcome.detected_oracle",
            "inject.outcome.detected_watchdog", "inject.outcome.silent",
            "inject.outcome.hang"};
        for (const GoldenRecord &g : res.goldens)
            c["inject.sim_cycles"] += static_cast<double>(g.run.cycles);
        for (const FaultRunRecord &f : res.faults) {
            const auto cycles = static_cast<double>(f.cycles);
            c["inject.injected_runs"] += 1;
            c[kOutcomeKeys[static_cast<unsigned>(f.outcome)]] += 1;
            c["inject.sim_cycles"] += cycles;
            c["inject.injected_cycles"] += cycles;
            if (f.status == RunStatus::kCycleLimit)
                c["inject.cycle_limit_cycles"] += cycles;
            if (f.oracleHits > 0)
                c["inject.post_detect_cycles"] +=
                    static_cast<double>(f.cycles - f.oracleCycle);
        }
    }

    std::uint64_t seed_;
    std::vector<SweepPoint> points_;
    std::vector<std::string> slots_;
};

} // namespace

Program
buildLintProgram(Ledger &ledger, const RtosUnitConfig &unit,
                 const Workload &workload)
{
    KernelParams kp;
    kp.unit = unit;
    kp.usesExternalIrq = workload.info().usesExternalIrq;
    KernelBuilder kb(kp);
    workload.addTasks(kb);
    Ledger::Scope s(ledger, "kernel.build");
    return kb.build();
}

std::vector<RtosUnitConfig>
lintUnits()
{
    std::vector<RtosUnitConfig> units = RtosUnitConfig::paperConfigs();
    for (const char *name : {"ST", "SDLOT", "SPLIT"}) {
        RtosUnitConfig u = RtosUnitConfig::fromName(name);
        u.hwsync = true;
        units.push_back(u);
    }
    return units;
}

SweepSpec
injectGrid()
{
    SweepSpec spec;
    spec.cores = {CoreKind::kCv32e40p, CoreKind::kCva6, CoreKind::kNax};
    spec.units = {RtosUnitConfig::fromName("vanilla"),
                  RtosUnitConfig::fromName("CV32RT")};
    spec.workloads = {"yield_pingpong", "round_robin", "ext_interrupt"};
    spec.iterations = 5;
    return spec;
}

std::unique_ptr<BenchWorkload>
makeBenchWorkload(const std::string &name, std::uint64_t campaign_seed)
{
    if (name == "fig9_sweep")
        return std::make_unique<Fig9Sweep>();
    if (name == "lint_absint")
        return std::make_unique<LintAbsint>();
    if (name == "inject_campaign")
        return std::make_unique<InjectCampaign>(campaign_seed);
    return nullptr;
}

} // namespace perfbench
