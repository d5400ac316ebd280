#include "experiment.hh"

#include <chrono>
#include <utility>

#include "common/logging.hh"
#include "kernel/kernel.hh"

namespace rtu {

Program
buildWorkloadImage(const RtosUnitConfig &unit, const Workload &workload,
                   Word timer_period_cycles)
{
    const WorkloadInfo winfo = workload.info();
    KernelParams kparams;
    kparams.unit = unit;
    kparams.timerPeriodCycles = timer_period_cycles;
    kparams.usesExternalIrq = winfo.usesExternalIrq;
    kparams.usesDelayUntil = winfo.usesDelayUntil;

    KernelBuilder kb(kparams);
    workload.addTasks(kb);
    return kb.build();
}

RunResult
runWorkload(CoreKind core, const RtosUnitConfig &unit,
            const Workload &workload, const RunOptions &opts)
{
    const WorkloadInfo winfo = workload.info();

    Program program =
        opts.program ? *opts.program
                     : buildWorkloadImage(unit, workload,
                                          opts.timerPeriodCycles);

    SimConfig sconfig;
    sconfig.core = core;
    sconfig.unit = unit;
    sconfig.timerPeriodCycles = opts.timerPeriodCycles;
    sconfig.maxCycles = winfo.maxCycles;
    sconfig.naxCtxQueueEntries = opts.naxCtxQueueEntries;
    sconfig.engine = opts.engine;
    sconfig.watchdogCycles = opts.watchdogCycles;

    Simulation sim(sconfig, std::move(program));
    const std::vector<Cycle> &extSchedule =
        opts.extIrqOverride ? *opts.extIrqOverride : winfo.extIrqSchedule;
    for (Cycle at : extSchedule)
        sim.scheduleExtIrq(at);

    if (opts.preRun)
        opts.preRun(sim);

    if (opts.sink) {
        TraceRunLabel label;
        label.core = coreKindName(core);
        label.config = unit.name();
        label.workload = winfo.name;
        label.seed = opts.seed;
        opts.sink->beginRun(label);
        sim.setTraceSink(opts.sink);
    }

    const auto wallStart = std::chrono::steady_clock::now();
    const bool exited = sim.run();
    const auto wallEnd = std::chrono::steady_clock::now();
    if (opts.postRun)
        opts.postRun(sim);
    if (opts.sink)
        opts.sink->endRun();

    RunResult res;
    res.core = core;
    res.unit = unit;
    res.workload = winfo.name;
    res.ok = exited && sim.exitCode() == 0;
    res.exitCode = sim.exitCode();
    res.cycles = sim.now();
    res.status = sim.status();
    res.diagnostic = sim.statusDiagnostic();
    const SimKernelStats &ks = sim.kernelStats();
    res.throughput.cyclesTicked = ks.cyclesTicked;
    res.throughput.cyclesSkipped = ks.cyclesSkipped;
    res.throughput.fastForwards = ks.fastForwards;
    res.throughput.blockRuns = ks.blockRuns;
    res.throughput.cyclesBlockExecuted = ks.cyclesBlockExecuted;
    res.throughput.wallSeconds =
        std::chrono::duration<double>(wallEnd - wallStart).count();
    res.switchLatency = sim.recorder().latencyStats(true);
    res.episodeLatency = sim.recorder().latencyStats(false);
    res.coreStats = sim.coreStats();

    res.activity.cycles = sim.now();
    res.activity.instret = res.coreStats.instret;
    res.activity.memOps = res.coreStats.memOps;
    res.activity.traps = res.coreStats.traps;
    if (RtosUnit *u = sim.unit()) {
        const RtosUnitStats &us = u->stats();
        res.activity.unitMemWords = us.storeWords + us.restoreWords +
                                    kCtxWords * us.preloadFetches;
        res.activity.sortPhases = u->readyList().stats().sortPhases +
                                  u->delayList().stats().sortPhases;
        res.activity.unitBusyCycles = us.busyCycles;
    } else if (Cv32rtUnit *c = sim.cv32rtUnit()) {
        res.activity.unitMemWords = c->stats().drainedWords;
        res.activity.unitBusyCycles = c->stats().drainedWords;
    }

    if (!res.ok) {
        warn("workload '%s' on %s/%s failed (status=%s code=0x%x after "
             "%llu cycles)%s%s",
             winfo.name.c_str(), coreKindName(core), unit.name().c_str(),
             runStatusName(res.status), res.exitCode,
             static_cast<unsigned long long>(res.cycles),
             res.diagnostic.empty() ? "" : ": ",
             res.diagnostic.c_str());
    }
    return res;
}

RunResult
runWorkload(CoreKind core, const RtosUnitConfig &unit,
            const Workload &workload, Word timer_period_cycles)
{
    RunOptions opts;
    opts.timerPeriodCycles = timer_period_cycles;
    return runWorkload(core, unit, workload, opts);
}

} // namespace rtu
