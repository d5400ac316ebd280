/**
 * @file
 * Experiment driver: run (core × configuration × workload) matrices,
 * collect context-switch latency distributions and activity counters
 * (consumed by the latency benches and the power model).
 */

#ifndef RTU_HARNESS_EXPERIMENT_HH
#define RTU_HARNESS_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "rtosunit/config.hh"
#include "simulation.hh"
#include "workloads/workloads.hh"

namespace rtu {

/** Switching-activity counters feeding the dynamic-power model. */
struct ActivityCounters
{
    std::uint64_t cycles = 0;
    std::uint64_t instret = 0;
    std::uint64_t memOps = 0;
    std::uint64_t unitMemWords = 0;  ///< FSM reads + writes
    std::uint64_t sortPhases = 0;
    std::uint64_t unitBusyCycles = 0;
    std::uint64_t traps = 0;
};

/** Simulator throughput for one run (wall time is nondeterministic;
 *  everything else is exact). */
struct RunThroughput
{
    std::uint64_t cyclesTicked = 0;
    std::uint64_t cyclesSkipped = 0;
    std::uint64_t fastForwards = 0;
    std::uint64_t strideSkips = 0;  ///< always 0; perfbench still reads it
    std::uint64_t blockRuns = 0;
    std::uint64_t cyclesBlockExecuted = 0;
    double wallSeconds = 0.0;
};

struct RunResult
{
    CoreKind core;
    RtosUnitConfig unit;
    std::string workload;
    bool ok = false;
    Word exitCode = 0;
    Cycle cycles = 0;
    RunStatus status = RunStatus::kExited;
    std::string diagnostic;  ///< non-empty on a watchdog abort
    SampleStats switchLatency;   ///< task-switching episodes only
    SampleStats episodeLatency;  ///< every ISR episode
    CoreStats coreStats;
    ActivityCounters activity;
    RunThroughput throughput;
};

/** Knobs of a single run beyond (core, configuration, workload). */
struct RunOptions
{
    Word timerPeriodCycles = 1000;
    /** NaxRiscv LSU ctxQueue depth (paper Fig 8; ablation knob). */
    unsigned naxCtxQueueEntries = 8;
    /** Optional per-episode trace destination (phase timestamps). The
     *  run is bracketed with beginRun()/endRun() on the sink. */
    TraceSink *sink = nullptr;
    /** Deterministic seed recorded in trace labels (reserved for
     *  future stochastic workloads; the simulator itself is exact). */
    std::uint64_t seed = 0;
    /** Event-driven fast-forward; false = per-cycle reference mode. */
    bool fastForward = true;
    /** Decode-once text image (bit-exact perf knob; see SimConfig). */
    bool predecode = true;
    /** Superblock execution (bit-exact perf knob; see SimConfig). */
    bool blockExec = true;
    /** No-retire watchdog threshold; 0 disables. */
    std::uint64_t watchdogCycles = 2'000'000;
    /**
     * Replace the workload's external-interrupt schedule (the
     * fault-injection campaign's dropped/spurious/coalesced IRQ
     * models). nullptr keeps the workload's own schedule.
     */
    const std::vector<Cycle> *extIrqOverride = nullptr;
    /** Called on the constructed Simulation before run() — attach
     *  oracles, plant canaries, register injector components. */
    std::function<void(Simulation &)> preRun;
    /** Called after run(), before the result is assembled — final
     *  oracle sweep over the end state. */
    std::function<void(Simulation &)> postRun;
};

/** Run one workload on one (core, configuration) pair. */
RunResult runWorkload(CoreKind core, const RtosUnitConfig &unit,
                      const Workload &workload, const RunOptions &opts);

RunResult runWorkload(CoreKind core, const RtosUnitConfig &unit,
                      const Workload &workload,
                      Word timer_period_cycles = 1000);

} // namespace rtu

#endif // RTU_HARNESS_EXPERIMENT_HH
