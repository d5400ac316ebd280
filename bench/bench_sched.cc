/**
 * Schedulability co-analysis campaign: generate seeded synthetic
 * tasksets over a utilization grid, solve fixed-priority RTA with
 * *measured* per-configuration overheads (switch episodes from trace
 * phases, tick cost, CV32E40P static ISR WCET), then validate every
 * verdict by running the lowered taskset on the simulator and
 * counting deadline misses.
 *
 * The process exits non-zero on any soundness violation (a point the
 * RTA called schedulable that missed a deadline or failed to run
 * cleanly on the simulator) — CI gates on this. JSONL output is
 * byte-identical at any --threads for a given seed: tasksets are
 * derived from (seed, util index, taskset index) only, overheads are
 * measured serially up front, and the grid fans out into
 * index-addressed slots.
 *
 * Usage: bench_sched [--cores cv32e40p,cva6,nax]
 *                    [--configs vanilla,S,SLT,...]
 *                    [--tasksets N]      tasksets per utilization
 *                    [--seed S]
 *                    [--util-grid 0.4,0.5,...]
 *                    [--tasks N]         tasks per set (1..7)
 *                    [--period-min T] [--period-max T]   (ticks)
 *                    [--phase T] [--horizon T]           (ticks)
 *                    [--timer-period CYCLES]
 *                    [--margin M]        overhead safety multiplier
 *                    [--threads N]
 *                    [--no-sim]          RTA only, skip validation
 *                    [--out sched.jsonl]
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "sched/campaign.hh"
#include "sweep/sweep.hh"

using namespace rtu;

namespace {

std::vector<double>
parseUtilGrid(const std::string &s)
{
    std::vector<double> grid;
    for (const std::string &item : splitList(s)) {
        char *end = nullptr;
        const double u = std::strtod(item.c_str(), &end);
        if (end == item.c_str() || *end != '\0' || u <= 0.0)
            fatal("bad --util-grid entry '%s'", item.c_str());
        grid.push_back(u);
    }
    return grid;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    SchedCampaignSpec spec;
    spec.configs = {RtosUnitConfig::fromName("vanilla"),
                    RtosUnitConfig::fromName("S"),
                    RtosUnitConfig::fromName("SLT")};

    std::string cores_arg, configs_arg, util_arg;
    std::string out_path = "sched.jsonl";
    unsigned threads = 1;
    bool no_sim = false;
    std::uint64_t seed = 1;

    ArgParser parser("Schedulability co-analysis: seeded tasksets, "
                     "measured-overhead RTA, simulated deadline "
                     "validation");
    parser.addString("--cores", &cores_arg,
                     "comma list: cv32e40p,cva6,nax");
    parser.addString("--configs", &configs_arg,
                     "comma list of RTOSUnit configurations");
    parser.addUnsigned("--tasksets", &spec.tasksetsPerUtil,
                       "tasksets per utilization level");
    parser.addU64("--seed", &seed, "campaign seed");
    parser.addString("--util-grid", &util_arg,
                     "comma list of total utilizations");
    parser.addUnsigned("--tasks", &spec.taskset.tasks,
                       "tasks per set (1..7)");
    parser.addUnsigned("--period-min", &spec.taskset.periodMinTicks,
                       "minimum period in timer ticks");
    parser.addUnsigned("--period-max", &spec.taskset.periodMaxTicks,
                       "maximum period in timer ticks");
    parser.addUnsigned("--phase", &spec.lower.phaseTicks,
                       "common first release tick");
    parser.addUnsigned("--horizon", &spec.lower.horizonTicks,
                       "release horizon in ticks (0 = auto)");
    unsigned timer_period = 1000;
    parser.addUnsigned("--timer-period", &timer_period,
                       "timer period in cycles");
    parser.addDouble("--margin", &spec.margin,
                     "safety multiplier on measured overheads");
    parser.addUnsigned("--threads", &threads, "worker threads");
    parser.addFlag("--no-sim", &no_sim,
                   "skip the simulation validation pass");
    parser.addString("--out", &out_path, "JSONL output path");
    parser.parse(argc, argv);

    spec.seed = seed;
    spec.threads = threads;
    spec.simulate = !no_sim;
    spec.lower.timerPeriodCycles = timer_period;
    parseGridFlag(cores_arg, &spec.cores);
    parseGridFlag(configs_arg, &spec.configs);
    if (!util_arg.empty())
        spec.utilGrid = parseUtilGrid(util_arg);

    const SchedCampaignResult result = runSchedCampaign(spec);

    std::printf("%-9s %-8s %7s %8s %8s %6s %10s\n", "core", "config",
                "points", "rta-ok", "sim-ok", "viol", "pessimism");
    for (const SchedConfigSummary &s : result.summaries) {
        std::printf("%-9s %-8s %7u %8u %8u %6u %9.2fx\n",
                    coreKindName(s.core), s.config.c_str(), s.points,
                    s.rtaSchedulable, s.simSchedulable, s.violations,
                    s.meanPessimism);
        std::printf("  overheads: S=%.1f C_clk=%.1f cycles "
                    "(meas switch %.0f, tick %.0f, entry %.0f%s)\n",
                    s.overheads.rta.switchCost,
                    s.overheads.rta.tickCost, s.overheads.measSwitchMax,
                    s.overheads.measTickMax, s.overheads.measEntryMax,
                    s.overheads.hasWcet
                        ? csprintf(", wcet %.0f",
                                   s.overheads.wcetCycles)
                              .c_str()
                        : "");
    }

    std::ofstream os = openFlagFile(out_path, "--out");
    writeSchedJsonl(os, spec, result);
    std::printf("jsonl: %s (%zu points)\n", out_path.c_str(),
                result.points.size());

    if (result.soundnessViolations) {
        std::fprintf(stderr,
                     "FAIL: %u soundness violation(s) — RTA-schedulable "
                     "points missed deadlines on the simulator\n",
                     result.soundnessViolations);
        return 1;
    }
    return 0;
}
