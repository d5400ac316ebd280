/**
 * Simulator-throughput benchmark for the event-driven scheduling
 * kernel: every requested (core x config x workload) point runs four
 * times — per-cycle reference mode, fast-forward with the predecoded
 * instruction store disabled, fast-forward with the image on but
 * superblock execution off, and fast-forward with everything on —
 * with episode traces captured. All four traces must be
 * byte-identical (exit 1 otherwise); the report quantifies what each
 * optimization buys: skip ratio (fraction of simulated cycles never
 * ticked), guest MIPS, the fast-forward wall-clock speedup over
 * reference, the predecode speedup over decode-from-memory fetching,
 * and the block-execution speedup over per-instruction dispatch.
 *
 * Emits BENCH_sim_throughput.json with one record per point plus
 * per-core and overall aggregates. --min-skip-ratio gates the overall
 * skip ratio, --min-predecode-speedup the overall predecode speedup
 * and --min-block-speedup the overall block-execution speedup (exit 1
 * below the floor) so CI can assert the kernel actually
 * fast-forwards on periodic workloads and the decode-once front-end
 * and block fast path actually pay on compute-bound ones.
 *
 * Usage: bench_throughput [--cores cv32e40p,cva6,nax]
 *                         [--configs vanilla,SLT,...]
 *                         [--workloads delay_wake,...]
 *                         [--iterations N]
 *                         [--timer-period CYCLES]
 *                         [--repeats N]
 *                         [--out BENCH_sim_throughput.json]
 *                         [--min-skip-ratio R]
 *                         [--min-predecode-speedup S]
 *                         [--min-block-speedup S]
 *
 * --repeats runs each mode of each point N times and keeps the
 * minimum wall time (the runs are deterministic, so only scheduling
 * noise differs between them). Speedup gates in CI should use
 * --repeats 3 or more: single-shot wall times on millisecond-scale
 * runs swing tens of percent under host contention.
 *
 * --timer-period sets the preemption-timer period per point. The
 * default is 10000 cycles — a 10 kHz tick on a 100 MHz core, the
 * realistic regime where guests spend most cycles quiescent between
 * switches. The latency benches use 1000 to cram switches into short
 * runs; pass --timer-period 1000 to measure that (ISR-dominated)
 * regime instead.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/argparse.hh"
#include "common/logging.hh"
#include "sweep/sweep.hh"
#include "workloads/workloads.hh"

using namespace rtu;

namespace {

struct PointReport
{
    SweepPoint point;
    RunThroughput ff;
    RunThroughput ref;
    RunThroughput nopre;    ///< fast-forward, predecoded image off
    RunThroughput noblock;  ///< fast-forward, block execution off
    Cycle cycles = 0;
    std::uint64_t instret = 0;
    std::uint64_t fetchPredecoded = 0;
    std::uint64_t fetchSlowPath = 0;
    std::uint64_t textInvalidations = 0;
    std::uint64_t blocksExecuted = 0;
    std::uint64_t blockFallbacks = 0;
    std::uint64_t blockInvalidations = 0;
    bool traceIdentical = false;
    bool ok = false;
};

double
mips(std::uint64_t instret, double seconds)
{
    return seconds > 0.0
               ? static_cast<double>(instret) / seconds / 1e6
               : 0.0;
}

double
skipRatio(std::uint64_t skipped, std::uint64_t ticked)
{
    const double total = static_cast<double>(skipped + ticked);
    return total > 0.0 ? static_cast<double>(skipped) / total : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    std::vector<CoreKind> cores = {CoreKind::kCv32e40p, CoreKind::kCva6,
                                   CoreKind::kNax};
    std::vector<std::string> configs = {"vanilla", "SLT"};
    std::vector<std::string> workloads = {"delay_wake", "sem_pingpong",
                                          "round_robin"};
    unsigned iterations = 20;
    unsigned timer_period = 10000;
    unsigned repeats = 1;
    std::string out_path = "BENCH_sim_throughput.json";
    double min_skip_ratio = 0.0;
    double min_predecode_speedup = 0.0;
    double min_block_speedup = 0.0;

    std::string cores_arg, configs_arg, workloads_arg;
    ArgParser parser("Event-driven simulation throughput: reference "
                     "ticking vs quiescence fast-forward");
    parser.addString("--cores", &cores_arg,
                     "comma list: cv32e40p,cva6,nax");
    parser.addString("--configs", &configs_arg,
                     "comma list of RTOSUnit configurations");
    parser.addString("--workloads", &workloads_arg,
                     "comma list of workloads");
    parser.addUnsigned("--iterations", &iterations,
                       "workload iterations per run");
    parser.addUnsigned("--timer-period", &timer_period,
                       "preemption timer period in cycles");
    parser.addUnsigned("--repeats", &repeats,
                       "timed runs per mode; min wall time kept");
    parser.addString("--out", &out_path, "JSON report path");
    parser.addDouble("--min-skip-ratio", &min_skip_ratio,
                     "fail when any point skips less than this ratio");
    parser.addDouble("--min-predecode-speedup", &min_predecode_speedup,
                     "fail when the overall predecode speedup is lower");
    parser.addDouble("--min-block-speedup", &min_block_speedup,
                     "fail when the overall block-exec speedup is lower");
    parser.parse(argc, argv);

    if (!cores_arg.empty()) {
        cores.clear();
        for (const std::string &n : splitList(cores_arg))
            cores.push_back(coreKindFromName(n));
    }
    if (!configs_arg.empty())
        configs = splitList(configs_arg);
    if (!workloads_arg.empty())
        workloads = splitList(workloads_arg);
    if (cores.empty() || configs.empty() || workloads.empty())
        fatal("need at least one core, config and workload");
    if (repeats == 0)
        repeats = 1;

    std::vector<PointReport> reports;
    bool allIdentical = true;

    std::printf("%-9s %-8s %-16s %12s %10s %9s %9s %9s %9s %8s %8s %8s\n",
                "core", "config", "workload", "cycles", "skip",
                "ref-ms", "nopre-ms", "noblk-ms", "ff-ms", "speedup",
                "pre-spd", "blk-spd");
    for (CoreKind core : cores) {
        for (const std::string &cfg : configs) {
            for (const std::string &w : workloads) {
                SweepPoint p;
                p.core = core;
                p.unit = RtosUnitConfig::fromName(cfg);
                p.workload = w;
                p.iterations = iterations;
                p.timerPeriodCycles = timer_period;
                p.reseed();

                // Reference first, then the three accelerated modes;
                // traces captured for the four-way byte-identity
                // check. Each mode runs --repeats times keeping the
                // minimum wall time.
                const auto bestOf = [&p, repeats](EngineMode engine) {
                    SweepResult best = runSweepPoint(p, true, engine);
                    for (unsigned k = 1; k < repeats; ++k) {
                        SweepResult r = runSweepPoint(p, true, engine);
                        if (r.run.throughput.wallSeconds <
                            best.run.throughput.wallSeconds)
                            best = std::move(r);
                    }
                    return best;
                };
                const SweepResult ref = bestOf(EngineMode::kReference);
                const SweepResult nopre = bestOf(EngineMode::kNoPredecode);
                const SweepResult noblock = bestOf(EngineMode::kNoBlock);
                const SweepResult ff = bestOf(EngineMode::kFull);

                PointReport r;
                r.point = p;
                r.ref = ref.run.throughput;
                r.nopre = nopre.run.throughput;
                r.noblock = noblock.run.throughput;
                r.ff = ff.run.throughput;
                r.cycles = ff.run.cycles;
                r.instret = ff.run.coreStats.instret;
                r.fetchPredecoded = ff.run.coreStats.fetchPredecoded;
                r.fetchSlowPath = ff.run.coreStats.fetchSlowPath;
                r.textInvalidations =
                    ff.run.coreStats.textInvalidations;
                r.blocksExecuted = ff.run.coreStats.blocksExecuted;
                r.blockFallbacks = ff.run.coreStats.blockFallbacks;
                r.blockInvalidations =
                    ff.run.coreStats.blockInvalidations;
                r.traceIdentical =
                    ff.trace == ref.trace && ff.trace == nopre.trace &&
                    ff.trace == noblock.trace &&
                    ff.run.cycles == ref.run.cycles &&
                    ff.run.cycles == nopre.run.cycles &&
                    ff.run.cycles == noblock.run.cycles &&
                    ff.run.status == ref.run.status &&
                    ff.run.status == nopre.run.status &&
                    ff.run.status == noblock.run.status;
                r.ok = ff.run.ok && ref.run.ok && nopre.run.ok &&
                       noblock.run.ok;
                allIdentical = allIdentical && r.traceIdentical;
                reports.push_back(r);

                const double speedup =
                    r.ff.wallSeconds > 0.0
                        ? r.ref.wallSeconds / r.ff.wallSeconds
                        : 0.0;
                const double preSpeedup =
                    r.ff.wallSeconds > 0.0
                        ? r.nopre.wallSeconds / r.ff.wallSeconds
                        : 0.0;
                const double blkSpeedup =
                    r.ff.wallSeconds > 0.0
                        ? r.noblock.wallSeconds / r.ff.wallSeconds
                        : 0.0;
                std::printf(
                    "%-9s %-8s %-16s %12llu %9.1f%% %9.2f %9.2f %9.2f "
                    "%9.2f %7.2fx %7.2fx %7.2fx%s\n",
                    coreKindName(core), cfg.c_str(), w.c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    100.0 * skipRatio(r.ff.cyclesSkipped,
                                      r.ff.cyclesTicked +
                                          r.ff.cyclesBlockExecuted),
                    r.ref.wallSeconds * 1e3, r.nopre.wallSeconds * 1e3,
                    r.noblock.wallSeconds * 1e3,
                    r.ff.wallSeconds * 1e3, speedup, preSpeedup,
                    blkSpeedup,
                    r.traceIdentical ? "" : "  TRACE MISMATCH");
            }
        }
    }

    // Aggregates: per core and overall. Block-executed cycles count
    // as executed (not skipped) in the skip ratio, so the ratio is
    // comparable with and without the block fast path.
    std::uint64_t totTicked = 0, totSkipped = 0, totInstret = 0;
    double totRefWall = 0, totFfWall = 0, totNopreWall = 0,
           totNoblockWall = 0;
    std::ostringstream perCore;
    for (size_t ci = 0; ci < cores.size(); ++ci) {
        std::uint64_t ticked = 0, skipped = 0, instret = 0;
        double refWall = 0, ffWall = 0, nopreWall = 0, noblockWall = 0;
        for (const PointReport &r : reports) {
            if (r.point.core != cores[ci])
                continue;
            ticked += r.ff.cyclesTicked + r.ff.cyclesBlockExecuted;
            skipped += r.ff.cyclesSkipped;
            instret += r.instret;
            refWall += r.ref.wallSeconds;
            ffWall += r.ff.wallSeconds;
            nopreWall += r.nopre.wallSeconds;
            noblockWall += r.noblock.wallSeconds;
        }
        perCore << (ci ? "," : "") << "{\"core\":\""
                << jsonEscape(coreKindName(cores[ci]))
                << "\",\"skip_ratio\":"
                << csprintf("%.4f", skipRatio(skipped, ticked))
                << ",\"ff_mips\":" << csprintf("%.3f", mips(instret,
                                                            ffWall))
                << ",\"speedup\":"
                << csprintf("%.3f",
                            ffWall > 0.0 ? refWall / ffWall : 0.0)
                << ",\"predecode_speedup\":"
                << csprintf("%.3f",
                            ffWall > 0.0 ? nopreWall / ffWall : 0.0)
                << ",\"block_speedup\":"
                << csprintf("%.3f",
                            ffWall > 0.0 ? noblockWall / ffWall : 0.0)
                << "}";
        totTicked += ticked;
        totSkipped += skipped;
        totInstret += instret;
        totRefWall += refWall;
        totFfWall += ffWall;
        totNopreWall += nopreWall;
        totNoblockWall += noblockWall;
    }

    const double overallSkip = skipRatio(totSkipped, totTicked);
    const double overallSpeedup =
        totFfWall > 0.0 ? totRefWall / totFfWall : 0.0;
    const double overallPreSpeedup =
        totFfWall > 0.0 ? totNopreWall / totFfWall : 0.0;
    const double overallBlkSpeedup =
        totFfWall > 0.0 ? totNoblockWall / totFfWall : 0.0;
    std::printf("\noverall: skip ratio %.1f%%, speedup %.2fx, "
                "predecode speedup %.2fx, block speedup %.2fx, "
                "%.2f MIPS (noblock %.2f, nopre %.2f, ref %.2f)\n",
                100.0 * overallSkip, overallSpeedup, overallPreSpeedup,
                overallBlkSpeedup,
                mips(totInstret, totFfWall),
                mips(totInstret, totNoblockWall),
                mips(totInstret, totNopreWall),
                mips(totInstret, totRefWall));

    std::ofstream os(out_path);
    if (!os)
        fatal("cannot open --out file '%s'", out_path.c_str());
    os << "{\"schema\":2,\"iterations\":" << iterations
       << ",\"timer_period\":" << timer_period
       << ",\"repeats\":" << repeats << ",\"results\":[";
    for (size_t i = 0; i < reports.size(); ++i) {
        const PointReport &r = reports[i];
        os << (i ? "," : "") << "{\"core\":\""
           << jsonEscape(coreKindName(r.point.core)) << "\",\"config\":\""
           << jsonEscape(r.point.unit.name()) << "\",\"workload\":\""
           << jsonEscape(r.point.workload)
           << "\",\"ok\":" << (r.ok ? "true" : "false")
           << ",\"trace_identical\":"
           << (r.traceIdentical ? "true" : "false")
           << ",\"cycles\":" << r.cycles
           << ",\"cycles_ticked\":" << r.ff.cyclesTicked
           << ",\"cycles_skipped\":" << r.ff.cyclesSkipped
           << ",\"cycles_block_executed\":" << r.ff.cyclesBlockExecuted
           << ",\"stride_skips\":" << r.ff.strideSkips
           << ",\"block_runs\":" << r.ff.blockRuns
           << ",\"skip_ratio\":"
           << csprintf("%.4f",
                       skipRatio(r.ff.cyclesSkipped,
                                 r.ff.cyclesTicked +
                                     r.ff.cyclesBlockExecuted))
           << ",\"fetch_predecoded\":" << r.fetchPredecoded
           << ",\"fetch_slow_path\":" << r.fetchSlowPath
           << ",\"text_invalidations\":" << r.textInvalidations
           << ",\"blocks_executed\":" << r.blocksExecuted
           << ",\"block_fallbacks\":" << r.blockFallbacks
           << ",\"block_invalidations\":" << r.blockInvalidations
           << ",\"ref_wall_ms\":"
           << csprintf("%.3f", r.ref.wallSeconds * 1e3)
           << ",\"nopre_wall_ms\":"
           << csprintf("%.3f", r.nopre.wallSeconds * 1e3)
           << ",\"noblock_wall_ms\":"
           << csprintf("%.3f", r.noblock.wallSeconds * 1e3)
           << ",\"ff_wall_ms\":"
           << csprintf("%.3f", r.ff.wallSeconds * 1e3)
           << ",\"ref_mips\":"
           << csprintf("%.3f", mips(r.instret, r.ref.wallSeconds))
           << ",\"nopre_mips\":"
           << csprintf("%.3f", mips(r.instret, r.nopre.wallSeconds))
           << ",\"noblock_mips\":"
           << csprintf("%.3f", mips(r.instret, r.noblock.wallSeconds))
           << ",\"ff_mips\":"
           << csprintf("%.3f", mips(r.instret, r.ff.wallSeconds))
           << ",\"speedup\":"
           << csprintf("%.3f", r.ff.wallSeconds > 0.0
                                   ? r.ref.wallSeconds / r.ff.wallSeconds
                                   : 0.0)
           << ",\"predecode_speedup\":"
           << csprintf("%.3f",
                       r.ff.wallSeconds > 0.0
                           ? r.nopre.wallSeconds / r.ff.wallSeconds
                           : 0.0)
           << ",\"block_speedup\":"
           << csprintf("%.3f",
                       r.ff.wallSeconds > 0.0
                           ? r.noblock.wallSeconds / r.ff.wallSeconds
                           : 0.0)
           << "}";
    }
    os << "],\"per_core\":[" << perCore.str() << "]"
       << ",\"overall\":{\"skip_ratio\":"
       << csprintf("%.4f", overallSkip)
       << ",\"speedup\":" << csprintf("%.3f", overallSpeedup)
       << ",\"predecode_speedup\":"
       << csprintf("%.3f", overallPreSpeedup)
       << ",\"block_speedup\":"
       << csprintf("%.3f", overallBlkSpeedup) << "}}\n";
    std::printf("json: %s\n", out_path.c_str());

    if (!allIdentical) {
        std::fprintf(stderr, "FAIL: fast-forward and reference traces "
                             "differ\n");
        return 1;
    }
    if (min_skip_ratio > 0.0 && overallSkip < min_skip_ratio) {
        std::fprintf(stderr,
                     "FAIL: overall skip ratio %.4f below the "
                     "--min-skip-ratio floor %.4f\n",
                     overallSkip, min_skip_ratio);
        return 1;
    }
    if (min_predecode_speedup > 0.0 &&
        overallPreSpeedup < min_predecode_speedup) {
        std::fprintf(stderr,
                     "FAIL: overall predecode speedup %.3f below the "
                     "--min-predecode-speedup floor %.3f\n",
                     overallPreSpeedup, min_predecode_speedup);
        return 1;
    }
    if (min_block_speedup > 0.0 && overallBlkSpeedup < min_block_speedup) {
        std::fprintf(stderr,
                     "FAIL: overall block-exec speedup %.3f below the "
                     "--min-block-speedup floor %.3f\n",
                     overallBlkSpeedup, min_block_speedup);
        return 1;
    }
    return 0;
}
