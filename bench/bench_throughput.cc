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
 * per-core and overall aggregates; replayed_insns beside
 * blocks_executed counts the instructions the block path retired by
 * steady-loop replay (schema 4 added it). --min-skip-ratio gates the overall
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

#include <cstdio>
#include <cstdlib>
#include <fstream>
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
    CoreStats stats;        ///< core counters of the fast-forward run
    bool traceIdentical = false;
    bool ok = false;
};

/** @p num / @p den, or 0 when @p den is not positive. */
double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
mips(std::uint64_t instret, double seconds)
{
    return ratio(static_cast<double>(instret), seconds) / 1e6;
}

/** Cycle and wall-time sums over a set of points. Block-executed
 *  cycles count as executed (not skipped) in the skip ratio, so the
 *  ratio is comparable with and without the block fast path. */
struct Totals
{
    std::uint64_t ticked = 0, skipped = 0, instret = 0;
    double refWall = 0, ffWall = 0, nopreWall = 0, noblockWall = 0;

    void
    add(const PointReport &r)
    {
        ticked += r.ff.cyclesTicked + r.ff.cyclesBlockExecuted;
        skipped += r.ff.cyclesSkipped;
        instret += r.stats.instret;
        refWall += r.ref.wallSeconds;
        ffWall += r.ff.wallSeconds;
        nopreWall += r.nopre.wallSeconds;
        noblockWall += r.noblock.wallSeconds;
    }

    double
    skipRatio() const
    {
        return ratio(static_cast<double>(skipped),
                     static_cast<double>(skipped + ticked));
    }
    double speedup() const { return ratio(refWall, ffWall); }
    double predecodeSpeedup() const { return ratio(nopreWall, ffWall); }
    double blockSpeedup() const { return ratio(noblockWall, ffWall); }
};

/** The speedup fields each level of the report carries. */
void
writeSpeedups(JsonWriter &w, const Totals &t)
{
    w.fixed("speedup", t.speedup(), "%.3f")
        .fixed("predecode_speedup", t.predecodeSpeedup(), "%.3f")
        .fixed("block_speedup", t.blockSpeedup(), "%.3f");
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    std::vector<CoreKind> cores = {CoreKind::kCv32e40p, CoreKind::kCva6,
                                   CoreKind::kNax};
    std::vector<RtosUnitConfig> configs = {
        RtosUnitConfig::vanilla(), RtosUnitConfig::fromName("SLT")};
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

    parseGridFlag(cores_arg, &cores);
    parseGridFlag(configs_arg, &configs);
    parseGridFlag(workloads_arg, &workloads);
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
        for (const RtosUnitConfig &cfg : configs) {
            for (const std::string &w : workloads) {
                SweepPoint p;
                p.core = core;
                p.unit = cfg;
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
                r.stats = ff.run.coreStats;
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

                Totals t;
                t.add(r);
                std::printf(
                    "%-9s %-8s %-16s %12llu %9.1f%% %9.2f %9.2f %9.2f "
                    "%9.2f %7.2fx %7.2fx %7.2fx%s\n",
                    coreKindName(core), cfg.name().c_str(), w.c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    100.0 * t.skipRatio(), r.ref.wallSeconds * 1e3,
                    r.nopre.wallSeconds * 1e3, r.noblock.wallSeconds * 1e3,
                    r.ff.wallSeconds * 1e3, t.speedup(),
                    t.predecodeSpeedup(), t.blockSpeedup(),
                    r.traceIdentical ? "" : "  TRACE MISMATCH");
            }
        }
    }

    std::string json;
    JsonWriter w(json);
    w.beginObject()
        .num("schema", 4)
        .str("bench", "throughput")
        .num("iterations", iterations)
        .num("timer_period", timer_period)
        .num("repeats", repeats)
        .beginArray("results");
    Totals all;
    for (const PointReport &r : reports) {
        Totals t;
        t.add(r);
        all.add(r);
        w.beginObject()
            .str("core", coreKindName(r.point.core))
            .str("config", r.point.unit.name())
            .str("workload", r.point.workload)
            .boolean("ok", r.ok)
            .boolean("trace_identical", r.traceIdentical)
            .num("cycles", r.cycles)
            .num("cycles_ticked", r.ff.cyclesTicked)
            .num("cycles_skipped", r.ff.cyclesSkipped)
            .num("cycles_block_executed", r.ff.cyclesBlockExecuted)
            .num("stride_skips", r.ff.strideSkips)
            .num("block_runs", r.ff.blockRuns)
            .fixed("skip_ratio", t.skipRatio(), "%.4f")
            .num("fetch_predecoded", r.stats.fetchPredecoded)
            .num("fetch_slow_path", r.stats.fetchSlowPath)
            .num("text_invalidations", r.stats.textInvalidations)
            .num("blocks_executed", r.stats.blocksExecuted)
            .num("replayed_insns", r.stats.replayedInsns)
            .num("block_fallbacks", r.stats.blockFallbacks)
            .num("block_invalidations", r.stats.blockInvalidations)
            .fixed("ref_wall_ms", r.ref.wallSeconds * 1e3, "%.3f")
            .fixed("nopre_wall_ms", r.nopre.wallSeconds * 1e3, "%.3f")
            .fixed("noblock_wall_ms", r.noblock.wallSeconds * 1e3, "%.3f")
            .fixed("ff_wall_ms", r.ff.wallSeconds * 1e3, "%.3f")
            .fixed("ref_mips", mips(t.instret, t.refWall), "%.3f")
            .fixed("nopre_mips", mips(t.instret, t.nopreWall), "%.3f")
            .fixed("noblock_mips", mips(t.instret, t.noblockWall), "%.3f")
            .fixed("ff_mips", mips(t.instret, t.ffWall), "%.3f");
        writeSpeedups(w, t);
        w.endObject();
    }
    w.endArray().beginArray("per_core");
    for (CoreKind core : cores) {
        Totals t;
        for (const PointReport &r : reports) {
            if (r.point.core == core)
                t.add(r);
        }
        w.beginObject()
            .str("core", coreKindName(core))
            .fixed("skip_ratio", t.skipRatio(), "%.4f")
            .fixed("ff_mips", mips(t.instret, t.ffWall), "%.3f");
        writeSpeedups(w, t);
        w.endObject();
    }
    w.endArray()
        .beginObject("overall")
        .fixed("skip_ratio", all.skipRatio(), "%.4f");
    writeSpeedups(w, all);
    w.endObject().endObject();
    std::ofstream os = openFlagFile(out_path, "--out");
    os << json << '\n';

    std::printf("\noverall: skip ratio %.1f%%, speedup %.2fx, "
                "predecode speedup %.2fx, block speedup %.2fx, "
                "%.2f MIPS (noblock %.2f, nopre %.2f, ref %.2f)\n",
                100.0 * all.skipRatio(), all.speedup(),
                all.predecodeSpeedup(), all.blockSpeedup(),
                mips(all.instret, all.ffWall),
                mips(all.instret, all.noblockWall),
                mips(all.instret, all.nopreWall),
                mips(all.instret, all.refWall));
    std::printf("json: %s\n", out_path.c_str());

    if (!allIdentical) {
        std::fprintf(stderr, "FAIL: fast-forward and reference traces "
                             "differ\n");
        return 1;
    }
    if (min_skip_ratio > 0.0 && all.skipRatio() < min_skip_ratio) {
        std::fprintf(stderr,
                     "FAIL: overall skip ratio %.4f below the "
                     "--min-skip-ratio floor %.4f\n",
                     all.skipRatio(), min_skip_ratio);
        return 1;
    }
    if (min_predecode_speedup > 0.0 &&
        all.predecodeSpeedup() < min_predecode_speedup) {
        std::fprintf(stderr,
                     "FAIL: overall predecode speedup %.3f below the "
                     "--min-predecode-speedup floor %.3f\n",
                     all.predecodeSpeedup(), min_predecode_speedup);
        return 1;
    }
    if (min_block_speedup > 0.0 &&
        all.blockSpeedup() < min_block_speedup) {
        std::fprintf(stderr,
                     "FAIL: overall block-exec speedup %.3f below the "
                     "--min-block-speedup floor %.3f\n",
                     all.blockSpeedup(), min_block_speedup);
        return 1;
    }
    return 0;
}
