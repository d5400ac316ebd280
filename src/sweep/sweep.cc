#include "sweep.hh"

#include <atomic>
#include <sstream>
#include <thread>

#include "common/argparse.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "workloads/workloads.hh"

namespace rtu {

std::string
SweepPoint::key() const
{
    std::ostringstream os;
    os << coreKindName(core) << '/' << unit.name() << "/slots"
       << unit.listSlots << '/' << workload << "/it" << iterations
       << "/tp" << timerPeriodCycles << "/cq" << naxCtxQueueEntries;
    return os.str();
}

void
SweepPoint::reseed()
{
    seed = fnv1a(key());
}

std::vector<SweepPoint>
SweepSpec::points() const
{
    rtu_assert(!cores.empty() && !units.empty() && !workloads.empty() &&
               !timerPeriods.empty() && !ctxQueueDepths.empty(),
               "sweep spec has an empty axis");
    rtu_assert(iterations > 0,
               "sweep spec needs at least one iteration per workload");
    std::vector<SweepPoint> pts;
    pts.reserve(cores.size() * units.size() * workloads.size() *
                timerPeriods.size() * ctxQueueDepths.size());
    for (CoreKind core : cores) {
        for (const RtosUnitConfig &unit : units) {
            for (const std::string &w : workloads) {
                for (Word period : timerPeriods) {
                    for (unsigned depth : ctxQueueDepths) {
                        SweepPoint p;
                        p.core = core;
                        p.unit = unit;
                        p.workload = w;
                        p.iterations = iterations;
                        p.timerPeriodCycles = period;
                        p.naxCtxQueueEntries = depth;
                        p.reseed();
                        pts.push_back(std::move(p));
                    }
                }
            }
        }
    }
    return pts;
}

SweepResult
runSweepPoint(const SweepPoint &point, bool capture_trace,
              EngineMode engine)
{
    SweepResult out;
    out.point = point;

    const auto workload = makeWorkload(point.workload, point.iterations);

    RunOptions opts;
    opts.timerPeriodCycles = point.timerPeriodCycles;
    opts.naxCtxQueueEntries = point.naxCtxQueueEntries;
    opts.seed = point.seed;
    opts.engine = engine;

    if (capture_trace) {
        std::ostringstream trace;
        JsonlTraceSink sink(trace);
        opts.sink = &sink;
        out.run = runWorkload(point.core, point.unit, *workload, opts);
        out.trace = trace.str();
    } else {
        out.run = runWorkload(point.core, point.unit, *workload, opts);
    }
    return out;
}

void
SweepRunner::forEachIndex(std::size_t n,
                          const std::function<void(std::size_t)> &fn) const
{
    if (n == 0)
        return;

    const unsigned workers = std::max(1u,
        std::min<unsigned>(threads_, static_cast<unsigned>(n)));

    if (workers == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Lock-free collection: workers pull the next index from an
    // atomic cursor and each writes only its own pre-sized slot, so
    // the result order is the index order whatever the interleaving.
    std::atomic<std::size_t> cursor{0};
    auto worker = [&]() {
        for (;;) {
            const std::size_t i = cursor.fetch_add(
                1, std::memory_order_relaxed);
            if (i >= n)
                return;
            fn(i);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
}

std::vector<SweepResult>
SweepRunner::runPoints(const std::vector<SweepPoint> &pts,
                       bool capture_trace) const
{
    std::vector<SweepResult> results(pts.size());
    forEachIndex(pts.size(), [&](std::size_t i) {
        results[i] = runSweepPoint(pts[i], capture_trace, engine_);
    });
    return results;
}

std::vector<SweepResult>
SweepRunner::run(const SweepSpec &spec, bool capture_trace) const
{
    return runPoints(spec.points(), capture_trace);
}

namespace {

template <typename T, typename Parse>
void
replaceWithList(const std::string &arg, std::vector<T> *out, Parse parse)
{
    if (arg.empty())
        return;
    out->clear();
    for (const std::string &item : splitList(arg))
        out->push_back(parse(item));
}

} // namespace

void
parseGridFlag(const std::string &arg, std::vector<CoreKind> *out)
{
    replaceWithList(arg, out, coreKindFromName);
}

void
parseGridFlag(const std::string &arg, std::vector<RtosUnitConfig> *out)
{
    replaceWithList(arg, out, RtosUnitConfig::fromName);
}

void
parseGridFlag(const std::string &arg, std::vector<std::string> *out)
{
    replaceWithList(arg, out, [](const std::string &s) { return s; });
}

void
writeResultsHeaderJsonl(std::ostream &os, const char *bench)
{
    writeSchemaHeader(os, bench, kSweepResultsSchema);
}

void
writeResultsJsonl(std::ostream &os,
                  const std::vector<SweepResult> &results,
                  bool include_timing)
{
    std::string line;
    for (const SweepResult &r : results) {
        const RunResult &run = r.run;
        line.clear();
        JsonWriter w(line);
        w.beginObject()
            .str("core", coreKindName(r.point.core))
            .str("config", r.point.unit.name())
            .num("list_slots", r.point.unit.listSlots)
            .str("workload", r.point.workload)
            .num("iterations", r.point.iterations)
            .num("timer_period", r.point.timerPeriodCycles)
            .num("ctxqueue", r.point.naxCtxQueueEntries)
            .num("seed", r.point.seed)
            .boolean("ok", run.ok)
            .num("exit_code", run.exitCode)
            .str("status", runStatusName(run.status))
            .num("cycles", run.cycles)
            .num("cycles_ticked", run.throughput.cyclesTicked)
            .num("cycles_skipped", run.throughput.cyclesSkipped)
            .num("cycles_block_executed",
                 run.throughput.cyclesBlockExecuted)
            .num("fetch_predecoded", run.coreStats.fetchPredecoded)
            .num("fetch_slow_path", run.coreStats.fetchSlowPath)
            .num("text_invalidations", run.coreStats.textInvalidations)
            .num("blocks_executed", run.coreStats.blocksExecuted)
            .num("block_fallbacks", run.coreStats.blockFallbacks)
            .num("block_invalidations", run.coreStats.blockInvalidations);
        if (include_timing) {
            // Wall time is nondeterministic; callers wanting the
            // byte-stability contract keep it off (the default).
            const double secs = run.throughput.wallSeconds;
            const double insns = static_cast<double>(run.coreStats.instret);
            w.fixed("wall_ms", secs * 1e3, "%.3f")
                .fixed("mips", secs > 0.0 ? insns / secs / 1e6 : 0.0, "%.3f");
        }
        const SampleStats &s = run.switchLatency;
        w.num("switches", s.count());
        if (!s.empty()) {
            // Latencies are integral cycle counts; print them as such
            // so the stream stays byte-stable across libc float
            // formatting differences (mean gets a fixed precision).
            const auto cy = [](double v) {
                return static_cast<std::uint64_t>(v);
            };
            w.num("lat_min", cy(s.min()))
                .fixed("lat_mean", s.mean(), "%.3f")
                .num("lat_max", cy(s.max()))
                .num("lat_jitter", cy(s.jitter()))
                .num("lat_p50", cy(s.percentile(0.5)))
                .num("lat_p99", cy(s.percentile(0.99)));
        }
        w.endObject();
        os << line << '\n';
    }
}

void
writeTraceJsonl(std::ostream &os, const std::vector<SweepResult> &results)
{
    for (const SweepResult &r : results)
        os << r.trace;
}

} // namespace rtu
