#include "sweep.hh"

#include <atomic>
#include <sstream>
#include <thread>

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

void
writeResultsHeaderJsonl(std::ostream &os, const char *bench)
{
    os << "{\"schema\":" << kSweepResultsSchema << ",\"bench\":\""
       << jsonEscape(bench) << "\"}\n";
}

void
writeResultsJsonl(std::ostream &os,
                  const std::vector<SweepResult> &results,
                  bool include_timing)
{
    for (const SweepResult &r : results) {
        const RunResult &run = r.run;
        os << "{\"core\":\"" << jsonEscape(coreKindName(r.point.core))
           << "\",\"config\":\"" << jsonEscape(r.point.unit.name())
           << "\",\"list_slots\":" << r.point.unit.listSlots
           << ",\"workload\":\"" << jsonEscape(r.point.workload)
           << "\",\"iterations\":" << r.point.iterations
           << ",\"timer_period\":" << r.point.timerPeriodCycles
           << ",\"ctxqueue\":" << r.point.naxCtxQueueEntries
           << ",\"seed\":" << r.point.seed
           << ",\"ok\":" << (run.ok ? "true" : "false")
           << ",\"exit_code\":" << run.exitCode
           << ",\"status\":\"" << runStatusName(run.status)
           << "\",\"cycles\":" << run.cycles
           << ",\"cycles_ticked\":" << run.throughput.cyclesTicked
           << ",\"cycles_skipped\":" << run.throughput.cyclesSkipped
           << ",\"cycles_block_executed\":"
           << run.throughput.cyclesBlockExecuted
           << ",\"fetch_predecoded\":" << run.coreStats.fetchPredecoded
           << ",\"fetch_slow_path\":" << run.coreStats.fetchSlowPath
           << ",\"text_invalidations\":"
           << run.coreStats.textInvalidations
           << ",\"blocks_executed\":" << run.coreStats.blocksExecuted
           << ",\"block_fallbacks\":" << run.coreStats.blockFallbacks
           << ",\"block_invalidations\":"
           << run.coreStats.blockInvalidations;
        if (include_timing) {
            // Wall time is nondeterministic; callers wanting the
            // byte-stability contract keep it off (the default).
            char wall[32], mips[32];
            std::snprintf(wall, sizeof(wall), "%.3f",
                          run.throughput.wallSeconds * 1e3);
            const double secs = run.throughput.wallSeconds;
            std::snprintf(mips, sizeof(mips), "%.3f",
                          secs > 0.0
                              ? static_cast<double>(
                                    run.coreStats.instret) / secs / 1e6
                              : 0.0);
            os << ",\"wall_ms\":" << wall << ",\"mips\":" << mips;
        }
        const SampleStats &s = run.switchLatency;
        os << ",\"switches\":" << s.count();
        if (!s.empty()) {
            // Latencies are integral cycle counts; print them as such
            // so the stream stays byte-stable across libc float
            // formatting differences (mean gets a fixed precision).
            const auto cy = [](double v) {
                return static_cast<std::uint64_t>(v);
            };
            char mean[32];
            std::snprintf(mean, sizeof(mean), "%.3f", s.mean());
            os << ",\"lat_min\":" << cy(s.min())
               << ",\"lat_mean\":" << mean
               << ",\"lat_max\":" << cy(s.max())
               << ",\"lat_jitter\":" << cy(s.jitter())
               << ",\"lat_p50\":" << cy(s.percentile(0.5))
               << ",\"lat_p99\":" << cy(s.percentile(0.99));
        }
        os << "}\n";
    }
}

void
writeTraceJsonl(std::ostream &os, const std::vector<SweepResult> &results)
{
    for (const SweepResult &r : results)
        os << r.trace;
}

} // namespace rtu
