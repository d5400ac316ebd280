/**
 * @file
 * Parallel experiment sweep engine.
 *
 * All of the paper's headline results (Fig. 9 latency/jitter, the
 * S/L/T/D/O/P ablations, Tab. 1) are cross-products of
 * {core} x {RTOSUnit feature set} x {workload} (x timer period
 * x ctxQueue depth). A SweepSpec describes such a cartesian grid; a
 * SweepRunner shards the resulting independent Simulation instances
 * across a std::thread pool.
 *
 * Determinism contract: every grid point is an isolated, exact
 * simulation keyed by a deterministic per-point seed, workers pull
 * points from an atomic cursor and write into pre-sized, index-
 * addressed slots (a lock-free collector — no mutex, no reordering),
 * and results/traces are serialized in grid order afterwards. The
 * same spec therefore produces byte-identical JSONL output at any
 * thread count, while wall-clock scales with the pool size.
 */

#ifndef RTU_SWEEP_SWEEP_HH
#define RTU_SWEEP_SWEEP_HH

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "harness/experiment.hh"
#include "trace/trace.hh"

namespace rtu {

/** One point of the cartesian grid: a single simulation run. */
struct SweepPoint
{
    CoreKind core = CoreKind::kCv32e40p;
    RtosUnitConfig unit;
    std::string workload;
    unsigned iterations = 20;
    Word timerPeriodCycles = 1000;
    unsigned naxCtxQueueEntries = 8;
    /** Deterministic per-point seed (FNV-1a over the point's key). */
    std::uint64_t seed = 0;

    /** Stable human-readable key, also the seed's hash input. */
    std::string key() const;

    /** Stamp the deterministic seed (FNV-1a over key()). Called by
     *  SweepSpec::points(); hand-built point lists (the explorer's
     *  cache misses) must call it before runPoints(). */
    void reseed();
};

/** Cartesian grid specification. Empty axes are invalid. */
struct SweepSpec
{
    std::vector<CoreKind> cores;
    std::vector<RtosUnitConfig> units;
    std::vector<std::string> workloads;
    std::vector<Word> timerPeriods{1000};
    std::vector<unsigned> ctxQueueDepths{8};
    unsigned iterations = 20;

    /**
     * Expand to the full grid in a stable nesting order (core-major:
     * core > unit > workload > period > depth), seeding each point.
     */
    std::vector<SweepPoint> points() const;
};

/** The outcome of one grid point, with its captured episode trace. */
struct SweepResult
{
    SweepPoint point;
    RunResult run;
    /** JSONL episode trace of this point (empty unless captured). */
    std::string trace;
};

class SweepRunner
{
  public:
    /** @p threads == 0 or 1 runs serially on the calling thread. */
    explicit SweepRunner(unsigned threads = 1) : threads_(threads) {}

    /**
     * Run every point of @p spec; results come back in grid order
     * regardless of the thread count. @p capture_trace additionally
     * records each point's per-episode JSONL trace.
     */
    std::vector<SweepResult> run(const SweepSpec &spec,
                                 bool capture_trace = false) const;

    /** Run an explicit point list (non-cartesian sweeps). */
    std::vector<SweepResult> runPoints(const std::vector<SweepPoint> &pts,
                                       bool capture_trace = false) const;

    /**
     * Generic deterministic fan-out over [0, n): @p fn is invoked for
     * every index exactly once, sharded across this runner's pool.
     * Callers own the result collection and must write only into
     * per-index slots they pre-sized — the same lock-free collector
     * discipline runPoints() uses, reused by the fault-injection
     * campaign so its outcome stream keeps the byte-stability
     * contract at any thread count.
     */
    void forEachIndex(std::size_t n,
                      const std::function<void(std::size_t)> &fn) const;

    unsigned threads() const { return threads_; }

    /**
     * Simulation-kernel fast-forward for every point of this runner
     * (default on). A runner knob rather than a SweepPoint field: the
     * two modes are exact by construction, so they share one point
     * key — and the explorer's cache keys must not change.
     */
    void setFastForward(bool enable) { fastForward_ = enable; }
    bool fastForward() const { return fastForward_; }

    /**
     * Decode-once text image for every point (default on). Like
     * fast-forward, a runner knob rather than a point field: the image
     * is bit-exact, so both settings share one point key.
     */
    void setPredecode(bool enable) { predecode_ = enable; }
    bool predecode() const { return predecode_; }

    /**
     * Superblock execution for every point (default on). Like the
     * other two, a runner knob rather than a point field: block
     * execution is bit-exact, so both settings share one point key.
     */
    void setBlockExec(bool enable) { blockExec_ = enable; }
    bool blockExec() const { return blockExec_; }

  private:
    unsigned threads_;
    bool fastForward_ = true;
    bool predecode_ = true;
    bool blockExec_ = true;
};

/** Execute a single grid point (what each worker runs). */
SweepResult runSweepPoint(const SweepPoint &point, bool capture_trace,
                          bool fast_forward = true, bool predecode = true,
                          bool block_exec = true);

/**
 * Version of the writeResultsJsonl line format, stamped into the
 * header line every sweep bench emits before its result lines (the
 * same convention bench_sched/bench_throughput use). Bump when result
 * lines gain, lose or re-type fields — consumers skip streams from
 * another generation instead of misparsing them.
 * v2: block-execution counters (blocks_executed, block_fallbacks,
 *     block_invalidations).
 * v3: cycles_block_executed, closing the engine split:
 *     cycles == cycles_ticked + cycles_skipped + cycles_block_executed.
 */
constexpr unsigned kSweepResultsSchema = 3;

/** One schema-stamped header object: `{"schema":N,"bench":"<name>"}`.
 *  Written as the first line of every sweep bench's --out stream. */
void writeResultsHeaderJsonl(std::ostream &os, const char *bench);

/**
 * Serialize one result line per point (JSONL, deterministic). The
 * run status and exact cycles-ticked/skipped/block-executed counters
 * are always emitted; @p include_timing adds the nondeterministic
 * wall_ms/mips fields (off by default so the stream stays byte-stable).
 */
void writeResultsJsonl(std::ostream &os,
                       const std::vector<SweepResult> &results,
                       bool include_timing = false);

/** Concatenate the captured per-point traces in grid order. */
void writeTraceJsonl(std::ostream &os,
                     const std::vector<SweepResult> &results);

/** Merge switch-latency samples of a filtered result subset. */
template <typename Pred>
SampleStats
mergeSweepLatencies(const std::vector<SweepResult> &results, Pred pred)
{
    SampleStats merged;
    for (const SweepResult &r : results) {
        if (pred(r))
            merged.merge(r.run.switchLatency);
    }
    return merged;
}

} // namespace rtu

#endif // RTU_SWEEP_SWEEP_HH
