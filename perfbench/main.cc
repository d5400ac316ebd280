/**
 * perfbench: runs one benchmark workload for a fixed time and prints
 * its metrics as one JSON line (the last line of stdout).
 *
 * Usage: perfbench --workload NAME [--seed N] [--seconds S]
 *                  [--trace 0|1] [--campaign-seed N]
 *                  [--launched-ns NS] [--setup-only]
 *                  [--spans-out PATH]
 *
 * --seed orders the ops of every pass after the first (a seeded
 * shuffle, fresh per pass); the work of a pass does not depend on it.
 * --campaign-seed feeds inject_campaign's fault plans. --launched-ns is the
 * CLOCK_MONOTONIC time at which the caller launched this process, so
 * setup_s covers process start; without it setup_s starts at main().
 *
 * Untraced (--trace 0): passes run back to back until --seconds have
 * passed (at least four passes), and the end-to-end metrics are
 * printed. Traced (--trace 1): untraced and traced passes alternate
 * (at least three passes), the per-layer metrics come from the traced
 * ones, and the tracing overhead is the difference of their fastest-op
 * pass times.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/argparse.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "ledger.hh"
#include "workloads.hh"

using namespace perfbench;
using rtu::csprintf;

namespace {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile, @p q in [0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

struct Pass
{
    bool traced = false;
    double wallS = 0.0;
    std::uint64_t digest = 0;
    PassResult result;  ///< output dropped once digested
    Ledger ledger;
};

/**
 * Host seconds of one pass with every op at its fastest over @p passes
 * (each op runs once per pass), plus the median time the passes spent
 * outside their ops. The machine's other load only ever adds time, and
 * the fastest repeat is what stays put from run to run. The per-op
 * times go to @p best, indexed by op.
 */
double
fastestPassS(const std::vector<const Pass *> &passes, std::size_t ops,
             std::vector<double> &best)
{
    best.assign(ops, std::numeric_limits<double>::infinity());
    std::vector<double> outside;
    for (const Pass *p : passes) {
        double inOps = 0.0;
        for (std::size_t k = 0; k < p->result.opMs.size(); ++k) {
            const std::size_t i = p->result.order[k];
            best[i] = std::min(best[i], p->result.opMs[k]);
            inOps += p->result.opMs[k];
        }
        outside.push_back(p->wallS - inOps / 1e3);
    }
    double s = median(outside);
    for (double ms : best)
        s += ms / 1e3;
    return s;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Span names whose per-pass duration is a per-layer metric. */
const char *const kLayerSpans[] = {
    "kernel.build",  "sim.ctor",         "sim.run",
    "report.write",  "analyze.cfg",      "analyze.ctx",
    "analyze.abi",   "analyze.stack",    "analyze.soundness",
    "absint.engine", "absint.loopbound", "absint.wcsu",
    "wcet.facts",    "wcet.analyze",     "inject.golden",
    "inject.campaign"};

/** Spans with children: their self time is reported too. */
const char *const kParentSpans[] = {"sweep.point", "lint.program",
                                    "wcet.config", "inject.point",
                                    "inject.golden"};

/** Work counts copied from the pass (identical on every pass). */
const char *const kCounts[] = {
    "kernel.images",          "sim.runs",
    "sim.cycles",             "sim.cycles_ticked",
    "sim.cycles_skipped",     "sim.cycles_block_executed",
    "sim.fast_forwards",      "sim.block_runs",
    "sim.stride_skips",       "core.instret",
    "core.fetch_slow_path",   "core.text_invalidations",
    "core.block_invalidations", "core.blocks_executed",
    "core.block_fallbacks",   "trace.episodes",
    "absint.programs",        "absint.converged",
    "analyze.diagnostics",    "wcet.configs",
    "inject.injected_runs",   "inject.outcome.masked",
    "inject.outcome.detected_oracle", "inject.outcome.detected_watchdog",
    "inject.outcome.hang",    "inject.outcome.silent",
    "inject.sim_cycles",      "inject.injected_cycles",
    "inject.cycle_limit_cycles", "inject.post_detect_cycles"};

std::vector<Metric>
layerMetrics(const std::vector<Pass> &passes, std::size_t ops,
             std::vector<std::string> &notes)
{
    std::vector<const Pass *> traced, untraced;
    std::vector<double> untracedShare, spanCount;
    std::map<std::string, std::vector<double>> totalMs, selfMs;
    for (const Pass &p : passes) {
        if (!p.traced) {
            untraced.push_back(&p);
            continue;
        }
        traced.push_back(&p);
        for (const auto &[name, ns] : p.ledger.totalNsByName())
            totalMs[name].push_back(ns / 1e6);
        for (const auto &[name, ns] : p.ledger.selfNsByName())
            selfMs[name].push_back(ns / 1e6);
        untracedShare.push_back(
            ratio(static_cast<double>(p.ledger.untracedOpNs()),
                  static_cast<double>(p.ledger.opSpanNs())));
        spanCount.push_back(static_cast<double>(p.ledger.spans().size()));
    }

    // The largest spans by (median) self time, for the report.
    std::vector<std::pair<double, std::string>> top;
    for (const auto &[name, ms] : selfMs)
        top.emplace_back(median(ms), name);
    std::sort(top.rbegin(), top.rend());
    std::string line = "largest self-time spans per traced pass:";
    for (std::size_t i = 0; i < top.size() && i < 4; ++i)
        line += csprintf(" %s %.1f ms;", top[i].second.c_str(), top[i].first);
    notes.push_back(line);

    std::vector<Metric> m;
    for (const char *n : kLayerSpans)
        m.push_back({std::string(n) + "_ms", median(totalMs[n]), "ms"});
    for (const char *n : kParentSpans)
        m.push_back({std::string(n) + ".self_ms", median(selfMs[n]), "ms"});
    m.push_back({"op.untraced_share", median(untracedShare), "ratio"});
    m.push_back({"trace.spans", median(spanCount), "count"});
    std::vector<double> best;
    m.push_back({"trace.overhead_s",
                 fastestPassS(traced, ops, best) -
                     fastestPassS(untraced, ops, best),
                 "s"});

    // Work counts are identical on every pass.
    std::map<std::string, double> c = traced.back()->result.counts;
    for (const char *n : kCounts)
        m.push_back({n, c[n], "count"});
    m.push_back({"trace.bytes", c["trace.bytes"], "bytes"});

    const double runMs = median(totalMs["sim.run"]);
    const double campaignMs = median(totalMs["inject.campaign"]);
    m.push_back({"sim.skip_ratio",
                 ratio(c["sim.cycles_skipped"], c["sim.cycles"]), "ratio"});
    m.push_back({"sim.host_ns_per_insn",
                 ratio(runMs * 1e6, c["core.instret"]), "ns/insn"});
    m.push_back({"core.block_hit_ratio",
                 ratio(c["core.blocks_executed"],
                       c["core.blocks_executed"] + c["core.block_fallbacks"]),
                 "ratio"});
    m.push_back({"absint.converged_ratio",
                 ratio(c["absint.converged"], c["absint.programs"]),
                 "ratio"});
    m.push_back({"inject.mcycles_per_s",
                 ratio(c["inject.sim_cycles"] / 1e6, campaignMs / 1e3),
                 "Mcycles/s"});
    m.push_back({"inject.cycle_limit_share",
                 ratio(c["inject.cycle_limit_cycles"],
                       c["inject.injected_cycles"]),
                 "ratio"});
    m.push_back({"inject.post_detect_share",
                 ratio(c["inject.post_detect_cycles"],
                       c["inject.injected_cycles"]),
                 "ratio"});
    if (c["inject.injected_cycles"] > 0) {
        notes.push_back(csprintf(
            "inject shares, base %.0f injected cycles: %.0f in runs "
            "ending at the cycle limit, %.0f after the first oracle hit",
            c["inject.injected_cycles"], c["inject.cycle_limit_cycles"],
            c["inject.post_detect_cycles"]));
    }
    notes.push_back(csprintf("%zu traced and %zu untraced passes; "
                             "trace.overhead_s compares their fastest-op "
                             "pass times",
                             traced.size(), untraced.size()));
    return m;
}

void
printJson(bool correct, unsigned long long attempted,
          unsigned long long failed, const std::vector<Metric> &metrics,
          const std::vector<std::string> &notes)
{
    std::string out = csprintf(
        "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
        correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += csprintf("%s\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}",
                        i ? "," : "", metrics[i].name.c_str(),
                        metrics[i].value, metrics[i].unit);
    }
    out += "},\"notes\":[";
    for (std::size_t i = 0; i < notes.size(); ++i)
        out += (i ? ",\"" : "\"") + rtu::jsonEscape(notes[i]) + "\"";
    out += "]}\n";
    std::fputs(out.c_str(), stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point entered = Clock::now();
    std::string workloadName;
    std::uint64_t seed = 1;
    unsigned budgetS = 10;
    unsigned trace = 0;
    std::uint64_t campaignSeed = 1;
    std::uint64_t launchedNs = 0;
    bool setupOnly = false;
    std::string spansOut;
    rtu::ArgParser parser("Repository benchmark: one workload, timed");
    parser.addString("--workload", &workloadName,
                     "fig9_sweep, lint_absint or inject_campaign");
    parser.addU64("--seed", &seed, "op-order seed");
    parser.addUnsigned("--seconds", &budgetS, "measuring time");
    parser.addUnsigned("--trace", &trace, "1: per-layer traced run");
    parser.addU64("--campaign-seed", &campaignSeed,
                  "inject_campaign fault-plan seed");
    parser.addU64("--launched-ns", &launchedNs,
                  "CLOCK_MONOTONIC launch time of this process");
    parser.addFlag("--setup-only", &setupOnly,
                   "print setup_s and exit before the first op");
    parser.addString("--spans-out", &spansOut,
                     "traced run: write the spans here as JSONL");
    parser.parse(argc, argv);
    rtu::setQuiet(true);

    const Clock::time_point launched =
        launchedNs != 0 ? Clock::time_point(std::chrono::nanoseconds(
                              static_cast<std::int64_t>(launchedNs)))
                        : entered;
    const std::unique_ptr<BenchWorkload> workload =
        makeBenchWorkload(workloadName, campaignSeed);
    if (!workload) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     workloadName.c_str());
        return 2;
    }
    // The first pass runs in grid order, as the repository's bench
    // programs do, so its peak memory does not depend on the seed;
    // later passes run in seeded shuffles.
    std::vector<std::size_t> order(workload->ops());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    rtu::SplitMix64 rng(seed);
    const double setupS = seconds(launched, Clock::now());
    if (setupOnly) {
        std::printf("{\"setup_s\":%.10g}\n", setupS);
        return 0;
    }

    // Untraced passes until the budget is spent; in a traced run every
    // second pass is traced.
    std::vector<Pass> passes;
    double peakRssMb = 0.0;
    const Clock::time_point start = Clock::now();
    for (;;) {
        Pass &p = passes.emplace_back();
        p.traced = trace != 0 && passes.size() % 2 == 0;
        p.ledger.setEnabled(p.traced);
        const Clock::time_point t0 = Clock::now();
        p.result = workload->runPass(order, p.ledger);
        p.wallS = seconds(t0, Clock::now());
        // Peak memory of set-up plus one pass: what a single run of the
        // workload needs, independent of how many passes fit the budget.
        if (passes.size() == 1) {
            rusage ru{};
            getrusage(RUSAGE_SELF, &ru);
            peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        }
        p.digest = rtu::fnv1a(p.result.output);
        p.result.output = std::string();
        // Untraced: at least four repeats of every op, so a run that
        // meets a slow spell of the machine keeps as many chances at a
        // quiet repeat as any other.
        const std::size_t minPasses = trace != 0 ? 3 : 4;
        if (passes.size() >= minPasses &&
            seconds(start, Clock::now()) >= budgetS)
            break;
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
    }

    unsigned long long attempted = 0;
    unsigned long long failed = 0;
    std::vector<std::string> notes;
    for (const Pass &p : passes) {
        attempted += p.result.opMs.size();
        failed += p.result.failed;
        for (const std::string &f : p.result.failures) {
            if (notes.size() < 5)
                notes.push_back("FAILED " + f);
        }
    }
    // A digest that moves between passes is one more failed check.
    unsigned long long digestMismatches = 0;
    for (const Pass &p : passes)
        digestMismatches += p.digest != passes.front().digest;
    if (digestMismatches > 0)
        notes.push_back("FAILED output digest differs between passes");
    failed += digestMismatches;
    attempted += digestMismatches;

    notes.push_back(csprintf("digest %016llx (%zu passes, %s)",
                             static_cast<unsigned long long>(
                                 passes.front().digest),
                             passes.size(),
                             digestMismatches ? "NOT all equal"
                                              : "all equal"));
    notes.push_back(csprintf("error_rate %.6g (%llu failed / %llu "
                             "attempted)",
                             ratio(static_cast<double>(failed),
                                   static_cast<double>(attempted)),
                             failed, attempted));

    std::vector<Metric> metrics;
    if (trace == 0) {
        std::vector<const Pass *> all;
        std::vector<double> walls;
        for (const Pass &p : passes) {
            all.push_back(&p);
            walls.push_back(p.wallS);
        }
        std::vector<double> best;
        const double wallS = fastestPassS(all, workload->ops(), best);
        metrics = {
            {"setup_s", setupS, "s"},
            {"wall_s", wallS, "s"},
            {"op_ms_p50", percentile(best, 0.5), "ms"},
            {"op_ms_p90", percentile(best, 0.9), "ms"},
            {"peak_rss_mb", peakRssMb, "MB"},
        };
        notes.push_back(csprintf(
            "%zu passes of %zu ops; op time = fastest of its %zu repeats; "
            "op_ms percentiles over %zu ops; wall_s = sum of op times + "
            "median time outside ops",
            passes.size(), workload->ops(), passes.size(), best.size()));
        notes.push_back(csprintf(
            "pass wall s: median %.4f, first %.4f, min %.4f, max %.4f",
            median(walls), walls.front(),
            *std::min_element(walls.begin(), walls.end()),
            *std::max_element(walls.begin(), walls.end())));
    } else {
        metrics = layerMetrics(passes, workload->ops(), notes);
        if (!spansOut.empty()) {
            std::ofstream os(spansOut);
            int n = 0;
            for (const Pass &p : passes) {
                if (p.traced)
                    p.ledger.writeJsonl(os, n);
                ++n;
            }
            if (!os) {
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             spansOut.c_str());
                return 2;
            }
        }
    }
    printJson(failed == 0, attempted, failed, metrics, notes);
    return 0;
}
