/**
 * Figure 9 reproduction: context-switch latency (mean and jitter) for
 * every core x RTOSUnit configuration over the RTOSBench-like suite,
 * 20 iterations per test, 8-entry hardware lists, single-cycle SRAM.
 *
 * Prints one block per core with one row per configuration:
 * min / mean / max / jitter in cycles, plus the reduction of the mean
 * versus (vanilla) — the quantity the paper's headline claims use.
 *
 * The whole grid runs through the SweepRunner: --threads N shards the
 * independent simulations across a thread pool with identical results
 * at any N (each point is an exact, isolated simulation; results are
 * collected in grid order). --out/--trace emit machine-readable JSONL:
 * one result line per grid point, and one line per recorded switch
 * carrying all six phase timestamps (irq-assert, trap-taken,
 * store-done, sched-done, load-done, mret).
 *
 * Usage: bench_fig9_latency [--iterations N] [--per-workload]
 *                           [--threads N] [--out results.jsonl]
 *                           [--trace trace.jsonl]
 *                           [--engine full|no-block|no-predecode|reference]
 *                           [--timing]
 *
 * --engine picks the simulation-engine mode (see EngineMode): the
 * default full engine, superblock execution off (no-block), the
 * decode-once text image off (no-predecode), or the per-cycle
 * reference kernel — all byte-identical results, the last three just
 * slower. --timing adds the nondeterministic wall_ms/mips fields to
 * --out lines. The --out stream starts with a schema-stamped header
 * line.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/argparse.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sweep/sweep.hh"
#include "workloads/workloads.hh"

using namespace rtu;

int
main(int argc, char **argv)
{
    unsigned iterations = 20;
    unsigned threads = 1;
    bool per_workload = false;
    std::string engine_name = "full";
    bool include_timing = false;
    std::string out_path;
    std::string trace_path;
    ArgParser parser("Figure 9: context-switch latency per core and "
                     "RTOSUnit configuration");
    parser.addUnsigned("--iterations", &iterations,
                       "workload iterations per run");
    parser.addUnsigned("--threads", &threads, "worker threads");
    parser.addString("--out", &out_path, "JSONL output path");
    parser.addString("--trace", &trace_path,
                     "per-switch trace JSONL path");
    parser.addFlag("--per-workload", &per_workload,
                   "print one table per workload");
    parser.addString("--engine", &engine_name,
                     "full, no-block, no-predecode or reference");
    parser.addFlag("--timing", &include_timing,
                   "include wall-clock timing in the output");
    parser.parse(argc, argv);
    const EngineMode engine = engineModeFromName(engine_name);
    setQuiet(true);

    SweepSpec spec;
    spec.cores = {CoreKind::kCv32e40p, CoreKind::kCva6, CoreKind::kNax};
    spec.units = RtosUnitConfig::latencyConfigs();
    spec.workloads = standardWorkloadNames();
    spec.iterations = iterations;

    const bool capture_trace = !trace_path.empty();
    SweepRunner runner(threads);
    // Every engine gives identical results by construction (see
    // tests/test_differential.cc); the knob exists to prove exactly
    // that and to debug the kernel.
    runner.setEngine(engine);
    const auto results = runner.run(spec, capture_trace);

    std::printf("Figure 9: context-switch latencies (cycles), "
                "RTOSBench-like suite x %u iterations (%u threads)\n",
                iterations, runner.threads());

    for (CoreKind core : spec.cores) {
        std::printf("\n=== %s ===\n", coreKindName(core));
        std::printf("%-9s %7s %8s %8s %8s %9s %9s\n", "config", "min",
                    "mean", "max", "jitter", "dMean%", "switches");

        double vanilla_mean = 0.0;
        for (const RtosUnitConfig &cfg : spec.units) {
            bool all_ok = true;
            std::vector<const SweepResult *> rows;
            for (const SweepResult &r : results) {
                if (r.point.core == core && r.point.unit == cfg) {
                    all_ok = all_ok && r.run.ok;
                    rows.push_back(&r);
                }
            }
            const SampleStats s = mergeSweepLatencies(
                results, [&](const SweepResult &r) {
                    return r.point.core == core && r.point.unit == cfg;
                });
            if (s.empty() || !all_ok) {
                std::printf("%-9s   RUN FAILED\n", cfg.name().c_str());
                continue;
            }
            if (cfg.isVanilla())
                vanilla_mean = s.mean();
            const double dmean =
                vanilla_mean > 0
                    ? 100.0 * (1.0 - s.mean() / vanilla_mean)
                    : 0.0;
            std::printf("%-9s %7.0f %8.1f %8.0f %8.0f %8.1f%% %9llu\n",
                        cfg.name().c_str(), s.min(), s.mean(), s.max(),
                        s.jitter(), dmean,
                        static_cast<unsigned long long>(s.count()));

            if (per_workload) {
                for (const SweepResult *r : rows) {
                    if (r->run.switchLatency.empty())
                        continue;
                    const SampleStats &w = r->run.switchLatency;
                    std::printf("    %-20s %6.0f %8.1f %8.0f %8.0f\n",
                                r->point.workload.c_str(), w.min(),
                                w.mean(), w.max(), w.jitter());
                }
            }
        }
    }

    if (!out_path.empty()) {
        std::ofstream os = openFlagFile(out_path, "--out");
        writeResultsHeaderJsonl(os, "fig9_latency");
        writeResultsJsonl(os, results, include_timing);
        std::printf("\nresults: %s (%zu points)\n", out_path.c_str(),
                    results.size());
    }
    if (capture_trace) {
        std::ofstream os = openFlagFile(trace_path, "--trace");
        writeSchemaHeader(os, "fig9_trace", kTraceSchema);
        writeTraceJsonl(os, results);
        std::printf("trace:   %s\n", trace_path.c_str());
    }
    return 0;
}
