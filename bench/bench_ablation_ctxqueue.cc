/**
 * Ablation: NaxRiscv LSU ctxQueue depth (paper Section 5.3: "we
 * evaluated different queue sizes and identified eight entries as a
 * Pareto-optimal solution. Further reducing the queue size would
 * negatively impact context-switch latency, while larger sizes offer
 * no performance gain").
 *
 * Sweeps the depth 1..16 on the (SLT) configuration through the
 * SweepRunner and reports mean switch latency over the workload suite
 * — the knee at eight entries should reproduce.
 *
 * Usage: bench_ablation_ctxqueue [--threads N] [--out results.jsonl]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "sweep/sweep.hh"
#include "workloads/workloads.hh"

using namespace rtu;

int
main(int argc, char **argv)
{
    unsigned threads = 1;
    std::string out_path;
    ArgParser parser("Ablation: NaxRiscv LSU ctxQueue depth vs switch "
                     "latency");
    parser.addUnsigned("--threads", &threads, "worker threads");
    parser.addString("--out", &out_path, "JSONL output path");
    parser.parse(argc, argv);
    setQuiet(true);

    SweepSpec spec;
    spec.cores = {CoreKind::kNax};
    spec.units = {RtosUnitConfig::fromName("SLT")};
    spec.workloads = standardWorkloadNames();
    spec.ctxQueueDepths = {1, 2, 4, 6, 8, 12, 16};
    spec.iterations = 10;

    SweepRunner runner(threads);
    const auto results = runner.run(spec);

    std::printf("Ablation: ctxQueue depth on NaxRiscv (SLT), mean "
                "context-switch latency (%u threads)\n\n", threads);
    std::printf("%7s %10s\n", "entries", "mean[cy]");
    double at8 = 0;
    for (unsigned depth : spec.ctxQueueDepths) {
        const SampleStats merged = mergeSweepLatencies(
            results, [&](const SweepResult &r) {
                return r.point.naxCtxQueueEntries == depth && r.run.ok;
            });
        const double m = merged.empty() ? 0.0 : merged.mean();
        if (depth == 8)
            at8 = m;
        std::printf("%7u %10.1f\n", depth, m);
    }
    std::printf("\npaper: eight entries Pareto-optimal — shallower "
                "queues hurt latency, deeper ones gain nothing "
                "(measured knee at 8: %.1f cycles)\n", at8);

    if (!out_path.empty()) {
        std::ofstream os = openFlagFile(out_path, "--out");
        writeResultsHeaderJsonl(os, "ablation_ctxqueue");
        writeResultsJsonl(os, results);
        std::printf("results: %s (%zu points)\n", out_path.c_str(),
                    results.size());
    }
    return 0;
}
