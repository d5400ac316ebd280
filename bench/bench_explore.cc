/**
 * Co-exploration driver — the paper's titular contribution as a
 * command-line query tool. Evaluates a {core} x {config} design grid
 * end-to-end (simulated latency/jitter + static WCET joined with the
 * analytical 22 nm area/f_max/power models), prints the Pareto
 * frontier over the chosen objectives as a markdown table, and
 * answers constrained queries ("minimize mean latency subject to
 * area <= +35 %") the way the paper's Section 6.4 picks per-core
 * recommendations.
 *
 * An analytical prefilter prunes points violating area/f_max bounds
 * before simulation; a persistent result cache (--cache-dir) makes
 * repeat explorations only simulate never-seen points.
 *
 * Usage: bench_explore [--cores cv32e40p,cva6,nax]
 *                      [--configs vanilla,S,SLT,...]
 *                      [--workloads w1,w2,...] [--iterations N]
 *                      [--objectives lat_mean,jitter,area]
 *                      [--constraint area<=1.35]... [--minimize OBJ]
 *                      [--cache-dir DIR] [--threads N]
 *                      [--robust-faults N] [--robust-seed S]
 *                      [--sched-tasksets N] [--sched-seed S]
 *                      [--out explore.json] [--md frontier.md]
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "explore/explorer.hh"
#include "workloads/workloads.hh"

using namespace rtu;

int
main(int argc, char **argv)
{
    setQuiet(true);

    ExploreSpec spec;
    spec.cores = {CoreKind::kCv32e40p, CoreKind::kCva6, CoreKind::kNax};
    spec.units = RtosUnitConfig::latencyConfigs();

    std::vector<Objective> objectives = {Objective::kLatMean,
                                         Objective::kLatJitter,
                                         Objective::kArea};
    bool haveMinimize = false;
    Objective minimize = Objective::kLatMean;
    std::string out_path, md_path;

    std::string cores_arg, configs_arg, workloads_arg, objectives_arg;
    std::string minimize_arg;
    std::vector<std::string> constraint_args;
    bool no_wcet = false;

    ArgParser parser("Co-exploration over the {core} x {config} design "
                     "grid with Pareto frontiers and constrained "
                     "queries");
    parser.addString("--cores", &cores_arg,
                     "comma list: cv32e40p,cva6,nax (default all)");
    parser.addString("--configs", &configs_arg,
                     "comma list of RTOSUnit configurations");
    parser.addString("--workloads", &workloads_arg,
                     "comma list (default: standard suite)");
    parser.addUnsigned("--iterations", &spec.iterations,
                       "workload iterations per run");
    parser.addUnsigned("--threads", &spec.threads, "worker threads");
    parser.addString("--objectives", &objectives_arg,
                     "comma list (default lat_mean,jitter,area)");
    parser.addStringList("--constraint", &constraint_args,
                         "feasibility bound, e.g. area<=1.35 "
                         "(repeatable)");
    parser.addString("--minimize", &minimize_arg,
                     "objective of the constrained query");
    parser.addString("--cache-dir", &spec.cacheDir,
                     "persistent result cache directory");
    parser.addUnsigned("--robust-faults", &spec.robustnessFaults,
                       "fault-injection runs per design point; adds "
                       "the detect objective");
    parser.addU64("--robust-seed", &spec.robustnessSeed,
                  "campaign seed of the robustness objective");
    parser.addUnsigned("--sched-tasksets", &spec.schedTasksets,
                       "RTA taskset shapes per design point; adds "
                       "the sched-util objective");
    parser.addU64("--sched-seed", &spec.schedSeed,
                  "seed of the sched-util taskset shapes");
    parser.addString("--out", &out_path, "JSON report path");
    parser.addString("--md", &md_path, "markdown frontier table path");
    parser.addFlag("--no-wcet", &no_wcet,
                   "skip the static WCET objective");
    parser.parse(argc, argv);

    parseGridFlag(cores_arg, &spec.cores);
    parseGridFlag(configs_arg, &spec.units);
    parseGridFlag(workloads_arg, &spec.workloads);
    if (!objectives_arg.empty()) {
        objectives.clear();
        for (const std::string &n : splitList(objectives_arg))
            objectives.push_back(objectiveFromName(n));
    }
    for (const std::string &c : constraint_args)
        spec.constraints.push_back(parseConstraint(c));
    if (!minimize_arg.empty()) {
        minimize = objectiveFromName(minimize_arg);
        haveMinimize = true;
    }
    spec.computeWcet = !no_wcet;
    if (objectives.empty())
        fatal("--objectives must name at least one objective");
    // Constraints imply a query; default to the paper's primary
    // objective when --minimize is not spelled out.
    if (!spec.constraints.empty())
        haveMinimize = true;

    Explorer explorer(spec);
    const std::vector<DesignEval> evals = explorer.evaluate();
    const ExploreStats &stats = explorer.stats();

    std::printf("Co-exploration: %zu design points (%zu pruned "
                "analytically), %zu sweep points — %zu cache hits, "
                "simulated %zu\n",
                stats.designPoints, stats.prefiltered,
                stats.sweepPoints, stats.cacheHits, stats.simulated);
    // Failed runs carry a structured status (cycle-limit vs the
    // no-retire watchdog) instead of silently scoring as !ok.
    for (const std::string &f : stats.failures)
        std::printf("FAILED %s\n", f.c_str());
    if (!spec.cacheDir.empty())
        std::printf("cache: %s (%zu entries)\n",
                    explorer.cache().filePath().c_str(),
                    explorer.cache().size());

    std::printf("\nPareto frontier over {");
    for (size_t i = 0; i < objectives.size(); ++i)
        std::printf("%s%s", i ? ", " : "",
                    objectiveName(objectives[i]));
    std::printf("}:\n\n");

    std::ostringstream md;
    writeFrontierMarkdown(md, evals, objectives);
    std::fputs(md.str().c_str(), stdout);

    size_t best = SIZE_MAX;
    if (haveMinimize) {
        best = selectBest(evals, minimize, spec.constraints);
        std::printf("\nquery: %s %s", objectiveMaximized(minimize)
                        ? "maximize" : "minimize",
                    objectiveName(minimize));
        for (const Constraint &c : spec.constraints)
            std::printf("  s.t. %s", c.str().c_str());
        if (best == SIZE_MAX) {
            std::printf("\n  -> no feasible design point\n");
        } else {
            const DesignEval &e = evals[best];
            std::printf("\n  -> %s (%s): lat %.1f cy, jitter %.0f, "
                        "area %.3fx, fmax %.2f GHz, power %.2f mW\n",
                        e.id.unit.name().c_str(),
                        coreKindName(e.id.core), e.latMean, e.latJitter,
                        e.areaNorm, e.fmaxGHz, e.powerMw);
        }
        // Per-core recommendations, the way the paper's Section 6
        // discussion picks one configuration per core.
        std::printf("\nper-core best under the same query:\n");
        for (CoreKind core : spec.cores) {
            std::vector<DesignEval> coreEvals;
            for (const DesignEval &e : evals) {
                if (e.id.core == core)
                    coreEvals.push_back(e);
            }
            const size_t coreBest =
                selectBest(coreEvals, minimize, spec.constraints);
            std::printf("  %-9s -> %s\n", coreKindName(core),
                        coreBest == SIZE_MAX
                            ? "infeasible"
                            : coreEvals[coreBest].id.unit.name().c_str());
        }
    }

    if (!out_path.empty()) {
        std::ofstream os = openFlagFile(out_path, "--out");
        writeExploreJson(os, spec, evals, objectives, stats, best);
        std::printf("\njson: %s\n", out_path.c_str());
    }
    if (!md_path.empty()) {
        std::ofstream os = openFlagFile(md_path, "--md");
        os << md.str();
        std::printf("markdown: %s\n", md_path.c_str());
    }
    return 0;
}
