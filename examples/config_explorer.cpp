/**
 * Configuration-selection helper — the paper's Section 6.4 as a tool,
 * now built on the co-exploration engine (src/explore): for a chosen
 * core, evaluate every RTOSUnit configuration end to end (simulated
 * latency/jitter + WCET where available, joined with the 22 nm
 * area/f_max/power models), print the design space with its Pareto
 * frontier, then answer the paper's three design questions as
 * constrained queries over the same DesignEval set.
 *
 * Usage: config_explorer [cv32e40p|cva6|nax]
 */

#include <cstdio>
#include <sstream>

#include "common/logging.hh"
#include "explore/explorer.hh"

using namespace rtu;

int
main(int argc, char **argv)
{
    setQuiet(true);
    const CoreKind core =
        argc > 1 ? coreKindFromName(argv[1]) : CoreKind::kCv32e40p;

    ExploreSpec spec;
    spec.cores = {core};
    spec.units = RtosUnitConfig::latencyConfigs();
    spec.iterations = 10;
    spec.threads = 4;

    Explorer explorer(spec);
    const std::vector<DesignEval> evals = explorer.evaluate();

    std::printf("RTOSUnit design-space exploration on %s "
                "(latency from the workload suite, implementation "
                "numbers from the 22 nm models)\n\n",
                coreKindName(core));
    std::printf("%-9s %9s %8s %9s %8s %9s %8s\n", "config", "mean[cy]",
                "jitter", "area", "fmax", "power", "wcet");
    for (const DesignEval &e : evals) {
        if (!e.ok) {
            std::printf("%-9s   RUN FAILED\n", e.id.unit.name().c_str());
            continue;
        }
        char wcet[32];
        if (e.hasWcet)
            std::snprintf(wcet, sizeof(wcet), "%.0fcy", e.wcetCycles);
        else
            std::snprintf(wcet, sizeof(wcet), "-");
        std::printf("%-9s %9.1f %8.0f %8.2fx %5.2fGHz %7.2fmW %8s\n",
                    e.id.unit.name().c_str(), e.latMean, e.latJitter,
                    e.areaNorm, e.fmaxGHz, e.powerMw, wcet);
    }

    const std::vector<Objective> objs = {Objective::kLatMean,
                                         Objective::kLatJitter,
                                         Objective::kArea};
    std::printf("\nPareto frontier over {lat_mean, jitter, area}:\n\n");
    std::ostringstream md;
    writeFrontierMarkdown(md, evals, objs);
    std::fputs(md.str().c_str(), stdout);

    // The paper's Section 6.4 design questions, as constrained
    // queries. "vanilla is not a recommendation" falls out naturally:
    // it never minimizes latency or jitter.
    struct Query
    {
        const char *label;
        Objective minimize;
        std::vector<Constraint> constraints;
    };
    const std::vector<Query> queries = {
        {"hard real-time (min jitter, area <= +35 %)",
         Objective::kLatJitter, {parseConstraint("area<=1.35")}},
        {"lowest mean switch latency (unconstrained)",
         Objective::kLatMean, {}},
        {"area-constrained (min mean, area <= +5 %)",
         Objective::kLatMean, {parseConstraint("area<=1.05")}},
    };
    std::printf("\nRecommendations (constrained queries):\n");
    for (const Query &q : queries) {
        const size_t best = selectBest(evals, q.minimize, q.constraints);
        if (best == SIZE_MAX) {
            std::printf("  %-44s -> infeasible\n", q.label);
            continue;
        }
        const DesignEval &e = evals[best];
        std::printf("  %-44s -> %-6s (lat %.1f cy, jitter %.0f, "
                    "area %.2fx)\n",
                    q.label, e.id.unit.name().c_str(), e.latMean,
                    e.latJitter, e.areaNorm);
    }
    std::printf("\n(paper Section 6.4: SLT as the all-rounder, SPLIT "
                "for mean latency, T for area-constrained designs)\n");
    return 0;
}
