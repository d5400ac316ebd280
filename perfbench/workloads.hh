/**
 * @file
 * The benchmark's workloads. Each is a fixed list of ops (one grid
 * point, one linted program, one campaign point); a pass runs every op
 * once in a seeded order, checks each op's outputs, and serializes the
 * deterministic output in grid order so its digest is independent of
 * the order.
 *
 * Untraced passes call the public entry points users run
 * (runSweepPoint, lintProgram, runCampaign). Traced passes run the same
 * work through the layer functions those entry points call, with a
 * span around each call; equal digests across the two kinds of pass
 * show the decomposition computes the same outputs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "ledger.hh"
#include "sweep/sweep.hh"

namespace perfbench {

/** What one pass over a workload's ops produced. */
struct PassResult
{
    std::vector<double> opMs;  ///< host ms per op, in run order
    std::vector<std::size_t> order;  ///< op ids, in run order
    unsigned failed = 0;       ///< ops whose checks failed
    std::vector<std::string> failures;  ///< check messages
    std::string output;  ///< deterministic output, grid order
    std::map<std::string, double> counts;  ///< per-layer work counts
};

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    virtual std::size_t ops() const = 0;

    /** Run every op once in @p order, recording spans in @p ledger
     *  when it is enabled. */
    PassResult runPass(const std::vector<std::size_t> &order,
                       Ledger &ledger);

  protected:
    /** Run op @p i; return "" when its checks pass, else why not. */
    virtual std::string runOp(std::size_t i, Ledger &ledger,
                              PassResult &pass) = 0;
    /** Serialize the pass's output after its last op. */
    virtual void finishPass(Ledger &ledger, PassResult &pass) = 0;
};

/** nullptr for an unknown name. @p campaign_seed feeds the fault
 *  plans of inject_campaign and is ignored by the others. */
std::unique_ptr<BenchWorkload>
makeBenchWorkload(const std::string &name, std::uint64_t campaign_seed);

/** The configurations of the CI lint matrix: the paper's twelve plus
 *  the three +HS points, in forEachGeneratedProgram() order. */
std::vector<rtu::RtosUnitConfig> lintUnits();

/** One lint_absint program, built exactly as forEachGeneratedProgram()
 *  builds it; the kernel.build span covers KernelBuilder::build. */
rtu::Program buildLintProgram(Ledger &ledger,
                              const rtu::RtosUnitConfig &unit,
                              const rtu::Workload &workload);

/** The inject_campaign grid (before the fault fan-out). */
rtu::SweepSpec injectGrid();

/** Closure check: cycles == ticked + skipped + block-executed. */
bool countersClose(const rtu::RunResult &run);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
