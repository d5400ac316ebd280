/**
 * @file
 * Fault-injection campaign engine: for every sweep point, run one
 * golden (fault-free) reference with the oracles attached, then one
 * run per planned fault, and classify each outcome (faults with the
 * same effect on a point share one simulation; see runCampaign()):
 *
 *   masked             fault fired (or never triggered) and the run
 *                      matched the golden exit code + checksum stream
 *   detected-oracle    a kernel-invariant oracle fired (the run
 *                      stops there; see FaultRunRecord)
 *   detected-watchdog  the no-retire watchdog aborted the run, or
 *                      the guest faulted
 *   hang               the run reached its cycle budget, one
 *                      watchdog window past the golden run's end,
 *                      still retiring (e.g. a livelocked scheduler)
 *   silent-corruption  the run exited "cleanly" with a wrong exit
 *                      code or checksum stream — the dangerous class
 *
 * Campaigns reuse the sweep's determinism contract: outcomes land in
 * pre-sized index-addressed slots via SweepRunner::forEachIndex, so
 * identical (--seed, grid) produce byte-identical JSONL at any
 * --threads. Detection coverage (detected / non-masked) feeds the
 * explorer's robustness objective.
 */

#ifndef RTU_INJECT_CAMPAIGN_HH
#define RTU_INJECT_CAMPAIGN_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "fault.hh"
#include "sweep/sweep.hh"

namespace rtu {

enum class FaultOutcome
{
    kMasked,
    kDetectedOracle,
    kDetectedWatchdog,
    kSilentCorruption,
    kHang,
};

constexpr unsigned kNumFaultOutcomes = 5;

const char *faultOutcomeName(FaultOutcome outcome);

struct CampaignSpec
{
    /** Base grid; faults fan out per point. Points must be seeded
     *  (SweepSpec::points() or reseed()). */
    std::vector<SweepPoint> points;
    unsigned faultsPerPoint = 8;
    /** Campaign seed: the only input of the fault plans. */
    std::uint64_t seed = 1;
    /** Simulation engine. Classification must be invariant under
     *  this knob — ctest runs the selftest at kFull and kNoBlock. */
    EngineMode engine = EngineMode::kFull;
};

/**
 * The workload-semantic guest events of one run as a sorted multiset
 * of (tag, value) pairs: work items, mutex/semaphore operations and
 * checksums — but not the scheduling trace (task dispatches, ISR
 * entries), whose counts legitimately vary under benign timing
 * perturbation. Two runs with equal exit codes and equal semantic
 * multisets computed the same results.
 */
using SemanticEvents = std::vector<std::pair<Word, Word>>;

/** Golden reference of one point (fault-free, oracles attached). */
struct GoldenRecord
{
    SweepPoint point;
    RunResult run;
    SemanticEvents events;
    unsigned episodes = 0;
    /** Oracle firings on the clean run: any nonzero value is an
     *  oracle soundness bug (CI asserts zero). */
    unsigned oracleHits = 0;
    std::string oracleDetail;
};

/**
 * One injected run, classified against its point's golden. An injected
 * run ends at the first trap/mret boundary an oracle fires at, since
 * its outcome (detected-oracle) is decided then. Such a run's `status`
 * is kStopped, its `cycles` the stop cycle, one past `oracleCycle`,
 * and its `oracleHits` counts the hits up to the stop plus those of
 * the end-of-run sweep. A hit that only the end-of-run sweep finds
 * leaves the run's own status, with `oracleCycle` == `cycles`. The
 * first-hit fields equal those of a run left to its end.
 *
 * Every injected run has a cycle budget, min(the workload's maxCycles,
 * golden cycles + the default watchdog window). A run still retiring
 * at its budget is a `hang` with status kCycleLimit, and its `cycles`
 * is that budget. A run that stops retiring before the golden's end is
 * caught by the watchdog before the budget, as without one.
 */
struct FaultRunRecord
{
    std::size_t pointIndex = 0;
    FaultSpec fault;
    /** False when the trigger episode was never reached. */
    bool fired = false;
    FaultOutcome outcome = FaultOutcome::kMasked;
    unsigned oracleHits = 0;
    /** The first hit: oracle, cycle, mret ordinal and detail text. */
    std::string oracleName;
    Cycle oracleCycle = 0;
    unsigned oracleEpisode = 0;
    std::string oracleDetail;
    RunStatus status = RunStatus::kExited;
    /** RunResult::diagnostic: what a guest fault was (illegal
     *  instruction, device access, wild fetch, unit id check) or where
     *  the watchdog found the guest hung; empty otherwise. */
    std::string statusDetail;
    Word exitCode = 0;
    Cycle cycles = 0;
};

struct CampaignResult
{
    std::vector<GoldenRecord> goldens;  ///< one per spec point
    std::vector<FaultRunRecord> faults; ///< point-major plan order

    unsigned countOf(FaultOutcome outcome) const;
    /** Total clean-run oracle firings (soundness: must be zero). */
    unsigned cleanOracleHits() const;
    /**
     * detected / (injected - masked); 1.0 when every fault was
     * masked (nothing escaped because nothing took effect).
     */
    double detectionCoverage() const;
};

/**
 * Run @p spec's goldens, then its fault plans. Each point's kernel
 * image is built once. Planned faults with the same effect on a point
 * (the same set of IRQ raise cycles, or the same kind and injector
 * inputs) are one experiment: the first in plan order is simulated
 * and the others copy its run-derived fields, so the records equal
 * one simulation per fault at any thread count.
 */
CampaignResult runCampaign(const CampaignSpec &spec,
                           const SweepRunner &runner);

/**
 * Pure outcome classifier (exposed for direct testing). Precedence:
 * oracle > watchdog > hang > golden comparison.
 */
FaultOutcome classifyOutcome(unsigned oracle_hits, RunStatus status,
                             Word exit_code,
                             const SemanticEvents &events,
                             const GoldenRecord &golden);

/**
 * Run one hand-picked fault against @p point: golden run, injected
 * run, classification — the seeded-defect fixture path (tests,
 * bench_inject --selftest). @p golden_out optionally receives the
 * golden record (clean-run oracle soundness checks); both runs use
 * @p engine.
 */
FaultRunRecord runSingleFault(const SweepPoint &point,
                              const FaultSpec &fault,
                              GoldenRecord *golden_out = nullptr,
                              EngineMode engine = EngineMode::kFull);

/** Version of the writeCampaignJsonl line format, stamped into the
 *  header line bench_inject writes ahead of it. 2: decided runs stop
 *  at their first oracle hit (see FaultRunRecord), and each line
 *  carries `status_detail`. 3: a `hang` record's `cycles` is its run's
 *  budget, golden cycles + the watchdog window, not the workload's
 *  cycle limit. */
constexpr unsigned kCampaignSchema = 3;

/** One byte-stable JSONL line per injected run. */
void writeCampaignJsonl(std::ostream &os, const CampaignSpec &spec,
                        const CampaignResult &result);

} // namespace rtu

#endif // RTU_INJECT_CAMPAIGN_HH
