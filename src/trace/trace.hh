/**
 * @file
 * Per-episode switch tracing: structured events that decompose one
 * context-switch episode into the phases the paper's Section 6
 * narrative attributes latency to (CV32RT and CVA6-RT do the same
 * attribution on real RTL):
 *
 *   irq-assert -> trap-taken -> store-done -> sched-done -> load-done
 *              -> mret
 *
 * The recorder (sim/switchrec.hh) collects the timestamps via
 * PhaseObserver hooks in the core and RTOSUnit models and emits one
 * EpisodeTrace per episode to an optional TraceSink. Sinks serialize
 * to JSONL (one object per line, machine-readable) or CSV. Phases a
 * configuration performs in software (e.g. store-done under vanilla)
 * carry the explicit kNoPhase sentinel — never 0, which is a
 * legitimate completion cycle — and serialize as JSON `null` / an
 * empty CSV field: every record always has all six fields.
 */

#ifndef RTU_TRACE_TRACE_HH
#define RTU_TRACE_TRACE_HH

#include <ostream>
#include <string>

#include "common/types.hh"

namespace rtu {

/** The six per-episode phase boundaries, in pipeline order. */
enum class SwitchPhase
{
    kIrqAssert,   ///< interrupt line asserted
    kTrapTaken,   ///< trap entry (handler starts)
    kStoreDone,   ///< hardware context store FSM drained
    kSchedDone,   ///< hardware scheduler pop (GET_HW_SCHED) retired
    kLoadDone,    ///< context restore complete (or omitted/preloaded)
    kMret,        ///< mret completed (latency end point)
};

/**
 * "Phase not reached" timestamp sentinel. An invalid cycle (the
 * simulator would have to run 2^64 - 1 cycles to stamp it) rather
 * than 0, which collides with a phase legitimately completing at
 * cycle 0 (e.g. an interrupt asserted at reset).
 */
constexpr Cycle kNoPhase = ~Cycle{0};

/** Receiver of phase-boundary timestamps (implemented by Simulation,
 *  forwarded into the SwitchRecorder's in-flight episode). */
class PhaseObserver
{
  public:
    virtual ~PhaseObserver() = default;
    virtual void phaseReached(SwitchPhase phase, Cycle cycle) = 0;
};

/** One completed (or preempted) switch episode with its six phase
 *  timestamps. Unreached phases carry kNoPhase. */
struct EpisodeTrace
{
    Word cause = 0;
    Word fromTask = 0;
    Word toTask = 0;
    bool queued = false;
    bool preempted = false;  ///< truncated by a nested/back-to-back trap
    Cycle irqAssert = 0;
    Cycle trapTaken = 0;
    Cycle storeDone = kNoPhase;
    Cycle schedDone = kNoPhase;
    Cycle loadDone = kNoPhase;
    Cycle mret = 0;

    Cycle latency() const { return mret - irqAssert; }
};

/** Labels identifying the run a batch of episodes belongs to. */
struct TraceRunLabel
{
    std::string core;
    std::string config;
    std::string workload;
    std::uint64_t seed = 0;
};

/** Consumer of episode traces. Emission order is simulation order. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    /** A new simulation run starts; subsequent episodes belong to it. */
    virtual void beginRun(const TraceRunLabel &label) = 0;
    virtual void episode(const EpisodeTrace &episode) = 0;
    virtual void endRun() {}
};

/** Version of the JsonlTraceSink line format, stamped into the header
 *  line of bench_fig9_latency's --trace stream. */
constexpr unsigned kTraceSchema = 1;

/**
 * JSON-lines sink: one self-contained object per episode, carrying
 * both the run label and the six phase timestamps. Output is fully
 * deterministic (no wall-clock, no float formatting), so identical
 * runs produce byte-identical streams.
 */
class JsonlTraceSink : public TraceSink
{
  public:
    explicit JsonlTraceSink(std::ostream &os) : os_(os) {}

    void beginRun(const TraceRunLabel &label) override;
    void episode(const EpisodeTrace &e) override;

  private:
    std::ostream &os_;
    std::string head_;  ///< the run's label members, formatted once
    std::string line_;  ///< reused per-episode line buffer
    std::uint64_t index_ = 0;  ///< episode index within the run
};

/** CSV sink: header row + one row per episode. */
class CsvTraceSink : public TraceSink
{
  public:
    explicit CsvTraceSink(std::ostream &os) : os_(os) {}

    void beginRun(const TraceRunLabel &label) override;
    void episode(const EpisodeTrace &e) override;

  private:
    std::ostream &os_;
    TraceRunLabel label_;
    std::uint64_t index_ = 0;
    bool headerWritten_ = false;
};

} // namespace rtu

#endif // RTU_TRACE_TRACE_HH
