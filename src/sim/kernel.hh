/**
 * @file
 * The discrete-event simulation kernel.
 *
 * Clocked components register with a SimKernel; each reports, via
 * nextEventAt(), the earliest cycle at which it may change observable
 * state (interact with another component, raise an interrupt line,
 * fire a listener, sample an external input). On cycles where every
 * component's next event lies in the future the kernel fast-forwards
 * `now_` to the global minimum in one step instead of ticking
 * cycle-by-cycle; each component's skipTo() replicates exactly the
 * bulk per-cycle effects (counter increments, mtime advance, ROB
 * retirement) that the skipped reference ticks would have performed,
 * so a fast-forwarded run is byte-identical to the per-cycle one.
 *
 * A second protocol covers a *single* active component (the core
 * running guest code while every device waits): blockRun() lets it
 * execute itself forward up to the earliest foreign event, after which
 * the kernel skipTo()s the others over the consumed range. Execution
 * is exact instruction by instruction, so interrupt arrival phase —
 * and therefore latency and jitter — is preserved bit-exactly.
 */

#ifndef RTU_SIM_KERNEL_HH
#define RTU_SIM_KERNEL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace rtu {

/** Sentinel for "no future event": the component is fully quiescent
 *  until some other component acts on it. */
constexpr Cycle kNoEvent = ~Cycle{0};

/**
 * A clocked component. The contract:
 *  - tick(now) advances one cycle (legacy per-cycle semantics);
 *  - nextEventAt(now) returns the earliest cycle >= now at which the
 *    component may change observable state. Returning `now` ("always
 *    active") is always safe; kNoEvent means quiescent forever.
 *    Every tick in [now, nextEventAt(now)) must be *pure*: free of
 *    interaction with other components and exactly replicated by
 *    skipTo();
 *  - skipTo(now, target) applies the bulk effect of the pure ticks in
 *    [now, target), target <= the cycle reported by nextEventAt(now).
 */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Advance one clock cycle. */
    virtual void tick(Cycle now) = 0;

    /** Earliest cycle >= @p now at which observable state may change.
     *  No default: returning `now` would veto every skip the component
     *  takes part in, so each component states its own horizon. */
    virtual Cycle nextEventAt(Cycle now) const = 0;

    /** Replicate the pure ticks in [@p now, @p target). */
    virtual void
    skipTo(Cycle now, Cycle target)
    {
        (void)now;
        (void)target;
    }

    /**
     * Superblock execution: when this is the only active component and
     * every foreign event lies at or beyond @p bound, execute forward
     * from @p now and return the number of cycles consumed (0 = no
     * block path available; fall back to per-cycle ticking). The
     * consumed cycles must not exceed @p bound - @p now, and the
     * component must end in exactly the state the per-cycle path would
     * reach at now + consumed — the other components are then advanced
     * with skipTo(), which their nextEventAt() >= bound guarantees is
     * pure over the consumed range.
     */
    virtual Cycle
    blockRun(Cycle now, Cycle bound)
    {
        (void)now;
        (void)bound;
        return 0;
    }
};

/** Throughput accounting (all fields deterministic). */
struct SimKernelStats
{
    std::uint64_t cyclesTicked = 0;    ///< cycles executed per-cycle
    std::uint64_t cyclesSkipped = 0;   ///< cycles fast-forwarded
    std::uint64_t fastForwards = 0;    ///< quiescent-gap skips
    std::uint64_t strideSkips = 0;     ///< always 0; perfbench still reads it
    std::uint64_t blockRuns = 0;       ///< successful blockRun() calls
    /** Cycles consumed inside blockRun() — these are executed, not
     *  skipped: ticked + skipped + blockExecuted is mode-invariant. */
    std::uint64_t cyclesBlockExecuted = 0;
};

class SimKernel
{
  public:
    /** Register a component. Ticks run in registration order — the
     *  order therefore defines intra-cycle sequencing, exactly like
     *  the statement order of a hand-written tick loop. */
    void add(Clocked *component);

    Cycle now() const { return now_; }

    /** Stable address of the cycle counter (for mcycle, tracing). */
    const Cycle *clockPtr() const { return &now_; }

    /**
     * Earliest cycle in [now, limit] at which any component may
     * change state: the min-reduction over nextEventAt(), clamped to
     * @p limit. Registration order cannot affect the result.
     */
    Cycle nextEventCycle(Cycle limit) const;

    /**
     * Attempt one fast-forward bounded by @p limit: if no component
     * is active now, skip to the earliest future event; if exactly one
     * is, let it blockRun() up to that event.
     * @return true if `now` advanced (no per-cycle ticks were run).
     *
     * Failed attempts back off exponentially (up to 32 cycles): the
     * min-reduction itself costs a virtual call per component per
     * cycle, which on busy stretches outweighs what skipping buys.
     * Deferring an attempt only means those cycles are ticked instead
     * of skipped — results stay byte-identical by the Clocked
     * contract; only the ticked/skipped split in the stats moves.
     */
    bool fastForward(Cycle limit);

    /** Tick every component at `now` (registration order), then
     *  advance one cycle. */
    void tickOne();

    const SimKernelStats &stats() const { return stats_; }

  private:
    std::vector<Clocked *> components_;
    Cycle now_ = 0;
    /** Next cycle worth probing for a skip, and the current penalty. */
    Cycle nextAttempt_ = 0;
    Cycle backoff_ = 1;
    SimKernelStats stats_;
};

} // namespace rtu

#endif // RTU_SIM_KERNEL_HH
