/**
 * @file
 * Context-switch latency recorder.
 *
 * Latency is measured exactly as the paper does (Section 6.1): from
 * the cycle the interrupt is triggered to the cycle the `mret`
 * instruction completes. Jitter is max - min over observed switches.
 *
 * Episodes whose interrupt was asserted while a previous ISR was
 * still executing ("queued") measure queueing delay on top of the
 * switching mechanism; they are excluded from latency statistics by
 * default (the paper's per-switch metric), but remain available.
 *
 * An episode cut short by a nested or back-to-back trap (a new trap
 * taken before the episode's `mret`) is recorded truncated with the
 * `preempted` flag set rather than silently dropped; preempted
 * episodes never enter latency statistics because they have no mret
 * end point.
 *
 * Each episode additionally carries the intermediate phase timestamps
 * (store-done, sched-done, load-done) delivered through notePhase()
 * by the hardware-unit hooks, and completed episodes are streamed to
 * an optional TraceSink for JSONL/CSV export.
 */

#ifndef RTU_SIM_SWITCHREC_HH
#define RTU_SIM_SWITCHREC_HH

#include <deque>

#include "common/stats.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace rtu {

struct SwitchRecord
{
    Word cause = 0;          ///< mcause of the triggering interrupt
    Cycle assertCycle = 0;   ///< interrupt line asserted
    Cycle entryCycle = 0;    ///< trap taken (handler starts)
    /// Hardware store FSM drained; kNoPhase when the phase never ran
    /// (0 is a legitimate completion cycle and must stay usable).
    Cycle storeDoneCycle = kNoPhase;
    Cycle schedDoneCycle = kNoPhase; ///< GET_HW_SCHED retired (or kNoPhase)
    Cycle loadDoneCycle = kNoPhase;  ///< restore complete (or kNoPhase)
    Cycle mretCycle = 0;     ///< mret completed
    Word fromTask = 0;
    Word toTask = 0;
    bool queued = false;     ///< asserted during a previous episode
    bool preempted = false;  ///< truncated by a nested trap (no mret)

    Cycle latency() const { return mretCycle - assertCycle; }
    bool switchedTask() const { return fromTask != toTask; }

    EpisodeTrace
    toTrace() const
    {
        EpisodeTrace t;
        t.cause = cause;
        t.fromTask = fromTask;
        t.toTask = toTask;
        t.queued = queued;
        t.preempted = preempted;
        t.irqAssert = assertCycle;
        t.trapTaken = entryCycle;
        t.storeDone = storeDoneCycle;
        t.schedDone = schedDoneCycle;
        t.loadDone = loadDoneCycle;
        t.mret = mretCycle;
        return t;
    }
};

class SwitchRecorder
{
  public:
    void
    beginEpisode(Word cause, Cycle assert_cycle, Cycle entry_cycle,
                 Word from_task)
    {
        if (inEpisode_) {
            // A nested/back-to-back trap arrived before the episode's
            // mret: keep the truncated record instead of losing it.
            // Its end point is the preempting trap's entry; it never
            // switched, so toTask mirrors fromTask.
            current_.preempted = true;
            current_.mretCycle = entry_cycle;
            current_.toTask = current_.fromTask;
            commit();
        }
        current_ = SwitchRecord{};
        current_.cause = cause;
        current_.assertCycle = assert_cycle;
        current_.entryCycle = entry_cycle;
        current_.fromTask = from_task;
        current_.queued = haveLastMret_ && assert_cycle <= lastMret_;
        inEpisode_ = true;
    }

    bool inEpisode() const { return inEpisode_; }

    /** Record an intermediate phase boundary of the running episode.
     *  Phases reported outside an episode (e.g. speculative preload
     *  traffic) are dropped. */
    void
    notePhase(SwitchPhase phase, Cycle cycle)
    {
        if (!inEpisode_)
            return;
        switch (phase) {
          case SwitchPhase::kIrqAssert:
            current_.assertCycle = cycle;
            break;
          case SwitchPhase::kTrapTaken:
            current_.entryCycle = cycle;
            break;
          case SwitchPhase::kStoreDone:
            current_.storeDoneCycle = cycle;
            break;
          case SwitchPhase::kSchedDone:
            current_.schedDoneCycle = cycle;
            break;
          case SwitchPhase::kLoadDone:
            current_.loadDoneCycle = cycle;
            break;
          case SwitchPhase::kMret:
            current_.mretCycle = cycle;
            break;
        }
    }

    void
    endEpisode(Cycle mret_cycle, Word to_task)
    {
        lastMret_ = mret_cycle;
        haveLastMret_ = true;
        if (!inEpisode_)
            return;  // mret outside a recorded episode (boot path)
        current_.mretCycle = mret_cycle;
        current_.toTask = to_task;
        commit();
    }

    /** Stream completed episodes to @p sink (may be nullptr). */
    void setSink(TraceSink *sink) { sink_ = sink; }

    const std::deque<SwitchRecord> &records() const { return records_; }

    /**
     * Latency statistics. @p switches_only drops same-task episodes;
     * @p include_queued admits episodes that waited behind another
     * ISR. Preempted episodes are always excluded: they have no mret
     * and therefore no complete switch latency.
     */
    SampleStats
    latencyStats(bool switches_only = true,
                 bool include_queued = false) const
    {
        SampleStats s;
        for (const SwitchRecord &r : records_) {
            if (r.preempted)
                continue;
            if (switches_only && !r.switchedTask())
                continue;
            if (!include_queued && r.queued)
                continue;
            s.add(static_cast<double>(r.latency()));
        }
        return s;
    }

  private:
    void
    commit()
    {
        records_.push_back(current_);
        inEpisode_ = false;
        if (sink_)
            sink_->episode(current_.toTrace());
    }

    /** A deque, not a vector: a livelocked run logs ~10^5 episodes,
     *  and a doubling vector would copy the whole log into a twice
     *  larger block each time it grows. */
    std::deque<SwitchRecord> records_;
    SwitchRecord current_{};
    bool inEpisode_ = false;
    Cycle lastMret_ = 0;
    bool haveLastMret_ = false;
    TraceSink *sink_ = nullptr;
};

} // namespace rtu

#endif // RTU_SIM_SWITCHREC_HH
