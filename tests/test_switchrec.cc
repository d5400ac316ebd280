/** SwitchRecorder unit tests: episode lifecycle, nested-trap
 *  truncation (the preempted flag), phase timestamps and sink
 *  streaming. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "sim/switchrec.hh"
#include "trace/trace.hh"

namespace rtu {
namespace {

TEST(SwitchRecorder, RecordsOneEpisode)
{
    SwitchRecorder rec;
    rec.beginEpisode(7, 100, 105, 1);
    EXPECT_TRUE(rec.inEpisode());
    rec.endEpisode(180, 2);
    EXPECT_FALSE(rec.inEpisode());
    ASSERT_EQ(rec.records().size(), 1u);
    const SwitchRecord &r = rec.records()[0];
    EXPECT_EQ(r.cause, 7u);
    EXPECT_EQ(r.assertCycle, 100u);
    EXPECT_EQ(r.entryCycle, 105u);
    EXPECT_EQ(r.mretCycle, 180u);
    EXPECT_EQ(r.latency(), 80u);
    EXPECT_TRUE(r.switchedTask());
    EXPECT_FALSE(r.queued);
    EXPECT_FALSE(r.preempted);
}

TEST(SwitchRecorder, NestedTrapKeepsTruncatedEpisode)
{
    // A second trap taken before the first episode's mret must not
    // silently discard the in-flight record: it is committed with the
    // preempted flag, truncated at the preempting trap's entry.
    SwitchRecorder rec;
    rec.beginEpisode(7, 100, 105, 1);
    rec.beginEpisode(11, 140, 145, 1);  // nested/back-to-back trap
    rec.endEpisode(200, 2);

    ASSERT_EQ(rec.records().size(), 2u);
    const SwitchRecord &lost = rec.records()[0];
    EXPECT_TRUE(lost.preempted);
    EXPECT_EQ(lost.cause, 7u);
    EXPECT_EQ(lost.mretCycle, 145u);  // cut at the new trap's entry
    EXPECT_EQ(lost.fromTask, lost.toTask);  // never switched

    const SwitchRecord &second = rec.records()[1];
    EXPECT_FALSE(second.preempted);
    EXPECT_EQ(second.cause, 11u);
    EXPECT_EQ(second.mretCycle, 200u);
}

TEST(SwitchRecorder, PreemptedEpisodesExcludedFromLatencyStats)
{
    SwitchRecorder rec;
    rec.beginEpisode(7, 100, 105, 1);
    rec.beginEpisode(7, 140, 145, 1);
    rec.endEpisode(200, 2);

    // Only the completed episode contributes; include_queued and
    // switches_only must not re-admit the truncated one.
    EXPECT_EQ(rec.latencyStats(true, true).count(), 1u);
    EXPECT_EQ(rec.latencyStats(false, true).count(), 1u);
    EXPECT_DOUBLE_EQ(rec.latencyStats(true, true).mean(), 60.0);
}

TEST(SwitchRecorder, QueuedEpisodeFlaggedAndFilteredByDefault)
{
    SwitchRecorder rec;
    rec.beginEpisode(7, 100, 105, 1);
    rec.endEpisode(180, 2);
    // Asserted at 170, before the previous mret at 180: queued.
    rec.beginEpisode(7, 170, 185, 2);
    rec.endEpisode(260, 1);

    ASSERT_EQ(rec.records().size(), 2u);
    EXPECT_FALSE(rec.records()[0].queued);
    EXPECT_TRUE(rec.records()[1].queued);
    EXPECT_EQ(rec.latencyStats(true, false).count(), 1u);
    EXPECT_EQ(rec.latencyStats(true, true).count(), 2u);
}

TEST(SwitchRecorder, PhaseTimestampsLandInTheRunningEpisode)
{
    SwitchRecorder rec;
    // Phases outside an episode are dropped.
    rec.notePhase(SwitchPhase::kStoreDone, 50);
    rec.beginEpisode(7, 100, 105, 1);
    rec.notePhase(SwitchPhase::kStoreDone, 130);
    rec.notePhase(SwitchPhase::kSchedDone, 120);
    rec.notePhase(SwitchPhase::kLoadDone, 160);
    rec.endEpisode(180, 2);

    ASSERT_EQ(rec.records().size(), 1u);
    const SwitchRecord &r = rec.records()[0];
    EXPECT_EQ(r.storeDoneCycle, 130u);
    EXPECT_EQ(r.schedDoneCycle, 120u);
    EXPECT_EQ(r.loadDoneCycle, 160u);

    const EpisodeTrace t = r.toTrace();
    EXPECT_EQ(t.irqAssert, 100u);
    EXPECT_EQ(t.trapTaken, 105u);
    EXPECT_EQ(t.storeDone, 130u);
    EXPECT_EQ(t.schedDone, 120u);
    EXPECT_EQ(t.loadDone, 160u);
    EXPECT_EQ(t.mret, 180u);
}

TEST(SwitchRecorder, SinkReceivesEpisodesIncludingPreempted)
{
    std::ostringstream os;
    JsonlTraceSink sink(os);
    TraceRunLabel label;
    label.core = "CV32E40P";
    label.config = "SLT";
    label.workload = "unit_test";
    sink.beginRun(label);

    SwitchRecorder rec;
    rec.setSink(&sink);
    rec.beginEpisode(7, 100, 105, 1);
    rec.beginEpisode(7, 140, 145, 1);  // truncates the first
    rec.endEpisode(200, 2);

    const std::string out = os.str();
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
    EXPECT_NE(out.find("\"preempted\":true"), std::string::npos);
    EXPECT_NE(out.find("\"preempted\":false"), std::string::npos);
    // Every line carries all six phase fields.
    for (const char *field :
         {"\"irq_assert\":", "\"trap_taken\":", "\"store_done\":",
          "\"sched_done\":", "\"load_done\":", "\"mret\":"}) {
        size_t hits = 0;
        for (size_t pos = out.find(field); pos != std::string::npos;
             pos = out.find(field, pos + 1))
            ++hits;
        EXPECT_EQ(hits, 2u) << field;
    }
}

TEST(TraceSinks, Cycle0PhaseIsDistinctFromPhaseAbsent)
{
    // Regression: phases used to serialize "never ran" as 0, making a
    // phase that legitimately completed at cycle 0 (interrupt at
    // reset) indistinguishable from one the configuration performs in
    // software. Absent phases carry kNoPhase and serialize as JSON
    // null / an empty CSV cell; a real cycle-0 stamp prints as 0.
    EpisodeTrace stamped;
    stamped.irqAssert = 0;
    stamped.trapTaken = 0;
    stamped.storeDone = 0;   // hardware store drained at cycle 0
    stamped.mret = 5;        // sched/load stay kNoPhase

    std::ostringstream js;
    JsonlTraceSink jsink(js);
    jsink.beginRun(TraceRunLabel{});
    jsink.episode(stamped);
    EXPECT_NE(js.str().find("\"store_done\":0,"), std::string::npos);
    EXPECT_NE(js.str().find("\"sched_done\":null,"),
              std::string::npos);
    EXPECT_NE(js.str().find("\"load_done\":null,"), std::string::npos);

    std::ostringstream cs;
    CsvTraceSink csink(cs);
    csink.beginRun(TraceRunLabel{});
    csink.episode(stamped);
    // CSV tail: irq,trap,store,sched,load,mret — a stamped 0 prints,
    // absent phases leave their cell empty.
    EXPECT_NE(cs.str().find(",0,0,0,,,5\n"), std::string::npos)
        << cs.str();
}

TEST(TraceSinks, CsvHasHeaderAndOneRowPerEpisode)
{
    std::ostringstream os;
    CsvTraceSink sink(os);
    const TraceRunLabel label{"CVA6", "T", "unit_test", 0};
    sink.beginRun(label);
    EpisodeTrace e;
    e.irqAssert = 10;
    e.mret = 60;
    sink.episode(e);
    sink.episode(e);

    const std::string out = os.str();
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
    EXPECT_EQ(out.rfind("core,config,workload", 0), 0u);
    EXPECT_NE(out.find("CVA6,T,unit_test"), std::string::npos);
}

} // namespace
} // namespace rtu
