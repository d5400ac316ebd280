#include "trace.hh"

#include "common/json.hh"

namespace rtu {

namespace {

/** JSONL phase timestamp: the cycle, or `null` when never reached. */
void
jsonPhase(JsonWriter &w, const char *key, Cycle c)
{
    c == kNoPhase ? w.null(key) : w.num(key, c);
}

/** CSV phase timestamp: the cycle, or an empty field. */
std::string
csvPhase(Cycle c)
{
    return c == kNoPhase ? "" : std::to_string(c);
}

} // namespace

void
JsonlTraceSink::beginRun(const TraceRunLabel &label)
{
    // Every episode line of the run starts with the same label
    // members: escape and format them once here.
    head_.clear();
    JsonWriter(head_).beginObject()
        .str("core", label.core)
        .str("config", label.config)
        .str("workload", label.workload)
        .num("seed", label.seed);
    index_ = 0;
}

void
JsonlTraceSink::episode(const EpisodeTrace &e)
{
    line_ = head_;
    JsonWriter w(line_);
    w.num("episode", index_++)
        .num("cause", e.cause)
        .num("from", e.fromTask)
        .num("to", e.toTask)
        .boolean("queued", e.queued)
        .boolean("preempted", e.preempted)
        .num("irq_assert", e.irqAssert)
        .num("trap_taken", e.trapTaken);
    jsonPhase(w, "store_done", e.storeDone);
    jsonPhase(w, "sched_done", e.schedDone);
    jsonPhase(w, "load_done", e.loadDone);
    w.num("mret", e.mret).endObject();
    line_ += '\n';
    os_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

void
CsvTraceSink::beginRun(const TraceRunLabel &label)
{
    label_ = label;
    index_ = 0;
    if (!headerWritten_) {
        os_ << "core,config,workload,seed,episode,cause,from,to,queued,"
               "preempted,irq_assert,trap_taken,store_done,sched_done,"
               "load_done,mret\n";
        headerWritten_ = true;
    }
}

void
CsvTraceSink::episode(const EpisodeTrace &e)
{
    os_ << label_.core << ',' << label_.config << ',' << label_.workload
        << ',' << label_.seed << ',' << index_++ << ',' << e.cause << ','
        << e.fromTask << ',' << e.toTask << ',' << (e.queued ? 1 : 0)
        << ',' << (e.preempted ? 1 : 0) << ',' << e.irqAssert << ','
        << e.trapTaken << ',' << csvPhase(e.storeDone) << ','
        << csvPhase(e.schedDone) << ',' << csvPhase(e.loadDone) << ','
        << e.mret << '\n';
}

} // namespace rtu
