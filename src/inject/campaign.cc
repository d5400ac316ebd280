#include "campaign.hh"

#include <algorithm>
#include <map>
#include <memory>

#include "common/json.hh"
#include "common/logging.hh"
#include "kernel/layout.hh"
#include "oracle.hh"
#include "sim/hostio.hh"
#include "sim/memmap.hh"

namespace rtu {

namespace {

/**
 * Episode-triggered injector. State corruption (ctx/TCB bit flips)
 * fires at the mret completing the trigger episode — the saved image
 * of the switched-out task exists by then and will be consumed at its
 * next resume. Unit perturbations (stalls, aborts) fire at trap entry
 * of the trigger episode, while a drain is (or is about to be) in
 * flight. IRQ-schedule faults are applied before the run starts and
 * never reach this class.
 */
class FaultInjector : public RunObserver, public Clocked
{
  public:
    FaultInjector(Simulation &sim, const FaultSpec &fault,
                  const RtosUnitConfig &unit)
        : sim_(sim), fault_(fault), unit_(unit),
          taskTableAddr_(sim.symbolAddr("k_task_table"))
    {}

    bool fired() const { return fired_; }

    void
    trapTaken(Word cause, Cycle entry_cycle, Word from_task) override
    {
        (void)cause;
        ++trapCount_;
        lastFrom_ = from_task;
        if (trapCount_ != fault_.episode)
            return;
        RtosUnit *unit = sim_.unit();
        switch (fault_.kind) {
          case FaultKind::kMemStall:
            if (unit) {
                unit->injectPortBlock(fault_.cycles);
                fired_ = true;
            }
            break;
          case FaultKind::kFsmStall:
            if (unit) {
                unit->injectStall(fault_.cycles);
                fired_ = true;
            }
            break;
          case FaultKind::kFsmAbort:
            abortAt_ = entry_cycle + fault_.cycles;
            break;
          default:
            break;
        }
    }

    void
    mretCompleted(Cycle cycle, Word to_task) override
    {
        (void)cycle;
        (void)to_task;
        ++mretCount_;
        if (mretCount_ != fault_.episode)
            return;
        if (fault_.kind == FaultKind::kCtxFlip)
            applyCtxFlip();
        else if (fault_.kind == FaultKind::kTcbField)
            applyTcbFlip();
    }

    void
    tick(Cycle now) override
    {
        if (abortAt_ == kNoEvent || now < abortAt_)
            return;
        abortAt_ = kNoEvent;
        if (RtosUnit *unit = sim_.unit()) {
            const char *aborted = unit->injectAbortFsm();
            fired_ = aborted[0] != '\0';
        }
    }

    Cycle
    nextEventAt(Cycle now) const override
    {
        if (abortAt_ == kNoEvent)
            return kNoEvent;
        return abortAt_ <= now ? now : abortAt_;
    }

  private:
    void
    flipWord(Addr addr)
    {
        MemSystem &mem = sim_.mem();
        mem.write32(addr, mem.read32(addr) ^ fault_.bitMask);
        fired_ = true;
    }

    /** Flip a word in the saved image of the just-switched-out task:
     *  its fixed context region (store configurations) or the stack
     *  frame its TCB points at (frame configurations). */
    void
    applyCtxFlip()
    {
        if (lastFrom_ >= kernel::kMaxTasks)
            return;
        if (unit_.store) {
            flipWord(memmap::ctxAddr(static_cast<TaskId>(lastFrom_)) +
                     4 * fault_.word);
            return;
        }
        const Word tcb =
            sim_.mem().read32(taskTableAddr_ + 4 * lastFrom_);
        if (tcb == 0)
            return;
        const Word top = sim_.mem().read32(tcb + kernel::kTcbTop);
        if (top == 0)
            return;
        flipWord(top + 4 * fault_.word);
    }

    void
    applyTcbFlip()
    {
        std::vector<Word> live;
        for (unsigned i = 0; i < kernel::kMaxTasks; ++i) {
            const Word tcb = sim_.mem().read32(taskTableAddr_ + 4 * i);
            if (tcb != 0)
                live.push_back(tcb);
        }
        if (live.empty())
            return;
        flipWord(live[fault_.taskSel % live.size()] + fault_.tcbField);
    }

    Simulation &sim_;
    FaultSpec fault_;
    RtosUnitConfig unit_;
    Addr taskTableAddr_;
    unsigned trapCount_ = 0;
    unsigned mretCount_ = 0;
    Word lastFrom_ = 0;
    Cycle abortAt_ = kNoEvent;
    bool fired_ = false;
};

/** Fan one RunObserver stream out to the oracle and the injector.
 *  Oracle first: a boundary's checks see pre-injection state, so a
 *  fault at episode n is detectable from episode n+1 onward. With a
 *  @p stop_on_hit simulation, the first boundary the oracle fires at
 *  ends that run: the outcome is decided (detected-oracle), and what
 *  would follow, often a livelock to the hang budget, would change no
 *  recorded field but the status, cycle count and hit tally. */
class ObserverChain : public RunObserver
{
  public:
    ObserverChain(KernelOracle &oracle, FaultInjector *injector,
                  Simulation *stop_on_hit)
        : oracle_(oracle), injector_(injector), stopOnHit_(stop_on_hit)
    {}

    void
    trapTaken(Word cause, Cycle entry_cycle, Word from_task) override
    {
        oracle_.trapTaken(cause, entry_cycle, from_task);
        stopIfDetected();
        if (injector_)
            injector_->trapTaken(cause, entry_cycle, from_task);
    }

    void
    mretCompleted(Cycle cycle, Word to_task) override
    {
        oracle_.mretCompleted(cycle, to_task);
        stopIfDetected();
        if (injector_)
            injector_->mretCompleted(cycle, to_task);
    }

  private:
    void
    stopIfDetected()
    {
        if (stopOnHit_ && oracle_.detected())
            stopOnHit_->requestStop();
    }

    KernelOracle &oracle_;
    FaultInjector *injector_;
    Simulation *stopOnHit_;
};

bool
isIrqFault(FaultKind kind)
{
    return kind == FaultKind::kIrqSpurious ||
           kind == FaultKind::kIrqDropped ||
           kind == FaultKind::kIrqCoalesced;
}

std::vector<Cycle>
perturbIrqSchedule(const FaultSpec &fault,
                   const std::vector<Cycle> &schedule)
{
    std::vector<Cycle> out = schedule;
    switch (fault.kind) {
      case FaultKind::kIrqSpurious:
        out.push_back(fault.cycles);
        std::sort(out.begin(), out.end());
        break;
      case FaultKind::kIrqDropped:
        rtu_assert(!out.empty(), "irq-dropped without a schedule");
        out.erase(out.begin() +
                  static_cast<std::ptrdiff_t>(fault.irqIndex %
                                              out.size()));
        break;
      case FaultKind::kIrqCoalesced: {
        rtu_assert(out.size() >= 2, "irq-coalesced needs two irqs");
        const std::size_t i = fault.irqIndex % (out.size() - 1);
        // Move the earlier assert onto the later one; the driver
        // raises one line for both, the guest acks once.
        out[i] = out[i + 1];
        break;
      }
      default:
        panic("perturbIrqSchedule on %s", faultKindName(fault.kind));
    }
    return out;
}

/**
 * What a planned fault does to its point, as a comparable key: the
 * point, then for IRQ faults the perturbed schedule as the set of
 * cycles the line is raised at (a raise at a doubled entry has no
 * further effect, so "irq-coalesced i" and "irq-dropped i" are one
 * experiment), and for the other kinds the kind and the fields its
 * injector reads. Faults with equal keys run identical simulations.
 */
std::vector<std::uint64_t>
faultEffectKey(std::size_t point_index, const FaultSpec &fault,
               const WorkloadInfo &winfo)
{
    std::vector<std::uint64_t> key{point_index};
    if (isIrqFault(fault.kind)) {
        std::vector<Cycle> raised =
            perturbIrqSchedule(fault, winfo.extIrqSchedule);
        raised.erase(std::unique(raised.begin(), raised.end()),
                     raised.end());
        key.push_back(~std::uint64_t{0});  // no FaultKind value
        key.insert(key.end(), raised.begin(), raised.end());
        return key;
    }
    key.push_back(static_cast<std::uint64_t>(fault.kind));
    key.push_back(fault.episode);
    switch (fault.kind) {
      case FaultKind::kCtxFlip:
        key.insert(key.end(), {fault.word, fault.bitMask});
        break;
      case FaultKind::kTcbField:
        key.insert(key.end(),
                   {fault.taskSel, fault.tcbField, fault.bitMask});
        break;
      default:  // the unit stalls and the FSM abort
        key.push_back(fault.cycles);
        break;
    }
    return key;
}

bool
semanticTag(std::uint8_t t)
{
    return t == tag::kWorkItem || t == tag::kMutexAcq ||
           t == tag::kMutexRel || t == tag::kSemGive ||
           t == tag::kSemTake || t == tag::kCheck;
}

/** Everything one instrumented run produces. */
struct InstrumentedRun
{
    RunResult run;
    SemanticEvents events;
    unsigned episodes = 0;
    bool injectorFired = false;
    unsigned oracleHits = 0;
    std::vector<OracleHit> hits;
};

/** The kernel image every run of @p point simulates. */
Program
pointImage(const SweepPoint &point)
{
    const auto workload = makeWorkload(point.workload, point.iterations);
    return buildWorkloadImage(point.unit, *workload,
                              point.timerPeriodCycles);
}

/**
 * The cycle an injected run of @p golden's point is called hung at:
 * one watchdog window past the golden run's end. The run loop takes
 * the minimum with the workload's maxCycles. A run that stops retiring
 * before the golden's end is still caught by the watchdog first.
 */
Cycle
hangBudget(const GoldenRecord &golden)
{
    return golden.run.cycles + RunOptions{}.watchdogCycles;
}

/** Run @p point on its prebuilt @p image, clean (@p fault null) or
 *  with @p fault injected, ending at @p budget at the latest. */
InstrumentedRun
runInstrumented(const SweepPoint &point, const Program &image,
                const FaultSpec *fault, EngineMode engine,
                Cycle budget = kNoEvent)
{
    const auto workload = makeWorkload(point.workload, point.iterations);
    const WorkloadInfo winfo = workload->info();

    RunOptions opts;
    opts.timerPeriodCycles = point.timerPeriodCycles;
    opts.naxCtxQueueEntries = point.naxCtxQueueEntries;
    opts.seed = point.seed;
    opts.engine = engine;
    opts.program = &image;

    InstrumentedRun out;
    std::vector<Cycle> irqOverride;
    if (fault && isIrqFault(fault->kind)) {
        irqOverride = perturbIrqSchedule(*fault, winfo.extIrqSchedule);
        opts.extIrqOverride = &irqOverride;
        out.injectorFired = true;  // the schedule itself is the fault
    }

    std::unique_ptr<KernelOracle> oracle;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<ObserverChain> chain;
    opts.preRun = [&](Simulation &sim) {
        oracle = std::make_unique<KernelOracle>(sim, point.unit);
        oracle->plantCanaries();
        sim.capEndCycle(budget);
        if (fault && !isIrqFault(fault->kind)) {
            injector =
                std::make_unique<FaultInjector>(sim, *fault, point.unit);
            sim.addClocked(injector.get());
        }
        // A golden run goes to its end: it is the reference, and any
        // hit on it is a soundness bug reported in full.
        chain = std::make_unique<ObserverChain>(
            *oracle, injector.get(), fault ? &sim : nullptr);
        sim.setRunObserver(chain.get());
    };
    opts.postRun = [&](Simulation &sim) {
        oracle->finalCheck();
        for (const GuestEvent &e : sim.hostIo().events()) {
            if (semanticTag(e.tag))
                out.events.emplace_back(e.tag, e.value);
        }
        std::sort(out.events.begin(), out.events.end());
    };

    out.run = runWorkload(point.core, point.unit, *workload, opts);
    out.episodes = oracle->episodes();
    out.oracleHits = oracle->hitCount();
    out.hits = oracle->hits();
    if (injector)
        out.injectorFired = injector->fired();
    return out;
}

/** The run-derived fields of an injected run's record, classified
 *  against its point's @p golden. */
FaultRunRecord
faultRecord(const InstrumentedRun &r, const GoldenRecord &golden)
{
    FaultRunRecord rec;
    rec.fired = r.injectorFired;
    rec.oracleHits = r.oracleHits;
    if (!r.hits.empty()) {
        const OracleHit &h = r.hits.front();
        rec.oracleName = h.oracle;
        rec.oracleCycle = h.cycle;
        rec.oracleEpisode = h.episode;
        rec.oracleDetail = h.detail;
    }
    rec.status = r.run.status;
    rec.statusDetail = r.run.diagnostic;
    rec.exitCode = r.run.exitCode;
    rec.cycles = r.run.cycles;
    rec.outcome = classifyOutcome(r.oracleHits, r.run.status,
                                  r.run.exitCode, r.events, golden);
    return rec;
}

} // namespace

FaultOutcome
classifyOutcome(unsigned oracle_hits, RunStatus status, Word exit_code,
                const SemanticEvents &events, const GoldenRecord &golden)
{
    if (oracle_hits > 0)
        return FaultOutcome::kDetectedOracle;
    if (status == RunStatus::kNoRetire ||
        status == RunStatus::kGuestFault) {
        // A crash (illegal instruction, bus error) is caught by the
        // platform's exception path in a real deployment — grouped
        // with the watchdog as hardware-level detection.
        return FaultOutcome::kDetectedWatchdog;
    }
    if (status == RunStatus::kCycleLimit)
        return FaultOutcome::kHang;
    // Clean exit: compare the observable result (exit code + semantic
    // event multiset), not cycle counts or interleavings — timing
    // faults legitimately shift schedules without corrupting anything.
    if (exit_code == golden.run.exitCode && events == golden.events)
        return FaultOutcome::kMasked;
    return FaultOutcome::kSilentCorruption;
}

const char *
faultOutcomeName(FaultOutcome outcome)
{
    switch (outcome) {
      case FaultOutcome::kMasked: return "masked";
      case FaultOutcome::kDetectedOracle: return "detected-oracle";
      case FaultOutcome::kDetectedWatchdog: return "detected-watchdog";
      case FaultOutcome::kSilentCorruption: return "silent-corruption";
      case FaultOutcome::kHang: return "hang";
    }
    return "?";
}

unsigned
CampaignResult::countOf(FaultOutcome outcome) const
{
    unsigned n = 0;
    for (const FaultRunRecord &f : faults) {
        if (f.outcome == outcome)
            ++n;
    }
    return n;
}

unsigned
CampaignResult::cleanOracleHits() const
{
    unsigned n = 0;
    for (const GoldenRecord &g : goldens)
        n += g.oracleHits;
    return n;
}

double
CampaignResult::detectionCoverage() const
{
    const unsigned detected = countOf(FaultOutcome::kDetectedOracle) +
                              countOf(FaultOutcome::kDetectedWatchdog);
    const unsigned masked = countOf(FaultOutcome::kMasked);
    const auto total = static_cast<unsigned>(faults.size());
    if (total == masked)
        return 1.0;
    return static_cast<double>(detected) /
           static_cast<double>(total - masked);
}

FaultRunRecord
runSingleFault(const SweepPoint &point, const FaultSpec &fault,
               GoldenRecord *golden_out, EngineMode engine)
{
    const Program image = pointImage(point);
    GoldenRecord golden;
    {
        const InstrumentedRun g =
            runInstrumented(point, image, nullptr, engine);
        golden.point = point;
        golden.run = g.run;
        golden.events = g.events;
        golden.episodes = g.episodes;
        golden.oracleHits = g.oracleHits;
        if (!g.hits.empty())
            golden.oracleDetail = g.hits.front().detail;
    }

    FaultRunRecord rec = faultRecord(
        runInstrumented(point, image, &fault, engine, hangBudget(golden)),
        golden);
    rec.fault = fault;
    if (golden_out)
        *golden_out = golden;
    return rec;
}

CampaignResult
runCampaign(const CampaignSpec &spec, const SweepRunner &runner)
{
    rtu_assert(!spec.points.empty(), "campaign without points");
    rtu_assert(spec.faultsPerPoint > 0, "campaign without faults");

    CampaignResult res;
    res.goldens.resize(spec.points.size());
    // One kernel image per point, shared by its golden and fault runs.
    std::vector<Program> images(spec.points.size());

    // Stage 1: golden references, sharded across the pool.
    runner.forEachIndex(spec.points.size(), [&](std::size_t i) {
        const SweepPoint &pt = spec.points[i];
        images[i] = pointImage(pt);
        const InstrumentedRun r =
            runInstrumented(pt, images[i], nullptr, spec.engine);
        GoldenRecord &g = res.goldens[i];
        g.point = pt;
        g.run = r.run;
        g.events = r.events;
        g.episodes = r.episodes;
        g.oracleHits = r.oracleHits;
        if (!r.hits.empty()) {
            const OracleHit &h = r.hits.front();
            g.oracleDetail = csprintf("%s@%llu: %s", h.oracle.c_str(),
                                      static_cast<unsigned long long>(
                                          h.cycle),
                                      h.detail.c_str());
        }
    });

    // Fault plans are pure functions of (seed, point); generate them
    // serially so the flattened order is the plan order.
    struct PlannedFault
    {
        std::size_t pointIndex;
        FaultSpec fault;
    };
    std::vector<PlannedFault> plan;
    plan.reserve(spec.points.size() * spec.faultsPerPoint);
    // Plan indices of the first fault with each effect, and each
    // fault's first twin: only the first is simulated.
    std::vector<std::size_t> simulated;
    std::vector<std::size_t> twinOf;
    std::map<std::vector<std::uint64_t>, std::size_t> firstByEffect;
    for (std::size_t i = 0; i < spec.points.size(); ++i) {
        const SweepPoint &pt = spec.points[i];
        const WorkloadInfo winfo =
            makeWorkload(pt.workload, pt.iterations)->info();
        for (const FaultSpec &f :
             makeFaultPlan(spec.seed, pt, winfo, spec.faultsPerPoint)) {
            const auto [it, fresh] = firstByEffect.emplace(
                faultEffectKey(i, f, winfo), plan.size());
            if (fresh)
                simulated.push_back(plan.size());
            twinOf.push_back(it->second);
            plan.push_back({i, f});
        }
    }

    // Stage 2: injected runs, classified against their goldens.
    res.faults.resize(plan.size());
    runner.forEachIndex(simulated.size(), [&](std::size_t u) {
        const std::size_t j = simulated[u];
        const PlannedFault &pf = plan[j];
        const GoldenRecord &golden = res.goldens[pf.pointIndex];
        res.faults[j] = faultRecord(
            runInstrumented(golden.point, images[pf.pointIndex], &pf.fault,
                            spec.engine, hangBudget(golden)),
            golden);
    });

    // Every fault takes its run-derived fields from its simulated
    // twin (itself, for the simulated ones) and keeps its own spec.
    for (std::size_t j = 0; j < plan.size(); ++j) {
        FaultRunRecord &rec = res.faults[j];
        if (twinOf[j] != j)
            rec = res.faults[twinOf[j]];
        rec.pointIndex = plan[j].pointIndex;
        rec.fault = plan[j].fault;
    }
    return res;
}

void
writeCampaignJsonl(std::ostream &os, const CampaignSpec &spec,
                   const CampaignResult &result)
{
    std::string line;
    for (const FaultRunRecord &f : result.faults) {
        const SweepPoint &pt = spec.points[f.pointIndex];
        line.clear();
        JsonWriter(line).beginObject()
            .str("core", coreKindName(pt.core))
            .str("config", pt.unit.name())
            .str("workload", pt.workload)
            .num("iterations", pt.iterations)
            .num("timer_period", pt.timerPeriodCycles)
            .num("ctxqueue", pt.naxCtxQueueEntries)
            .num("campaign_seed", spec.seed)
            .str("fault", faultKindName(f.fault.kind))
            .num("episode", f.fault.episode)
            .num("word", f.fault.word)
            .num("bit_mask", f.fault.bitMask)
            .num("tcb_field", f.fault.tcbField)
            .num("task_sel", f.fault.taskSel)
            .num("cycles_param", f.fault.cycles)
            .num("irq_index", f.fault.irqIndex)
            .boolean("fired", f.fired)
            .str("outcome", faultOutcomeName(f.outcome))
            .num("oracle_hits", f.oracleHits)
            .str("oracle", f.oracleName)
            .num("oracle_cycle", f.oracleCycle)
            .num("oracle_episode", f.oracleEpisode)
            .str("oracle_detail", f.oracleDetail)
            .str("status", runStatusName(f.status))
            .str("status_detail", f.statusDetail)
            .num("exit_code", f.exitCode)
            .num("cycles", f.cycles).endObject();
        os << line << '\n';
    }
}

} // namespace rtu
