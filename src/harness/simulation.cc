#include "simulation.hh"

#include <utility>

#include "common/logging.hh"
#include "cores/cv32e40p.hh"
#include "cores/cva6.hh"
#include "cores/nax.hh"
#include "sim/memmap.hh"

namespace rtu {

const char *
coreKindName(CoreKind kind)
{
    switch (kind) {
      case CoreKind::kCv32e40p: return "CV32E40P";
      case CoreKind::kCva6: return "CVA6";
      case CoreKind::kNax: return "NaxRiscv";
    }
    return "?";
}

CoreKind
coreKindFromName(const std::string &name)
{
    if (name == "cv32e40p")
        return CoreKind::kCv32e40p;
    if (name == "cva6")
        return CoreKind::kCva6;
    if (name == "nax" || name == "naxriscv")
        return CoreKind::kNax;
    fatal("unknown core '%s' (expected cv32e40p, cva6 or nax)",
          name.c_str());
}

const char *
engineModeName(EngineMode mode)
{
    switch (mode) {
      case EngineMode::kFull: return "full";
      case EngineMode::kNoBlock: return "no-block";
      case EngineMode::kNoPredecode: return "no-predecode";
      case EngineMode::kReference: return "reference";
    }
    return "?";
}

EngineMode
engineModeFromName(const std::string &name)
{
    for (EngineMode mode : {EngineMode::kFull, EngineMode::kNoBlock,
                            EngineMode::kNoPredecode,
                            EngineMode::kReference}) {
        if (name == engineModeName(mode))
            return mode;
    }
    fatal("unknown engine '%s' (expected full, no-block, no-predecode "
          "or reference)",
          name.c_str());
}

const char *
runStatusName(RunStatus status)
{
    switch (status) {
      case RunStatus::kExited: return "exited";
      case RunStatus::kCycleLimit: return "cycle-limit";
      case RunStatus::kNoRetire: return "no-retire";
      case RunStatus::kGuestFault: return "guest-fault";
      case RunStatus::kStopped: return "stopped";
    }
    return "?";
}

Simulation::Simulation(const SimConfig &config, Program program)
    : config_(config), program_(std::move(program)),
      fastForward_(config.engine != EngineMode::kReference), ext_(irq_),
      imem_("imem", memmap::kImemBase, memmap::kImemSize),
      dmem_("dmem", memmap::kDmemBase, memmap::kDmemSize),
      clint_(irq_), hostio_(irq_, ext_),
      exec_(state_, mem_, irq_),
      dmemPort_("dmem-port"), busPort_("bus-port"),
      portReset_(dmemPort_, busPort_), endCycle_(config.maxCycles)
{
    std::string why;
    if (!config_.unit.validate(&why))
        fatal("invalid simulation unit config: %s", why.c_str());

    mem_.addDevice(&imem_);
    mem_.addDevice(&dmem_);
    mem_.addDevice(&clint_);
    mem_.addDevice(&hostio_);

    imem_.loadWords(program_.textBase, program_.text);
    dmem_.loadWords(program_.dataBase, program_.data);
    taskIdAddr_ = program_.symbol("currentTaskId");

    // Decode the whole text segment once; per-cycle fetch becomes an
    // array index. Stores and injected faults landing in text re-decode
    // the touched words through the write observer.
    if (config_.engine != EngineMode::kNoPredecode &&
        !program_.text.empty()) {
        predecode_.install(mem_, program_.textBase, program_.text.size());
    }

    // Superblock index on top of the image: straight-line run lengths
    // and worst-case block costs, kept coherent with text writes via
    // the image's invalidation listener. Only the full engine runs
    // blocks: the reference mode has no event horizon to execute them
    // against. Its worst-case costs use the CV32E40P timing the core
    // below is built with.
    const Cv32e40pParams cv32e40p;
    if (config_.engine == EngineMode::kFull && predecode_.installed())
        blockindex_.install(predecode_, cv32e40p);

    state_.setPc(program_.textBase);
    exec_.setClock(kernel_.clockPtr());
    hostio_.bindClock(kernel_.clockPtr());

    // The core must exist before the unit: on NaxRiscv the unit's
    // memory port is the LSU ctxQueue inside the core (paper Fig 8).
    Core::Env env;
    env.state = &state_;
    env.exec = &exec_;
    env.mem = &mem_;
    env.irq = &irq_;
    env.dmemPort = &dmemPort_;
    env.clint = &clint_;
    if (predecode_.installed())
        env.predecode = &predecode_;
    if (blockindex_.installed())
        env.blockindex = &blockindex_;

    NaxCore *nax = nullptr;
    switch (config_.core) {
      case CoreKind::kCv32e40p:
        core_ = std::make_unique<Cv32e40pCore>(env, cv32e40p);
        break;
      case CoreKind::kCva6:
        core_ = std::make_unique<Cva6Core>(env, busPort_);
        break;
      case CoreKind::kNax: {
        NaxParams np;
        np.ctxQueueEntries = config_.naxCtxQueueEntries;
        auto c = std::make_unique<NaxCore>(env, np);
        nax = c.get();
        core_ = std::move(c);
        break;
      }
    }
    core_->setListener(this);

    // Instantiate the hardware unit matching the configuration.
    if (config_.unit.cv32rt) {
        // CV32RT uses a dedicated memory port; on NaxRiscv it bypasses
        // the write-back cache and invalidates the drained lines.
        UnitCacheHook *hook = nax ? &nax->dcache() : nullptr;
        cv32rt_ = std::make_unique<Cv32rtUnit>(state_, mem_, hook);
        exec_.setUnit(cv32rt_.get());
    } else if (config_.unit.anyHardware()) {
        // RTOSUnit arbitration point per core (paper Section 5):
        // CV32E40P at the LSU/DMEM port, CVA6 at the bus, NaxRiscv
        // inside the LSU via the ctxQueue.
        UnitMemPort *port = nullptr;
        switch (config_.core) {
          case CoreKind::kCv32e40p:
            unitPort_ = std::make_unique<DirectUnitPort>(dmemPort_, mem_);
            port = unitPort_.get();
            break;
          case CoreKind::kCva6:
            unitPort_ = std::make_unique<DirectUnitPort>(busPort_, mem_);
            port = unitPort_.get();
            break;
          case CoreKind::kNax:
            port = &nax->ctxQueuePort();
            break;
        }
        unit_ = std::make_unique<RtosUnit>(config_.unit, state_, *port);
        exec_.setUnit(unit_.get());
        if (config_.unit.sched)
            clint_.enableAutoReset(config_.timerPeriodCycles);
    }

    // Phase tracing: the units stamp store/sched/load completion into
    // the recorder's in-flight episode through this simulation.
    if (unit_)
        unit_->setPhaseObserver(this, kernel_.clockPtr());
    if (cv32rt_)
        cv32rt_->setPhaseObserver(this);

    // Registration order is the intra-cycle tick order and must match
    // the historical hand-written loop: devices first, then the core,
    // then the unit (which consumes what the core pushed this cycle).
    kernel_.add(&clint_);
    kernel_.add(&ext_);
    kernel_.add(&portReset_);
    kernel_.add(core_.get());
    if (unit_)
        kernel_.add(unit_.get());
    else if (cv32rt_)
        kernel_.add(cv32rt_.get());
}

Simulation::~Simulation() = default;

void
Simulation::scheduleExtIrq(Cycle at)
{
    ext_.schedule(at);
}

Word
Simulation::currentGuestTask()
{
    return mem_.read32(taskIdAddr_);
}

void
Simulation::trapTaken(Word cause, Cycle entry_cycle)
{
    const Word from = currentGuestTask();
    recorder_.beginEpisode(cause, irq_.assertCycle(cause), entry_cycle,
                           from);
    if (observer_)
        observer_->trapTaken(cause, entry_cycle, from);
}

void
Simulation::mretCompleted(Cycle cycle)
{
    const Word to = currentGuestTask();
    recorder_.endEpisode(cycle, to);
    if (observer_)
        observer_->mretCompleted(cycle, to);
}

void
Simulation::phaseReached(SwitchPhase phase, Cycle cycle)
{
    recorder_.notePhase(phase, cycle);
}

std::uint64_t
Simulation::progressCount() const
{
    const CoreStats &s = core_->stats();
    return s.instret + s.traps;
}

void
Simulation::noRetireAbort()
{
    status_ = RunStatus::kNoRetire;
    std::string unitState = "none";
    if (unit_)
        unitState = unit_->fsmState();
    else if (cv32rt_)
        unitState = csprintf("cv32rt drainBusy=%d",
                             cv32rt_->drainBusy());
    diagnostic_ = csprintf(
        "no instruction retired for %llu cycles at cycle %llu: "
        "pc=0x%08x pending-irqs=0x%x mie=0x%x mstatus=0x%x unit[%s]",
        static_cast<unsigned long long>(config_.watchdogCycles),
        static_cast<unsigned long long>(kernel_.now()), state_.pc(),
        irq_.pending(), state_.csrs.mie, state_.csrs.mstatus,
        unitState.c_str());
}

bool
Simulation::run()
{
    status_ = RunStatus::kCycleLimit;
    diagnostic_.clear();
    std::uint64_t lastProgress = progressCount();
    Cycle lastProgressCycle = kernel_.now();

    while (!hostio_.exited()) {
        const Cycle now = kernel_.now();
        if (now >= endCycle_)
            break;

        // Track progress at loop top so ticked and fast-forwarded runs
        // observe retirement at identical cycles.
        const std::uint64_t progress = progressCount();
        if (progress != lastProgress) {
            lastProgress = progress;
            lastProgressCycle = now;
        }

        Cycle limit = endCycle_;
        if (config_.watchdogCycles != 0) {
            const Cycle deadline =
                lastProgressCycle + config_.watchdogCycles;
            if (now >= deadline) {
                noRetireAbort();
                return false;
            }
            limit = std::min(limit, deadline);
        }

        // Clamping skips to `limit` keeps the abort cycle identical in
        // fast-forward and reference mode. A GuestFault here is the
        // guest crashing (expected under fault injection), not a
        // simulator bug: end the run instead of aborting the host.
        try {
            if (fastForward_ && kernel_.fastForward(limit))
                continue;
            kernel_.tickOne();
        } catch (const GuestFault &gf) {
            status_ = RunStatus::kGuestFault;
            diagnostic_ = gf.what();
            return false;
        }
    }

    if (hostio_.exited())
        status_ = RunStatus::kExited;
    else if (stopped_)
        status_ = RunStatus::kStopped;
    return hostio_.exited();
}

Word
Simulation::readSymbolWord(const std::string &symbol)
{
    return mem_.read32(program_.symbol(symbol));
}

Addr
Simulation::symbolAddr(const std::string &symbol) const
{
    return program_.symbol(symbol);
}

Addr
Simulation::findSymbolAddr(const std::string &symbol) const
{
    const auto it = program_.symbols.find(symbol);
    return it == program_.symbols.end() ? 0 : it->second;
}

} // namespace rtu
