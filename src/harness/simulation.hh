/**
 * @file
 * Full-system simulation: one RISC-V core model + RTOSUnit (or CV32RT
 * baseline, or nothing) + SRAM + CLINT + host I/O, running a generated
 * kernel image. This is the library's main entry point.
 */

#ifndef RTU_HARNESS_SIMULATION_HH
#define RTU_HARNESS_SIMULATION_HH

#include <algorithm>
#include <memory>
#include <string>

#include "asm/program.hh"
#include "common/types.hh"
#include "cores/core.hh"
#include "cores/executor.hh"
#include "rtosunit/config.hh"
#include "rtosunit/cv32rt.hh"
#include "rtosunit/rtosunit.hh"
#include "sim/clint.hh"
#include "sim/hostio.hh"
#include "sim/irq.hh"
#include "sim/kernel.hh"
#include "sim/mem.hh"
#include "sim/predecode.hh"
#include "sim/switchrec.hh"
#include "trace/trace.hh"

namespace rtu {

/** The three paper cores (Section 3). */
enum class CoreKind { kCv32e40p, kCva6, kNax };

const char *coreKindName(CoreKind kind);
/** Parse a lower-case core name (cv32e40p, cva6, nax or naxriscv);
 *  fatal on anything else. */
CoreKind coreKindFromName(const std::string &name);

/**
 * Which simulation-engine accelerations a run uses. Every mode is
 * bit-exact against kReference — only host time moves:
 *  - kFull: event-driven fast-forward over the predecoded image with
 *    superblock execution;
 *  - kNoBlock: fast-forward and the predecoded image, one instruction
 *    per dispatch;
 *  - kNoPredecode: fast-forward, decoding from memory on every fetch
 *    (no image, hence no blocks);
 *  - kReference: tick every cycle, fetching from the predecoded image.
 */
enum class EngineMode { kFull, kNoBlock, kNoPredecode, kReference };

/** "full", "no-block", "no-predecode" or "reference". */
const char *engineModeName(EngineMode mode);
/** Inverse of engineModeName(); fatal on an unknown name. */
EngineMode engineModeFromName(const std::string &name);

struct SimConfig
{
    CoreKind core = CoreKind::kCv32e40p;
    RtosUnitConfig unit;
    Word timerPeriodCycles = 1000;  ///< must match the kernel image
    std::uint64_t maxCycles = 20'000'000;
    /** NaxRiscv LSU ctxQueue depth (paper Fig 8; ablation knob). */
    unsigned naxCtxQueueEntries = 8;
    /** Simulation-engine accelerations (bit-exact; see EngineMode). */
    EngineMode engine = EngineMode::kFull;
    /** Abort after this many cycles without a retired instruction or
     *  trap (hung-guest diagnostic); 0 disables the watchdog. */
    std::uint64_t watchdogCycles = 2'000'000;
};

/** How a simulation run ended. */
enum class RunStatus
{
    kExited,      ///< guest exited voluntarily
    kCycleLimit,  ///< ran to maxCycles (or a capEndCycle() cap)
    kNoRetire,    ///< watchdog: no instruction retired, guest hung
    kGuestFault,  ///< architecturally fatal act (illegal insn, bus error)
    kStopped,     ///< ended early by requestStop()
};

const char *runStatusName(RunStatus status);

/**
 * Secondary observer of trap/mret boundaries, with the guest task ids
 * already resolved. The fault-injection campaign hangs its oracles and
 * episode-triggered injectors here; the primary SwitchRecorder path is
 * unaffected whether or not an observer is attached.
 */
class RunObserver
{
  public:
    virtual ~RunObserver() = default;
    virtual void trapTaken(Word cause, Cycle entry_cycle,
                           Word from_task) = 0;
    virtual void mretCompleted(Cycle cycle, Word to_task) = 0;
};

class Simulation : public CoreListener, public PhaseObserver
{
  public:
    /** Simulate @p program, which the simulation keeps: a campaign
     *  hands every run a copy of one shared image. */
    Simulation(const SimConfig &config, Program program);
    ~Simulation() override;

    /** Assert the external interrupt line at @p cycle. */
    void scheduleExtIrq(Cycle at);

    /**
     * Stream completed switch episodes (with phase timestamps) into
     * @p sink. The caller brackets the run with beginRun()/endRun()
     * on the sink; episodes are emitted in simulation order.
     */
    void setTraceSink(TraceSink *sink) { recorder_.setSink(sink); }

    /** Attach a trap/mret observer (fault-injection oracles). */
    void setRunObserver(RunObserver *observer) { observer_ = observer; }

    /**
     * Register an extra clocked component (e.g. a fault injector)
     * behind the built-in ones. Must happen before run(); the
     * component ticks last each cycle and participates in the
     * fast-forward quiescence protocol like any other.
     */
    void addClocked(Clocked *component) { kernel_.add(component); }

    /**
     * Run to guest exit, the cycle limit, a watchdog abort, a guest
     * fault or a requested stop.
     * @return true if the guest exited voluntarily.
     */
    bool run();

    /**
     * End the run at the next loop top: a component or observer that
     * calls this mid-tick stops the run one cycle after the cycle it
     * acted in, in every engine mode (trap and mret callbacks fire
     * only from per-cycle ticks). run() then reports kStopped, unless
     * the guest exited in the same cycle. The stop lowers the loop's
     * end cycle, so runs that never ask pay for no extra check.
     */
    void
    requestStop()
    {
        stopped_ = true;
        endCycle_ = 0;
    }

    /**
     * Lower the run's end cycle to @p end when that is earlier than
     * the configured maxCycles: a run still going at @p end stops
     * there as kCycleLimit, in every engine mode. Like requestStop(),
     * it moves the loop's end cycle and adds no check to the loop.
     */
    void capEndCycle(Cycle end) { endCycle_ = std::min(endCycle_, end); }

    Cycle now() const { return kernel_.now(); }
    bool exited() const { return hostio_.exited(); }
    Word exitCode() const { return hostio_.exitCode(); }

    /** Outcome of the last run() (kExited before any run). */
    RunStatus status() const { return status_; }
    /** Why the run ended abnormally: the hang diagnostic (last PC,
     *  pending irqs, unit FSM state) for kNoRetire, the fault's message
     *  for kGuestFault; empty otherwise. */
    const std::string &statusDiagnostic() const { return diagnostic_; }
    /** Scheduling-kernel throughput counters. */
    const SimKernelStats &kernelStats() const { return kernel_.stats(); }

    HostIo &hostIo() { return hostio_; }
    SwitchRecorder &recorder() { return recorder_; }
    Core &core() { return *core_; }

    /** Core counters plus the simulation-owned front-end counters
     *  (text invalidations live in the shared predecoded image). */
    CoreStats
    coreStats() const
    {
        CoreStats s = core_->stats();
        s.textInvalidations = predecode_.invalidations();
        return s;
    }
    RtosUnit *unit() { return unit_.get(); }
    Cv32rtUnit *cv32rtUnit() { return cv32rt_.get(); }
    ArchState &archState() { return state_; }
    MemSystem &mem() { return mem_; }

    /** Read a data word by program symbol (test/verification aid). */
    Word readSymbolWord(const std::string &symbol);

    /** Address of a program symbol (oracles walk guest structures). */
    Addr symbolAddr(const std::string &symbol) const;

    /** Like symbolAddr() but returns 0 when the symbol is absent
     *  (task-count probing: k_stack_<i> exists per created task). */
    Addr findSymbolAddr(const std::string &symbol) const;

    /** The guest task id the kernel believes is current. */
    Word currentGuestTask();

  private:
    /** Per-cycle SharedPort resets folded into one kernel component
     *  (they used to be two unconditional calls in the run loop). */
    class PortReset : public Clocked
    {
      public:
        PortReset(SharedPort &a, SharedPort &b) : a_(a), b_(b) {}

        void
        tick(Cycle now) override
        {
            (void)now;
            a_.beginCycle();
            b_.beginCycle();
        }

        /** Resetting claim flags nobody reads during a skip is dead
         *  work; the first tick after the skip re-runs it anyway. */
        Cycle
        nextEventAt(Cycle now) const override
        {
            (void)now;
            return kNoEvent;
        }

      private:
        SharedPort &a_;
        SharedPort &b_;
    };

    void trapTaken(Word cause, Cycle entry_cycle) override;
    void mretCompleted(Cycle cycle) override;
    void phaseReached(SwitchPhase phase, Cycle cycle) override;

    /** Retired-work counter driving the no-retire watchdog. */
    std::uint64_t progressCount() const;
    void noRetireAbort();

    SimConfig config_;
    const Program program_;
    const bool fastForward_;  ///< every engine but kReference

    IrqLines irq_;
    ExtIrqDriver ext_;
    Sram imem_;
    Sram dmem_;
    Clint clint_;
    HostIo hostio_;
    MemSystem mem_;
    ArchState state_;
    Executor exec_;
    PredecodedImage predecode_;
    SharedPort dmemPort_;
    SharedPort busPort_;
    PortReset portReset_;
    SimKernel kernel_;

    std::unique_ptr<UnitMemPort> unitPort_;
    std::unique_ptr<RtosUnit> unit_;
    std::unique_ptr<Cv32rtUnit> cv32rt_;
    std::unique_ptr<Core> core_;

    SwitchRecorder recorder_;
    RunObserver *observer_ = nullptr;
    RunStatus status_ = RunStatus::kExited;
    std::string diagnostic_;
    /** The run loop ends at this cycle: maxCycles or an earlier cap,
     *  or 0 once a stop is requested. */
    Cycle endCycle_;
    bool stopped_ = false;
    Addr taskIdAddr_ = 0;
};

} // namespace rtu

#endif // RTU_HARNESS_SIMULATION_HH
