/**
 * @file
 * microFreeRTOS: a FreeRTOS-workalike kernel emitted as RV32IM machine
 * code, specialized at generation time for one RTOSUnit configuration.
 *
 * The generated image contains:
 *  - boot code: list/TCB/context initialization, timer setup, start of
 *    the first task;
 *  - the interrupt service routine matching the configuration
 *    (paper Fig 4): full software save/schedule/restore for (vanilla),
 *    hardware-assisted variants for the S- and T-family
 *    configurations, and the CV32RT baseline frame convention;
 *  - the software scheduler: per-priority circular ready lists, a
 *    wake-time-sorted delay list, priority-ordered event lists
 *    (paper Fig 2);
 *  - the task API: yield, delay, mutex take/give, counting semaphore
 *    take/give (with an ISR-safe give for deferred interrupts);
 *  - the idle task and all user task bodies supplied by a workload.
 *
 * Only the (store, load, sched, cv32rt) axes change the generated
 * code; dirty bits, load omission and preloading are internal to the
 * RTOSUnit and need no kernel support (paper Sections 4.5-4.7).
 */

#ifndef RTU_KERNEL_KERNEL_HH
#define RTU_KERNEL_KERNEL_HH

#include <functional>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "asm/program.hh"
#include "common/types.hh"
#include "layout.hh"
#include "rtosunit/config.hh"

namespace rtu {

class KernelBuilder;

/** One task to create at boot. */
struct TaskSpec
{
    std::string name;
    Priority priority = 1;  ///< 1..7; 0 is reserved for the idle task
    Word arg = 0;           ///< initial a0
    /** Emits the task body (an infinite loop or an exit). */
    std::function<void(KernelBuilder &)> body;
};

struct KernelParams
{
    RtosUnitConfig unit;
    Word timerPeriodCycles = 1000;
    bool usesExternalIrq = false;  ///< emit the deferred-handler path
    /**
     * Emit k_delay_until (absolute-tick sleep for periodic tasks).
     * On hardware-scheduler configurations this also adds a
     * k_tick_count increment to the otherwise-empty timer ISR path so
     * absolute wake ticks can be converted to the relative counts the
     * hardware delay list consumes. Default off: every kernel the
     * existing benches/tests generate stays byte-identical.
     */
    bool usesDelayUntil = false;
};

class KernelBuilder
{
  public:
    explicit KernelBuilder(const KernelParams &params);

    /** Create kernel objects (before build()). Returns the symbol. */
    std::string createMutex(const std::string &name);
    std::string createSemaphore(const std::string &name, Word initial);

    /**
     * Create a hardware semaphore (requires a +HS configuration).
     * Returns the hardware slot id used by callHwSemTake/Give.
     */
    unsigned createHwSemaphore(Word initial = 0);

    void addTask(const TaskSpec &spec);

    /** Generate the complete image. Call once. */
    Program build();

    // ---- emission helpers for task bodies -----------------------------
    Assembler &a() { return asm_; }

    void callYield();
    void callDelay(Word ticks);
    /**
     * Sleep until the absolute tick in @p tick_reg (requires
     * KernelParams::usesDelayUntil). Tardy releases (tick already
     * passed) return immediately instead of sleeping a full epoch.
     */
    void callDelayUntil(Reg tick_reg);
    void callMutexTake(const std::string &mutex_sym);
    void callMutexGive(const std::string &mutex_sym);
    void callSemTake(const std::string &sem_sym);
    void callSemGive(const std::string &sem_sym);

    /** Hardware semaphore operations (single-instruction, no
     *  interrupt-disable window — the extension's selling point). */
    void callHwSemTake(unsigned sem_id);
    void callHwSemGive(unsigned sem_id);

    /** Emit a host-I/O trace event: tag in high byte, value in low. */
    void emitTrace(std::uint8_t tag, Word value24);
    /** Trace with a runtime value from @p value_reg (low 24 bits). */
    void emitTraceReg(std::uint8_t tag, Reg value_reg);

    /** Stop the simulation with @p code. */
    void emitExit(Word code);

    /** Busy work: @p iterations of a short ALU loop. */
    void emitBusyLoop(Word iterations);

    /**
     * Busy work with data-dependent divide latency (drives interrupt
     * entry jitter on cores that drain in-flight ops).
     */
    void emitBusyDivLoop(Word iterations);

    /** The semaphore given by the external-interrupt ISR path. */
    std::string extSemaphore() const { return "k_ext_sem"; }

    const KernelParams &params() const { return params_; }
    unsigned taskCount() const { return static_cast<unsigned>(tasks_.size()); }

  private:
    // Code-generation stages.
    void emitDataSection();
    void emitBoot();
    void emitIsr();
    void emitIsrVanillaFamily();
    void emitIsrStoreFamily();
    void emitSwSaveFrame(bool hw_saves_upper_half);
    void emitSwRestoreFrameAndRet();
    void emitSwRestoreCtxAndRet();
    void emitCauseDispatch(const std::string &prefix);
    void emitSelect();
    void emitTickHandler();
    void emitTaskApi();
    void emitSemGiveIsr();
    void emitIdleTask();
    void emitTaskBodies();

    // Inline primitives (register conventions documented in kernel.cc).
    void inlineListRemove(Reg node, Reg t_a, Reg t_b);
    void inlineListInsertEnd(Reg sentinel, Reg node, Reg t_a);
    void inlineReadyInsert(Reg node, Reg t_a, Reg t_b, Reg t_c,
                           const std::string &unique);
    void inlineEventInsert(Reg sentinel_base, Reg node, Reg t_a, Reg t_b,
                           Reg t_c, const std::string &unique);
    void inlineRaiseMsip(Reg t_a, Reg t_b);

    std::string tcbSym(unsigned task_index) const;
    std::string stackTopSym(unsigned task_index) const;

    KernelParams params_;
    Assembler asm_;
    std::vector<TaskSpec> tasks_;
    std::vector<std::string> mutexes_;
    std::vector<std::string> semaphores_;
    std::vector<Word> semInitials_;
    std::vector<Word> hwSemInitials_;
    bool built_ = false;
    unsigned uniqueCounter_ = 0;
};

} // namespace rtu

#endif // RTU_KERNEL_KERNEL_HH
