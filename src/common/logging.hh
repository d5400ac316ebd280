/**
 * @file
 * Error and status reporting in the gem5 idiom.
 *
 * panic()  — an internal invariant of the simulator was violated (a bug in
 *            this code base). Aborts.
 * fatal()  — the simulation cannot continue due to a user-level error
 *            (bad configuration, invalid workload). Exits with code 1.
 * warn()   — something works well enough but deserves attention.
 * inform() — plain status output.
 */

#ifndef RTU_COMMON_LOGGING_HH
#define RTU_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace rtu {

/** Printf-style formatting into a std::string. */
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** csprintf() over an already-started argument list. */
std::string vcsprintf(const char *fmt, va_list ap)
    __attribute__((format(printf, 1, 0)));

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

/**
 * The guest program did something architecturally fatal: executed an
 * illegal instruction, touched unmapped memory, hit ebreak. Unlike a
 * panic (a simulator bug), this can be the guest's fault — notably
 * under fault injection, where corrupted state is *expected* to crash.
 * The run loop catches it and ends the run with RunStatus::kGuestFault;
 * outside a run it terminates like a panic (what() is printed).
 */
class GuestFault : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

[[noreturn]] void guestFaultImpl(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

void warnImpl(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

void informImpl(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Globally silence warn()/inform() (used by benchmarks). */
void setQuiet(bool quiet);

} // namespace rtu

#define panic(...) ::rtu::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define guest_fault(...) ::rtu::guestFaultImpl(__VA_ARGS__)
#define fatal(...) ::rtu::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define warn(...) ::rtu::warnImpl(__VA_ARGS__)
#define inform(...) ::rtu::informImpl(__VA_ARGS__)

/**
 * Simulator-internal invariant check; active in all build types because
 * timing bugs are silent otherwise.
 */
#define rtu_assert(cond, fmt, ...)                                       \
    do {                                                                 \
        if (!(cond))                                                     \
            ::rtu::panicImpl(__FILE__, __LINE__,                         \
                             "assertion '" #cond "' failed: " fmt,       \
                             ##__VA_ARGS__);                             \
    } while (0)

#endif // RTU_COMMON_LOGGING_HH
