#include "logging.hh"

#include <cstdarg>
#include <vector>

namespace rtu {

namespace {
bool gQuiet = false;
} // namespace

std::string
vcsprintf(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap2);
    va_end(ap2);
    if (n < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(n));
}

std::string
csprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vcsprintf(fmt, ap);
    va_end(ap);
    return s;
}

void
setQuiet(bool q)
{
    gQuiet = q;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vcsprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
guestFaultImpl(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vcsprintf(fmt, ap);
    va_end(ap);
    throw GuestFault(msg);
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vcsprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    if (gQuiet)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vcsprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const char *fmt, ...)
{
    if (gQuiet)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vcsprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace rtu
