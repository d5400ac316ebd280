#include "argparse.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "logging.hh"

namespace rtu {

std::ofstream
openFlagFile(const std::string &path, const char *flag)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open %s file '%s'", flag, path.c_str());
    return os;
}

std::vector<std::string> splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

void
ArgParser::add(const std::string &name, Kind kind, void *dst,
               const std::string &help)
{
    rtu_assert(name.size() > 2 && name[0] == '-' && name[1] == '-',
               "option '%s' must start with --", name.c_str());
    for (const Option &o : options_)
        rtu_assert(o.name != name, "duplicate option '%s'", name.c_str());
    options_.push_back(Option{name, kind, dst, help});
}

void
ArgParser::addFlag(const std::string &name, bool *dst,
                   const std::string &help)
{
    add(name, Kind::kFlag, dst, help);
}

void
ArgParser::addUnsigned(const std::string &name, unsigned *dst,
                       const std::string &help)
{
    add(name, Kind::kUnsigned, dst, help);
}

void
ArgParser::addU64(const std::string &name, std::uint64_t *dst,
                  const std::string &help)
{
    add(name, Kind::kU64, dst, help);
}

void
ArgParser::addDouble(const std::string &name, double *dst,
                     const std::string &help)
{
    add(name, Kind::kDouble, dst, help);
}

void
ArgParser::addString(const std::string &name, std::string *dst,
                     const std::string &help)
{
    add(name, Kind::kString, dst, help);
}

void
ArgParser::addStringList(const std::string &name,
                         std::vector<std::string> *dst,
                         const std::string &help)
{
    add(name, Kind::kStringList, dst, help);
}

std::string
ArgParser::usage(const std::string &prog) const
{
    std::ostringstream os;
    os << "usage: " << prog << " [options]\n  " << summary_ << "\n\n"
       << "options:\n";
    for (const Option &o : options_) {
        std::string head = "  " + o.name;
        if (o.kind != Kind::kFlag)
            head += " <value>";
        os << head;
        for (size_t pad = head.size(); pad < 28; ++pad)
            os << ' ';
        os << o.help << '\n';
    }
    os << "  --help                    print this message and exit\n";
    return os.str();
}

void
ArgParser::fail(const std::string &prog, const std::string &why) const
{
    std::fprintf(stderr, "%s: %s\n%s", prog.c_str(), why.c_str(),
                 usage(prog).c_str());
    std::exit(1);
}

bool
ArgParser::parse(int argc, char **argv)
{
    const std::string prog = argc > 0 ? argv[0] : "?";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage(prog).c_str(), stdout);
            std::exit(0);
        }
        // Both `--flag value` and `--flag=value` are accepted.
        std::string inline_value;
        bool have_inline = false;
        const std::string::size_type eq = arg.find('=');
        if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
            inline_value = arg.substr(eq + 1);
            arg.resize(eq);
            have_inline = true;
        }
        const Option *opt = nullptr;
        for (const Option &o : options_) {
            if (o.name == arg) {
                opt = &o;
                break;
            }
        }
        if (!opt)
            fail(prog, "unknown option '" + arg + "'");
        if (opt->kind == Kind::kFlag) {
            if (have_inline)
                fail(prog, "option '" + arg + "' takes no value");
            *static_cast<bool *>(opt->dst) = true;
            continue;
        }
        if (!have_inline && i + 1 >= argc)
            fail(prog, "option '" + arg + "' needs a value");
        const std::string value =
            have_inline ? inline_value : std::string(argv[++i]);
        char *end = nullptr;
        switch (opt->kind) {
          case Kind::kUnsigned: {
            const unsigned long v = std::strtoul(value.c_str(), &end, 0);
            if (end == value.c_str() || *end != '\0')
                fail(prog, "option '" + arg + "': bad number '" +
                           value + "'");
            *static_cast<unsigned *>(opt->dst) =
                static_cast<unsigned>(v);
            break;
          }
          case Kind::kU64: {
            const unsigned long long v =
                std::strtoull(value.c_str(), &end, 0);
            if (end == value.c_str() || *end != '\0')
                fail(prog, "option '" + arg + "': bad number '" +
                           value + "'");
            *static_cast<std::uint64_t *>(opt->dst) = v;
            break;
          }
          case Kind::kDouble: {
            const double v = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0')
                fail(prog, "option '" + arg + "': bad number '" +
                           value + "'");
            *static_cast<double *>(opt->dst) = v;
            break;
          }
          case Kind::kString:
            *static_cast<std::string *>(opt->dst) = value;
            break;
          case Kind::kStringList:
            static_cast<std::vector<std::string> *>(opt->dst)
                ->push_back(value);
            break;
          case Kind::kFlag:
            break;  // handled above
        }
    }
    return true;
}

} // namespace rtu
