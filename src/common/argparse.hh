/**
 * @file
 * Strict command-line parser shared by every bench driver.
 *
 * The historical per-bench loops silently skipped anything they did
 * not recognize, so a misspelled flag (`--iteration 2`) ran the full
 * default experiment instead of failing — the worst possible behavior
 * for batch jobs. This parser is declarative and strict: flags are
 * registered with a destination and a one-line help string, an unknown
 * flag or a missing value prints usage to stderr and exits non-zero,
 * and `--help` prints the same usage and exits 0.
 */

#ifndef RTU_COMMON_ARGPARSE_HH
#define RTU_COMMON_ARGPARSE_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace rtu {

class ArgParser
{
  public:
    /** @p summary is the one-line program description shown by
     *  usage(); @p prog is argv[0] at parse time. */
    explicit ArgParser(std::string summary)
        : summary_(std::move(summary))
    {}

    /** Boolean switch (no value): presence sets @p dst true. */
    void addFlag(const std::string &name, bool *dst,
                 const std::string &help);

    /** Valued options; each consumes the following argv element. */
    void addUnsigned(const std::string &name, unsigned *dst,
                     const std::string &help);
    void addU64(const std::string &name, std::uint64_t *dst,
                const std::string &help);
    void addDouble(const std::string &name, double *dst,
                   const std::string &help);
    void addString(const std::string &name, std::string *dst,
                   const std::string &help);
    /** Repeatable valued option: every occurrence appends. */
    void addStringList(const std::string &name,
                       std::vector<std::string> *dst,
                       const std::string &help);

    /**
     * Parse argv. On success returns true. On `--help`, prints usage
     * to stdout and exits 0. On an unknown flag, a missing value, or
     * an unparsable number, prints the error and usage to stderr and
     * exits 1 (bench mains have no recovery path — failing loudly is
     * the point).
     */
    bool parse(int argc, char **argv);

    /** The generated usage text (for tests). */
    std::string usage(const std::string &prog) const;

  private:
    enum class Kind { kFlag, kUnsigned, kU64, kDouble, kString,
                      kStringList };

    struct Option
    {
        std::string name;
        Kind kind;
        void *dst;
        std::string help;
    };

    void add(const std::string &name, Kind kind, void *dst,
             const std::string &help);
    [[noreturn]] void fail(const std::string &prog,
                           const std::string &why) const;

    std::string summary_;
    std::vector<Option> options_;
};

/** Split a comma-separated option value, dropping empty items. */
std::vector<std::string> splitList(const std::string &s);

/** Open the output file @p path named by option @p flag (e.g.
 *  "--out"); an unopenable path is fatal. */
std::ofstream openFlagFile(const std::string &path, const char *flag);

} // namespace rtu

#endif // RTU_COMMON_ARGPARSE_HH
