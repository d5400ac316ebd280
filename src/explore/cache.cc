#include "cache.hh"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace rtu {

namespace {

/** Find the value text following @p field ("\"name\":"), or npos. */
size_t
fieldPos(const std::string &line, const char *field)
{
    const size_t at = line.find(field);
    return at == std::string::npos ? std::string::npos
                                   : at + std::strlen(field);
}

bool
parseU64Field(const std::string &line, const char *field,
              std::uint64_t *out)
{
    const size_t at = fieldPos(line, field);
    if (at == std::string::npos)
        return false;
    char *end = nullptr;
    *out = std::strtoull(line.c_str() + at, &end, 10);
    return end != line.c_str() + at;
}

bool
parseBoolField(const std::string &line, const char *field, bool *out)
{
    const size_t at = fieldPos(line, field);
    if (at == std::string::npos)
        return false;
    *out = line.compare(at, 4, "true") == 0;
    return *out || line.compare(at, 5, "false") == 0;
}

/** Parse the escaped string value following @p field; false when the
 *  field is missing or the closing quote never comes (truncation). */
bool
parseStringField(const std::string &line, const char *field,
                 std::string *out)
{
    const size_t at = fieldPos(line, field);
    if (at == std::string::npos)
        return false;
    std::string raw;
    for (size_t i = at; i < line.size(); ++i) {
        if (line[i] == '\\' && i + 1 < line.size()) {
            raw.push_back(line[i]);
            raw.push_back(line[++i]);
        } else if (line[i] == '"') {
            *out = jsonUnescape(raw);
            return true;
        } else {
            raw.push_back(line[i]);
        }
    }
    return false;
}

bool
parseSamplesField(const std::string &line, const char *field,
                  std::vector<double> *out)
{
    size_t at = fieldPos(line, field);
    if (at == std::string::npos)
        return false;
    out->clear();
    if (line.compare(at, 1, "]") == 0)
        return true;  // empty array (a run with no switches)
    for (;;) {
        // jsonParseNumber reads the null a non-finite sample was
        // written as back as NaN, so the entry round-trips instead of
        // being discarded as corrupt.
        const size_t stop = line.find_first_of(",]", at);
        double v = 0;
        if (stop == std::string::npos ||
            !jsonParseNumber(line.substr(at, stop - at), &v))
            return false;
        out->push_back(v);
        if (line[stop] == ']')
            return true;
        at = stop + 1;
    }
}

} // namespace

ResultCache::ResultCache(const std::string &dir) : dir_(dir)
{
    if (persistent())
        load();
}

std::string
ResultCache::filePath() const
{
    return dir_.empty() ? std::string() : dir_ + "/results.jsonl";
}

void
ResultCache::load()
{
    std::ifstream is(filePath());
    if (!is)
        return;  // first run: nothing cached yet
    std::string line;
    size_t lineno = 0, skipped = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.find("\"bench\":\"explore_cache\"") !=
            std::string::npos) {
            // Schema header: it leads every file this writer creates,
            // and a concatenation of caches carries more of them
            // mid-file. Ours is skipped wherever it appears; a
            // malformed or foreign one is an unusable line. Entries
            // carry their own "v" stamp, so each one is judged alone
            // by the check below.
            std::uint64_t schema = 0;
            if (!parseU64Field(line, "\"schema\":", &schema) ||
                schema != kSchemaVersion)
                ++skipped;
            continue;
        }
        std::uint64_t v = 0;
        if (!parseU64Field(line, "\"v\":", &v) || v != kSchemaVersion) {
            ++skipped;  // other schema generation: not ours to read
            continue;
        }
        std::string key;
        CachedRun run;
        std::uint64_t exitCode = 0, cycles = 0;
        ActivityCounters &a = run.activity;
        const bool ok =
            parseStringField(line, "\"key\":\"", &key) &&
            parseBoolField(line, "\"ok\":", &run.ok) &&
            parseU64Field(line, "\"exit_code\":", &exitCode) &&
            parseU64Field(line, "\"cycles\":", &cycles) &&
            parseU64Field(line, "\"act_cycles\":", &a.cycles) &&
            parseU64Field(line, "\"act_instret\":", &a.instret) &&
            parseU64Field(line, "\"act_mem_ops\":", &a.memOps) &&
            parseU64Field(line, "\"act_unit_words\":", &a.unitMemWords) &&
            parseU64Field(line, "\"act_sort_phases\":", &a.sortPhases) &&
            parseU64Field(line, "\"act_busy\":", &a.unitBusyCycles) &&
            parseU64Field(line, "\"act_traps\":", &a.traps) &&
            parseSamplesField(line, "\"lat\":[", &run.switchSamples);
        if (!ok) {
            ++skipped;
            warn("result cache %s:%zu: corrupt entry skipped",
                 filePath().c_str(), lineno);
            continue;
        }
        run.exitCode = static_cast<Word>(exitCode);
        run.cycles = cycles;
        entries_[key] = std::move(run);
    }
    if (skipped > 0)
        warn("result cache %s: %zu of %zu lines unusable",
             filePath().c_str(), skipped, lineno);
}

bool
ResultCache::lookup(const SweepPoint &point, CachedRun *out) const
{
    const auto it = entries_.find(point.key());
    if (it == entries_.end())
        return false;
    *out = it->second;
    return true;
}

void
ResultCache::insert(const SweepPoint &point, const CachedRun &run)
{
    const std::string key = point.key();
    if (persistent() && entries_.find(key) == entries_.end())
        append(key, run);
    entries_[key] = run;
}

void
ResultCache::append(const std::string &key, const CachedRun &run)
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("cannot create cache directory '%s': %s", dir_.c_str(),
              ec.message().c_str());
    const bool fresh = !std::filesystem::exists(filePath());
    std::ofstream os(filePath(), std::ios::app);
    if (!os)
        fatal("cannot append to result cache '%s'", filePath().c_str());
    if (fresh)
        writeSchemaHeader(os, "explore_cache", kSchemaVersion);

    const ActivityCounters &a = run.activity;
    std::string line;
    JsonWriter w(line);
    w.beginObject()
        .num("v", kSchemaVersion)
        .str("key", key)
        .boolean("ok", run.ok)
        .num("exit_code", run.exitCode)
        .num("cycles", run.cycles)
        .num("act_cycles", a.cycles)
        .num("act_instret", a.instret)
        .num("act_mem_ops", a.memOps)
        .num("act_unit_words", a.unitMemWords)
        .num("act_sort_phases", a.sortPhases)
        .num("act_busy", a.unitBusyCycles)
        .num("act_traps", a.traps)
        .beginArray("lat");
    for (double v : run.switchSamples) {
        // Latencies are integral cycle counts; write them as such so
        // the stream is byte-stable (writeResultsJsonl's convention).
        // Non-finite samples (which should never occur, but must not
        // corrupt the cache file if they do) serialize as null.
        if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9e15)
            w.num(nullptr, static_cast<long long>(v));
        else
            w.fixed(nullptr, v, "%.17g");
    }
    w.endArray().endObject();
    os << line << '\n';
}

CachedRun
ResultCache::fromRunResult(const RunResult &run)
{
    CachedRun out;
    out.ok = run.ok;
    out.exitCode = run.exitCode;
    out.cycles = run.cycles;
    out.switchSamples = run.switchLatency.samples();
    out.activity = run.activity;
    return out;
}

} // namespace rtu
