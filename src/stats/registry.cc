#include "stats/registry.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/log.h"
#include "stats/json.h"

namespace vantage {

namespace {

/** Split a dotted path into segments. */
std::vector<std::string>
segmentsOf(const std::string &path)
{
    std::vector<std::string> segs;
    std::size_t start = 0;
    while (true) {
        const std::size_t dot = path.find('.', start);
        if (dot == std::string::npos) {
            segs.push_back(path.substr(start));
            return segs;
        }
        segs.push_back(path.substr(start, dot - start));
        start = dot + 1;
    }
}

} // namespace

void
StatsRegistry::checkPath(const std::string &path) const
{
    vantage_assert(!path.empty(), "empty stats path");
    vantage_assert(path.front() != '.' && path.back() != '.' &&
                       path.find("..") == std::string::npos,
                   "malformed stats path '%s'", path.c_str());
    vantage_assert(entries_.find(path) == entries_.end(),
                   "duplicate stats path '%s'", path.c_str());
    // A leaf may not also be an interior node: neither a prefix of an
    // existing entry nor extend one. Sorted-map neighbours suffice.
    const auto after = entries_.lower_bound(path);
    if (after != entries_.end() &&
        after->first.compare(0, path.size() + 1, path + ".") == 0) {
        panic("stats path '%s' collides with '%s'", path.c_str(),
              after->first.c_str());
    }
    if (after != entries_.begin()) {
        const auto &prev = std::prev(after)->first;
        if (path.compare(0, prev.size() + 1, prev + ".") == 0) {
            panic("stats path '%s' collides with '%s'", path.c_str(),
                  prev.c_str());
        }
    }
}

void
StatsRegistry::insert(const std::string &path, Entry entry)
{
    checkPath(path);
    entries_.emplace(path, std::move(entry));
}

void
StatsRegistry::addCounter(const std::string &path, CounterFn fn)
{
    Entry e;
    e.kind = Kind::Counter;
    e.counter = std::move(fn);
    insert(path, std::move(e));
}

void
StatsRegistry::addCounter(const std::string &path,
                          const Counter *counter)
{
    vantage_assert(counter != nullptr, "null counter at '%s'",
                   path.c_str());
    addCounter(path, [counter] { return counter->value(); });
}

void
StatsRegistry::addCounter(const std::string &path,
                          const std::uint64_t *v)
{
    vantage_assert(v != nullptr, "null counter at '%s'", path.c_str());
    Entry e;
    e.kind = Kind::Counter;
    e.raw = v;
    insert(path, std::move(e));
}

std::uint64_t
StatsRegistry::readCounter(const Entry &e)
{
    if (e.raw != nullptr) {
        // The owning thread increments with plain stores; a relaxed
        // load never tears and is all a live sampler needs.
        return __atomic_load_n(e.raw, __ATOMIC_RELAXED);
    }
    return e.counter();
}

void
StatsRegistry::addGauge(const std::string &path, GaugeFn fn)
{
    Entry e;
    e.kind = Kind::Gauge;
    e.gauge = std::move(fn);
    insert(path, std::move(e));
}

void
StatsRegistry::addStat(const std::string &path, const RunningStat *stat)
{
    vantage_assert(stat != nullptr, "null stat at '%s'", path.c_str());
    Entry e;
    e.kind = Kind::Stat;
    e.stat = stat;
    insert(path, std::move(e));
}

void
StatsRegistry::addHistogram(const std::string &path,
                            const Histogram *hist)
{
    vantage_assert(hist != nullptr, "null histogram at '%s'",
                   path.c_str());
    Entry e;
    e.kind = Kind::Histogram;
    e.hist = hist;
    insert(path, std::move(e));
}

void
StatsRegistry::addString(const std::string &path, std::string text)
{
    Entry e;
    e.kind = Kind::String;
    e.text = std::move(text);
    insert(path, std::move(e));
}

void
StatsRegistry::addGuard(const std::string &prefix, EnabledFn fn)
{
    vantage_assert(!prefix.empty(), "empty guard prefix");
    vantage_assert(fn != nullptr, "null guard at '%s'",
                   prefix.c_str());
    guards_.emplace_back(prefix, std::move(fn));
}

bool
StatsRegistry::enabledAt(const std::string &path) const
{
    for (const auto &[prefix, fn] : guards_) {
        const bool covers =
            path.size() >= prefix.size() &&
            path.compare(0, prefix.size(), prefix) == 0 &&
            (path.size() == prefix.size() ||
             path[prefix.size()] == '.');
        if (covers && !fn()) {
            return false;
        }
    }
    return true;
}

bool
StatsRegistry::contains(const std::string &path) const
{
    return entries_.find(path) != entries_.end();
}

std::vector<std::string>
StatsRegistry::paths() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[path, entry] : entries_) {
        out.push_back(path);
    }
    return out;
}

std::optional<double>
StatsRegistry::value(const std::string &path) const
{
    const auto it = entries_.find(path);
    if (it == entries_.end() || !enabledAt(path)) {
        return std::nullopt;
    }
    switch (it->second.kind) {
      case Kind::Counter:
        return static_cast<double>(readCounter(it->second));
      case Kind::Gauge:
        return it->second.gauge();
      default:
        return std::nullopt;
    }
}

void
StatsRegistry::forEachScalar(
    const std::function<void(const std::string &, bool, double)> &fn)
    const
{
    for (const auto &[path, entry] : entries_) {
        if (!enabledAt(path)) {
            continue;
        }
        switch (entry.kind) {
          case Kind::Counter:
            fn(path, true, static_cast<double>(readCounter(entry)));
            break;
          case Kind::Gauge:
            fn(path, false, entry.gauge());
            break;
          case Kind::Stat: {
            const RunningStat &s = *entry.stat;
            fn(path + ".count", true,
               static_cast<double>(s.count()));
            fn(path + ".mean", false, s.mean());
            fn(path + ".min", false, s.min());
            fn(path + ".max", false, s.max());
            break;
          }
          case Kind::Histogram:
          case Kind::String:
            break;
        }
    }
}

void
StatsRegistry::forEachHistogram(
    const std::function<void(const std::string &, const Histogram &)>
        &fn) const
{
    for (const auto &[path, entry] : entries_) {
        if (entry.kind == Kind::Histogram && enabledAt(path)) {
            fn(path, *entry.hist);
        }
    }
}

void
StatsRegistry::forEachString(
    const std::function<void(const std::string &,
                             const std::string &)> &fn) const
{
    for (const auto &[path, entry] : entries_) {
        if (entry.kind == Kind::String && enabledAt(path)) {
            fn(path, entry.text);
        }
    }
}

void
StatsRegistry::writeEntryJson(JsonWriter &w, const Entry &e)
{
    switch (e.kind) {
      case Kind::Counter:
        w.value(readCounter(e));
        break;
      case Kind::Gauge:
        w.value(e.gauge());
        break;
      case Kind::String:
        w.value(e.text);
        break;
      case Kind::Stat:
        w.beginObject();
        w.kv("count", e.stat->count());
        w.kv("mean", e.stat->mean());
        w.kv("min", e.stat->min());
        w.kv("max", e.stat->max());
        w.kv("variance", e.stat->variance());
        w.endObject();
        break;
      case Kind::Histogram: {
        // mean/p* are NaN for empty histograms and serialize as null.
        const Histogram &h = *e.hist;
        w.beginObject();
        w.kv("count", h.count());
        w.kv("sum", h.sum());
        w.kv("mean", h.mean());
        w.kv("min", h.min());
        w.kv("max", h.max());
        w.kv("p50", h.quantile(0.50));
        w.kv("p90", h.quantile(0.90));
        w.kv("p99", h.quantile(0.99));
        w.key("bucket_low");
        w.beginArray();
        for (std::uint32_t i = 0; i < Histogram::kBuckets; ++i) {
            if (h.bucketCount(i) != 0) {
                w.value(Histogram::bucketLow(i));
            }
        }
        w.endArray();
        w.key("bucket_count");
        w.beginArray();
        for (std::uint32_t i = 0; i < Histogram::kBuckets; ++i) {
            if (h.bucketCount(i) != 0) {
                w.value(h.bucketCount(i));
            }
        }
        w.endArray();
        w.endObject();
        break;
      }
    }
}

void
StatsRegistry::writeJson(std::ostream &out) const
{
    JsonWriter w(out);
    w.beginObject();
    // The map is path-sorted, so entries sharing a prefix are
    // adjacent: track the open segment stack and emit the minimal
    // close/open sequence between consecutive entries.
    std::vector<std::string> open;
    for (const auto &[path, entry] : entries_) {
        if (!enabledAt(path)) {
            continue;
        }
        const std::vector<std::string> segs = segmentsOf(path);
        // Interior segments: segs[0..n-2]; leaf: segs.back().
        std::size_t common = 0;
        while (common < open.size() && common + 1 < segs.size() &&
               open[common] == segs[common]) {
            ++common;
        }
        while (open.size() > common) {
            w.endObject();
            open.pop_back();
        }
        for (std::size_t i = common; i + 1 < segs.size(); ++i) {
            w.key(segs[i]);
            w.beginObject();
            open.push_back(segs[i]);
        }
        w.key(segs.back());
        writeEntryJson(w, entry);
    }
    while (!open.empty()) {
        w.endObject();
        open.pop_back();
    }
    w.endObject();
}

void
StatsRegistry::writeCsv(std::ostream &out) const
{
    out << "path,kind,value\n";
    std::ostringstream num;
    num.precision(17);
    for (const auto &[path, entry] : entries_) {
        if (!enabledAt(path)) {
            continue;
        }
        switch (entry.kind) {
          case Kind::Counter:
            out << path << ",counter," << readCounter(entry) << "\n";
            break;
          case Kind::Gauge:
            num.str("");
            num << entry.gauge();
            out << path << ",gauge," << num.str() << "\n";
            break;
          case Kind::String:
            out << path << ",string," << entry.text << "\n";
            break;
          case Kind::Stat: {
            const RunningStat &s = *entry.stat;
            out << path << ".count,stat," << s.count() << "\n";
            num.str("");
            num << s.mean();
            out << path << ".mean,stat," << num.str() << "\n";
            num.str("");
            num << s.min();
            out << path << ".min,stat," << num.str() << "\n";
            num.str("");
            num << s.max();
            out << path << ".max,stat," << num.str() << "\n";
            num.str("");
            num << s.variance();
            out << path << ".variance,stat," << num.str() << "\n";
            break;
          }
          case Kind::Histogram: {
            const Histogram &h = *entry.hist;
            out << path << ".count,histogram," << h.count() << "\n";
            if (h.count() != 0) {
                out << path << ".sum,histogram," << h.sum() << "\n";
                num.str("");
                num << h.mean();
                out << path << ".mean,histogram," << num.str() << "\n";
                out << path << ".min,histogram," << h.min() << "\n";
                out << path << ".max,histogram," << h.max() << "\n";
            }
            break;
          }
        }
    }
}

void
StatsRegistry::writeJsonFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        fatal("cannot open stats output '%s'", path.c_str());
    }
    writeJson(out);
    out.flush();
    if (!out) {
        fatal("failed writing stats output '%s'", path.c_str());
    }
}

void
StatsRegistry::writeCsvFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        fatal("cannot open stats output '%s'", path.c_str());
    }
    writeCsv(out);
    out.flush();
    if (!out) {
        fatal("failed writing stats output '%s'", path.c_str());
    }
}

} // namespace vantage
