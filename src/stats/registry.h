/**
 * @file
 * Hierarchical statistics registry.
 *
 * Components register named statistics under dotted paths
 * ("cache.l2.part3.demotions"); the registry snapshots them on demand
 * and exports the whole tree as JSON (nested by path segment) or CSV
 * (flat rows). Registration stores *accessors*, not copies: counters
 * and gauges are read at export time, so a registry built before a
 * run automatically reports end-of-run values.
 *
 * Lifetime: the registry holds raw pointers/closures into the
 * registered objects. Export before tearing down the components, and
 * never export a registry that outlives its registrants.
 */

#ifndef VANTAGE_STATS_REGISTRY_H_
#define VANTAGE_STATS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "stats/counters.h"
#include "stats/histogram.h"

namespace vantage {

class JsonWriter;

/** Registry of named statistics, exported as one JSON/CSV document. */
class StatsRegistry
{
  public:
    using CounterFn = std::function<std::uint64_t()>;
    using GaugeFn = std::function<double()>;
    using EnabledFn = std::function<bool()>;

    /** Monotonic event count, read through `fn` at export time. */
    void addCounter(const std::string &path, CounterFn fn);
    void addCounter(const std::string &path, const Counter *counter);
    void addCounter(const std::string &path, const std::uint64_t *v);

    /** Point-in-time value, read through `fn` at export time. */
    void addGauge(const std::string &path, GaugeFn fn);

    /** Histogram summary: count/mean/min/max/variance. */
    void addStat(const std::string &path, const RunningStat *stat);

    /** Log2-bucketed distribution: summary + bucket arrays. */
    void addHistogram(const std::string &path, const Histogram *hist);

    /** Fixed string annotation (config names, workload labels). */
    void addString(const std::string &path, std::string text);

    /**
     * Gate every entry at or under `prefix` (the path itself plus any
     * `prefix.`-descendants, including ones registered later) behind
     * `fn`: while fn() returns false the entries vanish from every
     * visitor and export, as if never registered. Re-enabling brings
     * them back with their live values — the snapshot layer then sees
     * them as fresh paths, so a reused partition slot restarts its
     * Prometheus series cleanly instead of exporting stale values.
     *
     * `fn` is called from sampler threads; it must be tolerant of
     * concurrent writers (single-word reads in practice). Like entry
     * registration, addGuard() itself is not thread-safe against
     * sampling: install guards before sampling starts.
     */
    void addGuard(const std::string &prefix, EnabledFn fn);

    bool contains(const std::string &path) const;
    std::size_t size() const { return entries_.size(); }

    /**
     * Visit every scalar projection, in sorted path order:
     * counters and gauges directly, RunningStats flattened to
     * `path.count` (counter) plus `path.mean/min/max` (gauges).
     * Histograms and strings are skipped — use the dedicated
     * visitors. `is_counter` distinguishes monotonic counts from
     * point-in-time gauges (the snapshot layer's delta semantics
     * differ).
     *
     * Counters registered by raw pointer are read with a relaxed
     * atomic load, so a sampler thread may call this while the
     * owning thread keeps counting; closure-backed entries read
     * whatever the closure reads (single words in practice) and are
     * likewise tolerant of concurrent writers, at the cost of
     * possibly-stale values. Registration itself is NOT thread-safe:
     * finish building the registry before sampling it from another
     * thread.
     */
    void forEachScalar(
        const std::function<void(const std::string &path,
                                 bool is_counter, double value)> &fn)
        const;

    /** Visit every histogram entry, in sorted path order. */
    void forEachHistogram(
        const std::function<void(const std::string &path,
                                 const Histogram &hist)> &fn) const;

    /** Visit every string annotation, in sorted path order. */
    void forEachString(
        const std::function<void(const std::string &path,
                                 const std::string &text)> &fn) const;

    /** All registered paths, sorted. */
    std::vector<std::string> paths() const;

    /**
     * Snapshot a scalar entry (counter or gauge) by path.
     * @return nullopt for missing paths and non-scalar kinds.
     */
    std::optional<double> value(const std::string &path) const;

    /** Export the full tree as nested JSON. */
    void writeJson(std::ostream &out) const;

    /**
     * Export scalar entries as flat CSV rows (`path,kind,value`).
     * RunningStats flatten to one row per summary field.
     */
    void writeCsv(std::ostream &out) const;

    /** writeJson to `path`; fatal() when the file cannot be written. */
    void writeJsonFile(const std::string &path) const;

    /** writeCsv to `path`; fatal() when the file cannot be written. */
    void writeCsvFile(const std::string &path) const;

  private:
    enum class Kind { Counter, Gauge, Stat, Histogram, String };

    struct Entry
    {
        Kind kind;
        CounterFn counter;
        GaugeFn gauge;
        /** Set for pointer-registered counters: read with a relaxed
         *  atomic load so sampler threads never tear. */
        const std::uint64_t *raw = nullptr;
        const RunningStat *stat = nullptr;
        const Histogram *hist = nullptr;
        std::string text;
    };

    /** Counter value; relaxed atomic load for raw-pointer entries. */
    static std::uint64_t readCounter(const Entry &e);

    /** Reject duplicate paths and leaf/subtree collisions. */
    void checkPath(const std::string &path) const;
    void insert(const std::string &path, Entry entry);

    /** True when no guard covering `path` reports disabled. */
    bool enabledAt(const std::string &path) const;

    static void writeEntryJson(JsonWriter &w, const Entry &e);

    /** Sorted, so the dotted paths group into a tree naturally. */
    std::map<std::string, Entry> entries_;

    /** Prefix-scoped enable predicates (see addGuard). */
    std::vector<std::pair<std::string, EnabledFn>> guards_;
};

} // namespace vantage

#endif // VANTAGE_STATS_REGISTRY_H_
