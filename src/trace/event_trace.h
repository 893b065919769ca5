/**
 * @file
 * End-to-end event tracing: Chrome trace_event / Perfetto export.
 *
 * Every layer of the simulator can emit typed events — span begin/end
 * ('B'/'E'), instants ('i') and counters ('C') — into per-thread
 * ring buffers owned by a process-wide TraceSession. Buffers are
 * single-writer and lock-free on the hot path: recording is a bounds
 * check plus a store; when a buffer fills, further events are dropped
 * and counted (bounded memory, surfaced via trace.events_dropped in
 * the stats registry). The session merges all buffers into a Chrome
 * `trace_event` JSON document (load it at https://ui.perfetto.dev or
 * chrome://tracing) with pid/tid metadata and per-category filtering.
 *
 * Two gating levels:
 *
 *  - Hot-path sites (cache access spans, Vantage demotion/promotion
 *    instants, zcache walk depth) use the VANTAGE_TRACE_* macros,
 *    which compile to nothing unless the build sets
 *    -DVANTAGE_TRACE=ON (VANTAGE_TRACE_ENABLED). The default build
 *    pays zero cost — verified by the micro_overheads baseline
 *    comparison.
 *  - Cold/driver sites (sim phases, pool jobs, allocator decisions,
 *    suite mixes) call TraceSpan/traceInstant directly; when no
 *    session is enabled these cost one relaxed atomic load.
 *
 * Tracing is observational only: it never touches simulator state, so
 * outcome digests are bit-identical with tracing enabled or disabled.
 */

#ifndef VANTAGE_TRACE_EVENT_TRACE_H_
#define VANTAGE_TRACE_EVENT_TRACE_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace vantage {

class StatsRegistry;

/** Event categories; a session enables a bitmask of them. */
enum TraceCategory : std::uint32_t {
    kTraceAccess = 1u << 0,  ///< cache access spans (per array)
    kTraceVantage = 1u << 1, ///< demotions, promotions, aperture/setpoint
    kTraceZcache = 1u << 2,  ///< candidate-walk depth instants
    kTraceAlloc = 1u << 3,   ///< UCP/Lookahead reallocation decisions
    kTracePool = 1u << 4,    ///< thread-pool job spans
    kTraceSuite = 1u << 5,   ///< bench-suite mix spans
    kTraceSim = 1u << 6,     ///< warmup/run experiment phases
};

inline constexpr std::uint32_t kTraceAllCategories = (1u << 7) - 1;
inline constexpr std::uint32_t kTraceCategoryCount = 7;

/** Bit index of a single-category mask (for the name table). */
inline std::uint8_t traceCategoryBit(TraceCategory cat) {
    return static_cast<std::uint8_t>(
        std::countr_zero(static_cast<std::uint32_t>(cat)));
}

/**
 * One recorded event. `name` and `arg` must point at storage that
 * outlives the session (string literals, or TraceSession::intern()).
 */
struct TraceEvent {
    const char *name;  ///< event name (span/instant/counter name)
    const char *arg;   ///< argument key, or nullptr for no args
    std::uint64_t ts;  ///< nanoseconds since session enable
    double value;      ///< argument / counter value
    char phase;        ///< 'B', 'E', 'i' or 'C'
    std::uint8_t cat;  ///< category bit index (traceCategoryBit)
};

/**
 * Fixed-capacity single-writer event buffer for one thread. Appends
 * are lock-free; once full, events are dropped and counted. The
 * size/drop counters are atomics only so heartbeats and stats can
 * read them from other threads; full export (TraceSession::writeJson)
 * requires writer quiescence.
 */
class TraceBuffer {
  public:
    TraceBuffer(std::uint32_t tid, std::size_t capacity)
        : tid_(tid), ring_(capacity) {}

    /** Append one event; returns false (and counts a drop) if full. */
    bool push(const TraceEvent &ev) {
        const std::size_t n = size_.load(std::memory_order_relaxed);
        if (n >= ring_.size()) {
            dropped_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        ring_[n] = ev;
        size_.store(n + 1, std::memory_order_release);
        return true;
    }

    std::uint32_t tid() const { return tid_; }
    std::uint64_t recorded() const {
        return size_.load(std::memory_order_acquire);
    }
    std::uint64_t dropped() const {
        return dropped_.load(std::memory_order_relaxed);
    }
    const TraceEvent &event(std::size_t i) const { return ring_[i]; }

    /** Display name for the owning thread (export metadata). */
    void setName(std::string name) { name_ = std::move(name); }
    const std::string &name() const { return name_; }

  private:
    std::uint32_t tid_;
    std::string name_;
    std::vector<TraceEvent> ring_;
    std::atomic<std::size_t> size_{0};
    std::atomic<std::uint64_t> dropped_{0};
};

/**
 * Process-wide tracing session. Disabled by default; enable() arms a
 * category mask and starts the clock. Threads lazily register a
 * TraceBuffer on first event; the session owns the buffers so they
 * survive thread exit (pool workers) until export.
 *
 * enable()/disable()/writeJson() must run while no other thread is
 * recording (the simulator enables before spawning workers and
 * exports after joining them).
 */
class TraceSession {
  public:
    static TraceSession &instance();

    /**
     * Arm tracing for the categories in `mask`. `per_thread_capacity`
     * of 0 means $VANTAGE_TRACE_BUFFER events per thread (default
     * 1<<18). Re-enabling an active session just widens the mask.
     */
    void enable(std::uint32_t mask, std::size_t per_thread_capacity = 0);

    /** Stop recording and discard all buffers. */
    void disable();

    bool enabledAny() const {
        return mask_.load(std::memory_order_relaxed) != 0;
    }
    bool enabled(TraceCategory cat) const {
        return (mask_.load(std::memory_order_relaxed) & cat) != 0;
    }
    std::uint32_t mask() const {
        return mask_.load(std::memory_order_relaxed);
    }

    /** Nanoseconds since enable() (steady clock). */
    std::uint64_t nowNs() const {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    /**
     * The calling thread's buffer, registering one on first use.
     * Returns nullptr when the session is disabled.
     */
    TraceBuffer *threadBuffer();

    /** Copy `s` into session-lifetime storage (for event names). */
    const char *intern(const std::string &s);

    void setProcessName(std::string name);
    /** Name the calling thread in the exported metadata. */
    void setThreadName(const std::string &name);

    std::uint64_t recorded() const;
    std::uint64_t dropped() const;
    std::size_t threads() const;

    /** Chrome trace_event JSON (object form, with metadata). */
    void writeJson(std::ostream &out) const;
    bool writeJsonFile(const std::string &path) const;

    /** trace.events_recorded / events_dropped / threads gauges. */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix = "trace") const;

    /**
     * Parse a comma-separated category list ("vantage,pool" or
     * "all"). On failure sets `error` and returns 0.
     */
    static std::uint32_t parseCategories(const std::string &spec,
                                         std::string &error);
    /** Name for a category bit index (traceCategoryBit). */
    static const char *categoryName(std::uint8_t bit);

  private:
    TraceSession() = default;

    std::atomic<std::uint32_t> mask_{0};
    std::atomic<std::uint64_t> generation_{0};
    std::chrono::steady_clock::time_point epoch_{};
    std::size_t capacity_ = 0;
    mutable std::mutex mutex_; // buffers_, interned_, processName_
    std::vector<std::unique_ptr<TraceBuffer>> buffers_;
    std::deque<std::string> internStorage_;
    std::unordered_map<std::string, const char *> interned_;
    std::string processName_ = "vantage";
};

inline TraceSession &TraceSession::instance() {
    static TraceSession session;
    return session;
}

/** Record one event if `cat` is enabled (cold-site helper). */
inline void traceEmit(TraceCategory cat, const char *name, char phase,
                      const char *arg = nullptr, double value = 0.0) {
    TraceSession &s = TraceSession::instance();
    if (!s.enabled(cat)) return;
    if (TraceBuffer *buf = s.threadBuffer())
        buf->push({name, arg, s.nowNs(), value, phase,
                   traceCategoryBit(cat)});
}

inline void traceInstant(TraceCategory cat, const char *name,
                         const char *arg = nullptr, double value = 0.0) {
    traceEmit(cat, name, 'i', arg, value);
}

inline void traceCounter(TraceCategory cat, const char *name,
                         const char *arg, double value) {
    traceEmit(cat, name, 'C', arg, value);
}

/** Name the calling thread if a session is active. */
inline void traceSetThreadName(const std::string &name) {
    TraceSession &s = TraceSession::instance();
    if (s.enabledAny()) s.setThreadName(name);
}

/**
 * RAII 'B'/'E' span. If the begin event is dropped (buffer full) the
 * end event is suppressed too, so surviving pairs stay matched; only
 * spans open across the drop point are left unclosed, which
 * check_trace.py tolerates when drops are reported.
 */
class TraceSpan {
  public:
    TraceSpan(TraceCategory cat, const char *name,
              const char *arg = nullptr, double value = 0.0) {
        TraceSession &s = TraceSession::instance();
        if (!s.enabled(cat)) return;
        buf_ = s.threadBuffer();
        if (buf_ == nullptr) return;
        name_ = name;
        cat_ = traceCategoryBit(cat);
        open_ = buf_->push({name, arg, s.nowNs(), value, 'B', cat_});
    }
    ~TraceSpan() {
        if (open_)
            buf_->push({name_, nullptr, TraceSession::instance().nowNs(),
                        0.0, 'E', cat_});
    }
    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    TraceBuffer *buf_ = nullptr;
    const char *name_ = nullptr;
    std::uint8_t cat_ = 0;
    bool open_ = false;
};

// Hot-path hooks: compiled to nothing unless -DVANTAGE_TRACE=ON.
// (Cold sites call TraceSpan / traceInstant directly instead.)
#ifdef VANTAGE_TRACE_ENABLED
#define VANTAGE_TRACE_PASTE2(a, b) a##b
#define VANTAGE_TRACE_PASTE(a, b) VANTAGE_TRACE_PASTE2(a, b)
#define VANTAGE_TRACE_SPAN(cat, name)                                  \
    ::vantage::TraceSpan VANTAGE_TRACE_PASTE(vantage_trace_span_,      \
                                             __LINE__)(cat, name)
#define VANTAGE_TRACE_INSTANT(cat, name, arg, value)                   \
    ::vantage::traceInstant(cat, name, arg,                            \
                            static_cast<double>(value))
#define VANTAGE_TRACE_COUNTER(cat, name, arg, value)                   \
    ::vantage::traceCounter(cat, name, arg,                            \
                            static_cast<double>(value))
#else
#define VANTAGE_TRACE_SPAN(cat, name)                                  \
    do {                                                               \
    } while (0)
#define VANTAGE_TRACE_INSTANT(cat, name, arg, value)                   \
    do {                                                               \
    } while (0)
#define VANTAGE_TRACE_COUNTER(cat, name, arg, value)                   \
    do {                                                               \
    } while (0)
#endif

} // namespace vantage

#endif // VANTAGE_TRACE_EVENT_TRACE_H_
