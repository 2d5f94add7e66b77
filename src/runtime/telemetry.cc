#include "runtime/telemetry.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string_view>
#include <unordered_map>

#include "common/logging.hh"
#include "common/strings.hh"

namespace griffin {

namespace {

/**
 * Per-thread span storage.  Owned by the global thread list (shared
 * pointers), referenced thread-locally, so buffers of joined pool
 * workers survive until export.  The mutex is uncontended on the hot
 * path (only the owning thread appends; export threads lock briefly).
 */
struct ThreadTrace
{
    int tid = 0;
    Mutex mu;

    struct Event
    {
        const char *name;
        std::uint64_t startNs;
        std::uint64_t durNs;
    };
    std::vector<Event> events GRIFFIN_GUARDED_BY(mu);
    std::uint64_t droppedEvents GRIFFIN_GUARDED_BY(mu) = 0;

    struct Agg
    {
        std::uint64_t count = 0;
        std::uint64_t totalNs = 0;
    };
    /**
     * Keyed by name *content* (a string_view over the span's literal,
     * which outlives the buffers by the ScopedSpan contract), never by
     * the literal's address: two call sites naming one stage — even
     * from different translation units, where the linker may or may
     * not fold the identical literals — are one entry.  Pointer keys
     * here would make the stage count depend on build details
     * (pinned by test_telemetry's two-TU merge test).
     */
    std::unordered_map<std::string_view, Agg> aggs
        GRIFFIN_GUARDED_BY(mu);
};

/**
 * Cap on retained events per thread: a full-fidelity sweep can emit
 * per-tile spans by the million, and an unbounded trace would eat the
 * heap before the file is ever written.  ~4M events is ~100 MB of
 * buffer and far beyond what a trace viewer needs.
 */
constexpr std::size_t maxEventsPerThread = std::size_t(1) << 22;

struct TraceGlobal
{
    Mutex mu;
    std::vector<std::shared_ptr<ThreadTrace>> threads
        GRIFFIN_GUARDED_BY(mu);
    int nextTid GRIFFIN_GUARDED_BY(mu) = 1;
};

TraceGlobal &
traceGlobal()
{
    static TraceGlobal g;
    return g;
}

ThreadTrace &
threadTrace()
{
    thread_local ThreadTrace *trace = [] {
        auto owned = std::make_shared<ThreadTrace>();
        TraceGlobal &g = traceGlobal();
        MutexLock lock(g.mu);
        owned->tid = g.nextTid++;
        g.threads.push_back(owned);
        return owned.get();
    }();
    return *trace;
}

std::chrono::steady_clock::time_point
processEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

// Pin the epoch at static-init time so span timestamps measure from
// (approximately) process start even if the first span fires late.
[[maybe_unused]] const auto epoch_initialized = processEpoch();

} // namespace

std::uint64_t
monotonicNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - processEpoch())
            .count());
}

// ---- Histogram ------------------------------------------------------

void
Histogram::record(std::uint64_t v)
{
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t seen = min_.load(std::memory_order_relaxed);
    while (v < seen &&
           !min_.compare_exchange_weak(seen, v,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v,
                                       std::memory_order_relaxed)) {
    }
    int bucket = 0;
    while (bucket + 1 < bucketCount &&
           (std::uint64_t(1) << (bucket + 1)) <= v)
        ++bucket;
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

Histogram::Snapshot
Histogram::snapshot() const
{
    Snapshot s;
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    const auto min = min_.load(std::memory_order_relaxed);
    s.min = s.count == 0 ? 0 : min;
    s.max = max_.load(std::memory_order_relaxed);
    for (int b = 0; b < bucketCount; ++b)
        s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    return s;
}

void
Histogram::reset()
{
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(UINT64_MAX, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
}

// ---- MetricsRegistry ------------------------------------------------

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

MetricsRegistry::Slot &
MetricsRegistry::slot(const std::string &name, Kind kind)
{
    if (name.empty())
        panic("metric registration needs a name");
    MutexLock lock(mu_);
    auto it = slots_.find(name);
    if (it == slots_.end()) {
        Slot fresh;
        fresh.kind = kind;
        switch (kind) {
          case Kind::Counter:
            fresh.counter = std::make_unique<Counter>();
            break;
          case Kind::Gauge:
            fresh.gauge = std::make_unique<Gauge>();
            break;
          case Kind::Histogram:
            fresh.histogram = std::make_unique<Histogram>();
            break;
        }
        it = slots_.emplace(name, std::move(fresh)).first;
    }
    if (it->second.kind != kind)
        panic("metric '", name, "' registered as two different kinds");
    return it->second;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return *slot(name, Kind::Counter).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return *slot(name, Kind::Gauge).gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    return *slot(name, Kind::Histogram).histogram;
}

std::vector<MetricSnapshot>
MetricsRegistry::snapshot() const
{
    std::vector<MetricSnapshot> out;
    MutexLock lock(mu_);
    out.reserve(slots_.size());
    for (const auto &[name, slot] : slots_) {
        MetricSnapshot m;
        m.name = name;
        switch (slot.kind) {
          case Kind::Counter:
            m.kind = MetricSnapshot::Kind::Counter;
            m.counter = slot.counter->value();
            break;
          case Kind::Gauge:
            m.kind = MetricSnapshot::Kind::Gauge;
            m.gauge = slot.gauge->value();
            break;
          case Kind::Histogram:
            m.kind = MetricSnapshot::Kind::Histogram;
            m.histogram = slot.histogram->snapshot();
            break;
        }
        out.push_back(std::move(m));
    }
    return out;
}

void
MetricsRegistry::publishCacheStats(const std::string &prefix,
                                   const CacheStats &stats)
{
    gauge(prefix + ".hits").set(static_cast<double>(stats.hits));
    gauge(prefix + ".misses").set(static_cast<double>(stats.misses));
    gauge(prefix + ".hit_rate").set(stats.hitRate());
    gauge(prefix + ".entries").set(static_cast<double>(stats.entries));
    gauge(prefix + ".resident_bytes")
        .set(static_cast<double>(stats.residentBytes));
    gauge(prefix + ".evictions")
        .set(static_cast<double>(stats.evictions));
}

void
MetricsRegistry::reset()
{
    MutexLock lock(mu_);
    for (auto &[name, slot] : slots_) {
        static_cast<void>(name);
        switch (slot.kind) {
          case Kind::Counter:
            slot.counter->reset();
            break;
          case Kind::Gauge:
            slot.gauge->reset();
            break;
          case Kind::Histogram:
            slot.histogram->reset();
            break;
        }
    }
}

// ---- Telemetry ------------------------------------------------------

std::atomic<int> &
Telemetry::modeFlag()
{
    static std::atomic<int> mode{static_cast<int>(Mode::Off)};
    return mode;
}

Telemetry::Mode
Telemetry::mode()
{
    return static_cast<Mode>(
        modeFlag().load(std::memory_order_relaxed));
}

void
Telemetry::setMode(Mode mode)
{
    modeFlag().store(static_cast<int>(mode),
                     std::memory_order_relaxed);
}

void
Telemetry::record(const char *name, std::uint64_t start_ns,
                  std::uint64_t dur_ns)
{
    ThreadTrace &trace = threadTrace();
    MutexLock lock(trace.mu);
    auto &agg = trace.aggs[std::string_view(name)];
    ++agg.count;
    agg.totalNs += dur_ns;
    if (mode() != Mode::Full)
        return;
    if (trace.events.size() >= maxEventsPerThread) {
        ++trace.droppedEvents;
        return;
    }
    trace.events.push_back({name, start_ns, dur_ns});
}

std::vector<StageAgg>
Telemetry::stageBreakdown()
{
    // Merge every thread's per-stage totals; the std::map is the
    // deterministic (name-sorted) order every consumer renders in.
    std::map<std::string, StageAgg> merged;
    TraceGlobal &g = traceGlobal();
    MutexLock glock(g.mu);
    for (const auto &thread : g.threads) {
        MutexLock lock(thread->mu);
        for (const auto &[name, agg] : thread->aggs) {
            StageAgg &into = merged[std::string(name)];
            into.stage = std::string(name);
            into.count += agg.count;
            into.totalNs += agg.totalNs;
        }
    }
    std::vector<StageAgg> out;
    out.reserve(merged.size());
    for (auto &[name, agg] : merged) {
        static_cast<void>(name);
        out.push_back(std::move(agg));
    }
    return out;
}

void
Telemetry::writeChromeTrace(std::ostream &os)
{
    TraceGlobal &g = traceGlobal();
    MutexLock glock(g.mu);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    std::uint64_t dropped = 0;
    for (const auto &thread : g.threads) {
        MutexLock lock(thread->mu);
        dropped += thread->droppedEvents;
        if (thread->events.empty() && thread->aggs.empty())
            continue;
        os << (first ? "\n" : ",\n")
           << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << thread->tid
           << ", \"name\": \"thread_name\", \"args\": {\"name\": "
              "\"thread-"
           << thread->tid << "\"}}";
        first = false;
        for (const auto &e : thread->events) {
            os << ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": "
               << thread->tid << ", \"name\": \"" << e.name
               << "\", \"cat\": \"pipeline\", \"ts\": "
               << formatShortestDouble(
                      static_cast<double>(e.startNs) / 1e3)
               << ", \"dur\": "
               << formatShortestDouble(
                      static_cast<double>(e.durNs) / 1e3)
               << "}";
        }
    }
    if (!first)
        os << "\n";
    os << "]}\n";
    if (dropped > 0)
        warn("trace dropped ", dropped, " events past the ",
             maxEventsPerThread,
             "-per-thread cap; lower the fidelity for complete traces");
}

std::uint64_t
Telemetry::eventCount()
{
    std::uint64_t count = 0;
    TraceGlobal &g = traceGlobal();
    MutexLock glock(g.mu);
    for (const auto &thread : g.threads) {
        MutexLock lock(thread->mu);
        count += thread->events.size();
    }
    return count;
}

void
Telemetry::clear()
{
    TraceGlobal &g = traceGlobal();
    MutexLock glock(g.mu);
    for (const auto &thread : g.threads) {
        MutexLock lock(thread->mu);
        thread->events.clear();
        thread->aggs.clear();
        thread->droppedEvents = 0;
    }
}

} // namespace griffin
