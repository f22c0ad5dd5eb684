#include "obs/trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/thread_annotations.hh"

namespace e3::obs {

namespace {

/** -1 = disabled, otherwise the active TraceDetail. */
std::atomic<int> g_detail{-1};

/** Global modeled-hardware cycle cursor (see traceClaimHwCycles). */
std::atomic<uint64_t> g_hwCycles{0};

const char *
categoryName(TraceDetail detail)
{
    switch (detail) {
      case TraceDetail::Phase: return "phase";
      case TraceDetail::Task: return "task";
      case TraceDetail::Hw: return "hw";
    }
    return "phase";
}

/** One buffered trace event; serialized only at flush time. */
struct Event
{
    char ph = 'X';      ///< 'X' complete, 'C' counter, 'i' instant
    int pid = 1;
    int tid = 0;
    double tsUs = 0.0;
    double durUs = 0.0; ///< 'X' only
    double value = 0.0; ///< 'C' only
    std::string name;
    const char *cat = "phase";
};

/**
 * Per-thread event buffer. The owning thread appends behind `mutex`
 * (uncontended except while a flush drains), so late appends from
 * still-running workers and the flusher never race.
 */
struct ThreadBuffer
{
    Mutex mutex;
    std::vector<Event> events E3_GUARDED_BY(mutex);
    /** Assigned once at registration, immutable after. */
    int tid = 0;
    std::string name E3_GUARDED_BY(mutex);
};

/** A virtual (modeled-hardware) process and its named threads. */
struct HwProcess
{
    int pid = 0;
    std::string name;
    std::map<std::string, int> tids;
    std::vector<std::pair<int, std::string>> tidNames;
};

struct Registry
{
    Mutex mutex;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers
        E3_GUARDED_BY(mutex);
    int nextTid E3_GUARDED_BY(mutex) = 1;
    std::map<std::string, HwProcess> hwProcesses E3_GUARDED_BY(mutex);
    int nextPid E3_GUARDED_BY(mutex) = 100;
};

Registry &
registry()
{
    static Registry instance;
    return instance;
}

std::chrono::steady_clock::time_point
anchor()
{
    static const auto start = std::chrono::steady_clock::now();
    return start;
}

ThreadBuffer &
localBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buffer;
    if (!buffer) {
        buffer = std::make_shared<ThreadBuffer>();
        Registry &reg = registry();
        MutexLock lock(reg.mutex);
        buffer->tid = reg.nextTid++;
        {
            MutexLock bufLock(buffer->mutex);
            buffer->name = "thread" + std::to_string(buffer->tid);
        }
        reg.buffers.push_back(buffer);
    }
    return *buffer;
}

void
push(Event event)
{
    ThreadBuffer &buffer = localBuffer();
    MutexLock lock(buffer.mutex);
    buffer.events.push_back(std::move(event));
}

void
appendNumber(std::string &out, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    out += buf;
}

void
appendEvent(std::string &out, const Event &e)
{
    out += "{\"ph\":\"";
    out += e.ph;
    out += "\",\"pid\":" + std::to_string(e.pid) +
           ",\"tid\":" + std::to_string(e.tid) + ",\"ts\":";
    appendNumber(out, e.tsUs);
    out += ",\"name\":" + jsonQuote(e.name) + ",\"cat\":\"";
    out += e.cat;
    out += "\"";
    if (e.ph == 'X') {
        out += ",\"dur\":";
        appendNumber(out, e.durUs);
    } else if (e.ph == 'C') {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.9g", e.value);
        out += ",\"args\":{\"value\":";
        out += buf;
        out += "}";
    } else if (e.ph == 'i') {
        out += ",\"s\":\"t\"";
    }
    out += "}";
}

void
appendMetadata(std::string &out, int pid, int tid, const char *kind,
               const std::string &name, bool &first)
{
    if (!first)
        out += ",\n";
    first = false;
    out += "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(tid) + ",\"ts\":0,\"name\":\"";
    out += kind;
    out += "\",\"args\":{\"name\":" + jsonQuote(name) + "}}";
}

} // namespace

bool
parseTraceDetail(const std::string &text, TraceDetail &out)
{
    if (text == "phase") {
        out = TraceDetail::Phase;
    } else if (text == "task") {
        out = TraceDetail::Task;
    } else if (text == "hw") {
        out = TraceDetail::Hw;
    } else {
        return false;
    }
    return true;
}

bool
traceEnabled()
{
    return g_detail.load(std::memory_order_relaxed) >= 0;
}

bool
traceEnabled(TraceDetail detail)
{
    return g_detail.load(std::memory_order_relaxed) >=
           static_cast<int>(detail);
}

double
traceNowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - anchor())
        .count();
}

void
traceStart(TraceDetail detail)
{
    anchor(); // pin the clock origin before any event
    Registry &reg = registry();
    {
        MutexLock lock(reg.mutex);
        for (auto &buffer : reg.buffers) {
            MutexLock bufLock(buffer->mutex);
            buffer->events.clear();
        }
        reg.hwProcesses.clear();
    }
    g_hwCycles.store(0, std::memory_order_relaxed);
    g_detail.store(static_cast<int>(detail),
                   std::memory_order_relaxed);
}

void
traceSetThreadName(const std::string &name)
{
    ThreadBuffer &buffer = localBuffer();
    MutexLock lock(buffer.mutex);
    buffer.name = name;
}

void
traceComplete(const char *name, TraceDetail detail, double tsUs,
              double durUs)
{
    if (!traceEnabled(detail))
        return;
    Event e;
    e.ph = 'X';
    e.tid = localBuffer().tid;
    e.tsUs = tsUs;
    e.durUs = durUs;
    e.name = name;
    e.cat = categoryName(detail);
    push(std::move(e));
}

void
traceCounter(const char *name, double value, TraceDetail detail)
{
    if (!traceEnabled(detail))
        return;
    Event e;
    e.ph = 'C';
    e.tid = localBuffer().tid;
    e.tsUs = traceNowUs();
    e.value = value;
    e.name = name;
    e.cat = categoryName(detail);
    push(std::move(e));
}

void
traceInstant(const char *name, TraceDetail detail)
{
    if (!traceEnabled(detail))
        return;
    Event e;
    e.ph = 'i';
    e.tid = localBuffer().tid;
    e.tsUs = traceNowUs();
    e.name = name;
    e.cat = categoryName(detail);
    push(std::move(e));
}

TraceTrack
traceTrack(const std::string &process, const std::string &thread)
{
    if (!traceEnabled(TraceDetail::Hw))
        return {};
    Registry &reg = registry();
    MutexLock lock(reg.mutex);
    auto [procIt, procNew] = reg.hwProcesses.try_emplace(process);
    HwProcess &proc = procIt->second;
    if (procNew) {
        proc.pid = reg.nextPid++;
        proc.name = process;
    }
    auto [tidIt, tidNew] =
        proc.tids.try_emplace(thread, 0);
    if (tidNew) {
        tidIt->second = static_cast<int>(proc.tids.size());
        proc.tidNames.emplace_back(tidIt->second, thread);
    }
    return {proc.pid, tidIt->second};
}

void
traceCompleteOn(const TraceTrack &track, const char *name, double tsUs,
                double durUs)
{
    if (!traceEnabled(TraceDetail::Hw) || track.pid == 0)
        return;
    Event e;
    e.ph = 'X';
    e.pid = track.pid;
    e.tid = track.tid;
    e.tsUs = tsUs;
    e.durUs = durUs;
    e.name = name;
    e.cat = "hw";
    push(std::move(e));
}

void
traceCounterOn(const TraceTrack &track, const char *name, double tsUs,
               double value)
{
    if (!traceEnabled(TraceDetail::Hw) || track.pid == 0)
        return;
    Event e;
    e.ph = 'C';
    e.pid = track.pid;
    e.tid = track.tid;
    e.tsUs = tsUs;
    e.value = value;
    e.name = name;
    e.cat = "hw";
    push(std::move(e));
}

uint64_t
traceClaimHwCycles(uint64_t cycles)
{
    return g_hwCycles.fetch_add(cycles, std::memory_order_relaxed);
}

std::string
traceStopToString()
{
    g_detail.store(-1, std::memory_order_relaxed);

    std::vector<Event> events;
    std::vector<std::pair<int, std::string>> threadNames;
    {
        Registry &reg = registry();
        MutexLock lock(reg.mutex);
        for (auto &buffer : reg.buffers) {
            MutexLock bufLock(buffer->mutex);
            for (auto &event : buffer->events)
                events.push_back(std::move(event));
            buffer->events.clear();
            threadNames.emplace_back(buffer->tid, buffer->name);
        }
        std::string out =
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        bool first = true;
        appendMetadata(out, 1, 0, "process_name", "e3", first);
        for (const auto &[tid, name] : threadNames)
            appendMetadata(out, 1, tid, "thread_name", name, first);
        for (const auto &[name, proc] : reg.hwProcesses) {
            appendMetadata(out, proc.pid, 0, "process_name", proc.name,
                           first);
            for (const auto &[tid, tname] : proc.tidNames)
                appendMetadata(out, proc.pid, tid, "thread_name",
                               tname, first);
        }
        reg.hwProcesses.clear();

        std::stable_sort(events.begin(), events.end(),
                         [](const Event &a, const Event &b) {
                             return a.tsUs < b.tsUs;
                         });
        for (const Event &event : events) {
            if (!first)
                out += ",\n";
            first = false;
            appendEvent(out, event);
        }
        out += "\n]}\n";
        return out;
    }
}

bool
traceStop(const std::string &path)
{
    const std::string json = traceStopToString();
    std::ofstream out(path);
    if (!out) {
        warn("cannot open trace file '", path, "' for writing");
        return false;
    }
    out << json;
    return static_cast<bool>(out);
}

void
traceReset()
{
    g_detail.store(-1, std::memory_order_relaxed);
    Registry &reg = registry();
    MutexLock lock(reg.mutex);
    for (auto &buffer : reg.buffers) {
        MutexLock bufLock(buffer->mutex);
        buffer->events.clear();
    }
    reg.hwProcesses.clear();
    g_hwCycles.store(0, std::memory_order_relaxed);
}

TraceSpan::TraceSpan(const char *name, TraceDetail detail)
    : name_(name), detail_(detail)
{
    if (!traceEnabled(detail_))
        return;
    active_ = true;
    startUs_ = traceNowUs();
}

TraceSpan::TraceSpan(const std::string &name, TraceDetail detail)
    : detail_(detail)
{
    if (!traceEnabled(detail_))
        return;
    owned_ = name;
    name_ = owned_.c_str();
    active_ = true;
    startUs_ = traceNowUs();
}

TraceSpan::~TraceSpan()
{
    if (!active_)
        return;
    traceComplete(name_, detail_, startUs_, traceNowUs() - startUs_);
}

} // namespace e3::obs
