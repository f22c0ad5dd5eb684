/**
 * @file
 * src/obs tracing: Chrome trace-event JSON well-formedness (verified by
 * parsing the emitted document), span nesting, detail-level filtering,
 * counter ordering, virtual hardware tracks, the zero-allocation
 * disabled path, and concurrent emission from the worker pool.
 *
 * Tracing state is process-global, so every test starts from
 * traceReset() and ends disabled.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "e3/experiment.hh"
#include "env/env_registry.hh"
#include "mini_json.hh"
#include "obs/trace.hh"
#include "persist/checkpoint.hh"
#include "runtime/thread_pool.hh"
#include "serve/server.hh"

using namespace e3;
using namespace e3::obs;
using e3::test::JsonValue;
using e3::test::parseJson;

// ---------------------------------------------------------------------
// Global allocation counter for the disabled-path zero-allocation test.
// Replacing the (replaceable) global operator new/delete is the only
// way to observe allocations without instrumenting the product code.
// ---------------------------------------------------------------------

namespace {

std::atomic<long> g_allocations{0};

} // namespace

// Every replaced form below funnels through malloc/free consistently,
// but once the nothrow news are visible in this TU, GCC inlines both
// sides of libstdc++'s temporary buffers and flags the underlying
// free() as mismatched with "operator new". False positive here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

// The nothrow forms must be replaced too: libstdc++'s temporary
// buffers (std::stable_sort) allocate via new(nothrow) but release
// via plain operator delete, so leaving these to the default
// implementation splits an allocation across two allocators (ASan's
// alloc-dealloc-mismatch check catches exactly that).
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

/** RAII: every test starts clean and leaves tracing disabled. */
struct TraceSandbox
{
    TraceSandbox() { traceReset(); }
    ~TraceSandbox() { traceReset(); }
};

struct FlatEvent
{
    std::string ph;
    std::string name;
    int pid = 0;
    int tid = 0;
    double ts = 0.0;
    double dur = 0.0;
    double value = 0.0;
    std::string metaName; ///< args.name of 'M' records
};

/** Stop tracing, parse the document, and flatten traceEvents. */
std::vector<FlatEvent>
stopAndParse(std::string *rawOut = nullptr)
{
    const std::string json = traceStopToString();
    if (rawOut)
        *rawOut = json;
    JsonValue doc;
    EXPECT_TRUE(parseJson(json, doc)) << json.substr(0, 400);
    const JsonValue *unit = doc.find("displayTimeUnit");
    EXPECT_NE(unit, nullptr);
    const JsonValue *events = doc.find("traceEvents");
    EXPECT_NE(events, nullptr);
    std::vector<FlatEvent> out;
    if (!events || events->kind != JsonValue::Kind::Array)
        return out;
    for (const JsonValue &e : events->array) {
        FlatEvent flat;
        if (const JsonValue *v = e.find("ph"))
            flat.ph = v->string;
        if (const JsonValue *v = e.find("name"))
            flat.name = v->string;
        if (const JsonValue *v = e.find("pid"))
            flat.pid = static_cast<int>(v->number);
        if (const JsonValue *v = e.find("tid"))
            flat.tid = static_cast<int>(v->number);
        if (const JsonValue *v = e.find("ts"))
            flat.ts = v->number;
        if (const JsonValue *v = e.find("dur"))
            flat.dur = v->number;
        if (const JsonValue *args = e.find("args")) {
            if (const JsonValue *v = args->find("value"))
                flat.value = v->number;
            if (const JsonValue *v = args->find("name"))
                flat.metaName = v->string;
        }
        out.push_back(std::move(flat));
    }
    return out;
}

std::vector<FlatEvent>
named(const std::vector<FlatEvent> &events, const std::string &name)
{
    std::vector<FlatEvent> out;
    for (const auto &e : events) {
        if (e.name == name)
            out.push_back(e);
    }
    return out;
}

TEST(TraceDetailParse, AcceptsTheThreeLevels)
{
    TraceDetail detail = TraceDetail::Phase;
    EXPECT_TRUE(parseTraceDetail("phase", detail));
    EXPECT_EQ(detail, TraceDetail::Phase);
    EXPECT_TRUE(parseTraceDetail("task", detail));
    EXPECT_EQ(detail, TraceDetail::Task);
    EXPECT_TRUE(parseTraceDetail("hw", detail));
    EXPECT_EQ(detail, TraceDetail::Hw);
    EXPECT_FALSE(parseTraceDetail("verbose", detail));
    EXPECT_FALSE(parseTraceDetail("", detail));
}

TEST(Trace, DisabledByDefaultRecordsNothing)
{
    TraceSandbox sandbox;
    EXPECT_FALSE(traceEnabled());
    {
        TraceSpan span("ignored");
        traceCounter("ignored_counter", 1.0);
        traceInstant("ignored_instant");
    }
    const auto events = stopAndParse();
    for (const auto &e : events)
        EXPECT_EQ(e.ph, "M") << "unexpected event " << e.name;
}

TEST(Trace, DisabledPathAllocatesNothing)
{
    TraceSandbox sandbox;
    // Touch the thread-local buffer once so its lazy registration does
    // not count against the steady-state measurement.
    traceSetThreadName("alloc-test");
    const long before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 100; ++i) {
        TraceSpan span("hot");
        traceCounter("hot_counter", static_cast<double>(i));
        traceInstant("hot_instant");
        traceCompleteOn(TraceTrack{}, "hot_hw", 0.0, 1.0);
    }
    const long after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before);
}

TEST(Trace, SpanNestingIsContained)
{
    TraceSandbox sandbox;
    traceStart(TraceDetail::Phase);
    {
        TraceSpan outer("outer");
        {
            TraceSpan inner("inner");
            // Burn a little time so the spans have nonzero extent.
            volatile double sink = 0.0;
            for (int i = 0; i < 10000; ++i)
                sink = sink + static_cast<double>(i);
        }
    }
    const auto events = stopAndParse();
    const auto outers = named(events, "outer");
    const auto inners = named(events, "inner");
    ASSERT_EQ(outers.size(), 1u);
    ASSERT_EQ(inners.size(), 1u);
    EXPECT_EQ(outers[0].ph, "X");
    EXPECT_GE(inners[0].ts, outers[0].ts);
    EXPECT_LE(inners[0].ts + inners[0].dur,
              outers[0].ts + outers[0].dur + 1e-3);
}

TEST(Trace, DetailLevelFiltersEvents)
{
    TraceSandbox sandbox;
    traceStart(TraceDetail::Phase);
    EXPECT_TRUE(traceEnabled(TraceDetail::Phase));
    EXPECT_FALSE(traceEnabled(TraceDetail::Task));
    EXPECT_FALSE(traceEnabled(TraceDetail::Hw));
    {
        TraceSpan keep("phase_span", TraceDetail::Phase);
        TraceSpan drop("task_span", TraceDetail::Task);
        traceInstant("task_instant", TraceDetail::Task);
        EXPECT_EQ(traceTrack("hwproc", "hwthread").pid, 0);
    }
    const auto events = stopAndParse();
    EXPECT_EQ(named(events, "phase_span").size(), 1u);
    EXPECT_TRUE(named(events, "task_span").empty());
    EXPECT_TRUE(named(events, "task_instant").empty());
}

TEST(Trace, CounterSamplesKeepOrderAndValues)
{
    TraceSandbox sandbox;
    traceStart(TraceDetail::Phase);
    for (int i = 1; i <= 5; ++i)
        traceCounter("queue_depth", static_cast<double>(i));
    const auto samples = named(stopAndParse(), "queue_depth");
    ASSERT_EQ(samples.size(), 5u);
    for (size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(samples[i].ph, "C");
        EXPECT_DOUBLE_EQ(samples[i].value,
                         static_cast<double>(i + 1));
        if (i) {
            EXPECT_GE(samples[i].ts, samples[i - 1].ts);
        }
    }
}

TEST(Trace, StartDropsEventsFromThePreviousSession)
{
    TraceSandbox sandbox;
    traceStart(TraceDetail::Phase);
    traceInstant("stale", TraceDetail::Phase);
    traceStart(TraceDetail::Phase);
    traceInstant("fresh", TraceDetail::Phase);
    const auto events = stopAndParse();
    EXPECT_TRUE(named(events, "stale").empty());
    EXPECT_EQ(named(events, "fresh").size(), 1u);
}

TEST(Trace, VirtualHardwareTracksCarryMetadataAndTimestamps)
{
    TraceSandbox sandbox;
    traceStart(TraceDetail::Hw);
    const TraceTrack pu = traceTrack("INAX-test", "pu00");
    const TraceTrack dma = traceTrack("INAX-test", "dma");
    EXPECT_GE(pu.pid, 100);
    EXPECT_EQ(pu.pid, dma.pid);
    EXPECT_NE(pu.tid, dma.tid);
    // Same (process, thread) resolves to the same track.
    const TraceTrack again = traceTrack("INAX-test", "pu00");
    EXPECT_EQ(again.pid, pu.pid);
    EXPECT_EQ(again.tid, pu.tid);

    traceCompleteOn(pu, "infer", 100.0, 50.0);
    traceCounterOn(dma, "bytes", 100.0, 7.0);

    const auto events = stopAndParse();
    bool sawProcess = false;
    bool sawThread = false;
    for (const auto &e : events) {
        if (e.ph == "M" && e.metaName == "INAX-test")
            sawProcess = true;
        if (e.ph == "M" && e.metaName == "pu00" && e.pid == pu.pid)
            sawThread = true;
    }
    EXPECT_TRUE(sawProcess);
    EXPECT_TRUE(sawThread);

    const auto infers = named(events, "infer");
    ASSERT_EQ(infers.size(), 1u);
    EXPECT_DOUBLE_EQ(infers[0].ts, 100.0);
    EXPECT_DOUBLE_EQ(infers[0].dur, 50.0);
    EXPECT_EQ(infers[0].pid, pu.pid);
    EXPECT_EQ(infers[0].tid, pu.tid);
}

TEST(Trace, HwCycleCursorIsMonotonicAndResets)
{
    TraceSandbox sandbox;
    traceStart(TraceDetail::Hw);
    EXPECT_EQ(traceClaimHwCycles(10), 0u);
    EXPECT_EQ(traceClaimHwCycles(5), 10u);
    EXPECT_EQ(traceClaimHwCycles(0), 15u);
    traceStart(TraceDetail::Hw); // new session: cursor back to zero
    EXPECT_EQ(traceClaimHwCycles(3), 0u);
}

TEST(Trace, ConcurrentEmissionFromThePoolLosesNoEvents)
{
    TraceSandbox sandbox;
    traceStart(TraceDetail::Task);
    constexpr size_t n = 400;
    {
        runtime::ThreadPool pool(4);
        pool.parallelFor(n, [](size_t) {
            TraceSpan span("work", TraceDetail::Task);
        });
    }
    std::string raw;
    const auto events = stopAndParse(&raw);
    EXPECT_EQ(named(events, "work").size(), n) << raw.substr(0, 400);
    // The pool names its workers in the trace.
    bool sawWorker = false;
    for (const auto &e : events)
        sawWorker = sawWorker || (e.ph == "M" &&
                                  e.metaName.rfind("worker", 0) == 0);
    EXPECT_TRUE(sawWorker);
}

TEST(Trace, EscapesHostileSpanNames)
{
    TraceSandbox sandbox;
    traceStart(TraceDetail::Phase);
    const std::string hostile = "quote\" slash\\ newline\n tab\t";
    {
        TraceSpan span(hostile, TraceDetail::Phase);
    }
    std::string raw;
    const auto events = stopAndParse(&raw);
    JsonValue doc;
    ASSERT_TRUE(parseJson(raw, doc));
    bool found = false;
    for (const auto &e : events)
        found = found || (e.ph == "X" && e.name == hostile);
    EXPECT_TRUE(found);
}

TEST(Trace, StopWritesAParsableFile)
{
    TraceSandbox sandbox;
    traceStart(TraceDetail::Phase);
    {
        TraceSpan span("filed");
    }
    const std::string path =
        testing::TempDir() + "/e3_test_trace.json";
    ASSERT_TRUE(traceStop(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    JsonValue doc;
    EXPECT_TRUE(parseJson(buffer.str(), doc));
    std::remove(path.c_str());
}

/**
 * The observability contract (DESIGN.md §6): each phase-level entry
 * point emits its span. A checkpointed 2-generation run on two
 * threads, both checkpoint loads, and one in-process serve request,
 * traced at Task detail.
 */
TEST(Trace, PhaseEntryPointsEmitTheirSpans)
{
    TraceSandbox sandbox;
    const std::string dir = testing::TempDir() + "e3_trace_phases";
    std::filesystem::remove_all(dir);

    traceStart(TraceDetail::Task);
    ExperimentOptions options;
    options.populationSize = 16;
    options.maxGenerations = 2;
    options.threads = 2;
    options.checkpointDir = dir;
    options.checkpointEvery = 1;
    const RunResult run =
        runExperiment("lunar_lander", BackendKind::Cpu, options);
    ASSERT_EQ(run.generations, 2);
    const Result<persist::Checkpoint> champion =
        persist::loadLatestChampion(dir);
    ASSERT_TRUE(champion.ok()) << champion.message();
    const Result<persist::Checkpoint> latest =
        persist::loadLatestCheckpoint(dir, champion->configHash);
    ASSERT_TRUE(latest.ok()) << latest.message();
    const std::vector<FlatEvent> evolve = stopAndParse();
    for (const char *span :
         {"generation", "evaluate", "lane", "checkpoint_write"}) {
        EXPECT_FALSE(named(evolve, span).empty()) << span;
    }
    EXPECT_EQ(named(evolve, "checkpoint_load").size(), 2u);
    EXPECT_TRUE(named(evolve, "verify_plan").empty());

    // The server loads its champion in create(); trace only the
    // request.
    serve::ServeOptions serveOptions;
    serveOptions.sources = {{dir, "lunar_lander"}};
    Result<std::unique_ptr<serve::ChampionServer>> server =
        serve::ChampionServer::create(serveOptions);
    ASSERT_TRUE(server.ok()) << server.message();
    traceStart(TraceDetail::Task);
    serve::InferRequest request;
    request.requestId = 1;
    request.fingerprint = champion->configHash;
    request.observation.assign(envSpec("lunar_lander").numInputs, 0.0);
    EXPECT_EQ((*server)->infer(request).status, serve::StatusCode::Ok);
    EXPECT_EQ(named(stopAndParse(), "serve.batch").size(), 1u);
    std::filesystem::remove_all(dir);

    // The --verify gate certifies each generation's compiled plan
    // inside its own span.
    traceStart(TraceDetail::Task);
    ExperimentOptions verified;
    verified.populationSize = 16;
    verified.maxGenerations = 1;
    verified.verifyGenomes = true;
    runExperiment("lunar_lander", BackendKind::Cpu, verified);
    EXPECT_EQ(named(stopAndParse(), "verify_plan").size(), 1u);
}

} // namespace
