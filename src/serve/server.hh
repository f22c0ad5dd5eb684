/**
 * @file
 * Champion-serving inference server.
 *
 * The deployment half of the paper's edge story: a controller evolved
 * on-device (and persisted via src/persist checkpoints) answers
 * observation -> action requests. ChampionServer loads the champion of
 * each configured checkpoint directory, gates it through the src/verify
 * static analyzer (an artifact with verification errors is never
 * served — the load returns a tagged error instead), compiles it into
 * a replicated batch engine (compileReplicated) held in an LRU
 * compiled-network cache keyed on the checkpoint manifest fingerprint,
 * and answers each request on the thread that read it: no queue, no
 * hand-off to a worker.
 *
 * Two front ends share one request path: submit()/infer() for
 * in-process callers (tests, the bench driver) evaluate on the
 * caller's thread, and a length-prefixed TCP protocol
 * (serve/protocol.hh) via listen() gives each connection a thread that
 * decodes every complete frame of a read, answers the same-champion
 * requests among them in groups of up to maxBatchSize (one
 * activateBatch() call each), and writes the read's responses with one
 * send(). Shutdown is graceful: stop() makes new submit() calls answer
 * Draining, shuts the read side of every connection, lets each
 * connection thread answer the frames it has read, then joins.
 *
 * Determinism contract: a response is a pure function of (champion
 * fingerprint, observation bytes) — bit-identical at any batch size,
 * connection count, or cache state.
 */

#ifndef E3_SERVE_SERVER_HH
#define E3_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/result.hh"
#include "common/thread_annotations.hh"
#include "nn/network.hh"
#include "obs/metrics.hh"
#include "serve/genome_cache.hh"
#include "serve/latency.hh"
#include "serve/protocol.hh"

namespace e3::serve {

/** One champion to load: a checkpoint directory plus its task. */
struct ChampionSource
{
    std::string checkpointDir;
    std::string envName; ///< registry key, e.g. "cartpole"
};

struct ServeOptions
{
    std::vector<ChampionSource> sources;

    /** Compiled networks kept resident (LRU beyond this). */
    size_t cacheCapacity = 8;

    /** Most same-champion requests of one TCP read one batch answers. */
    size_t maxBatchSize = 16;

    /**
     * Ignored: each request runs on the thread that read it, so there
     * is no queue to bound and no worker pool to size. Kept only so
     * hostbench's serve driver compiles; goes once that driver may
     * change.
     */
    size_t maxQueueDepth = 256;
    size_t threads = 1;

    /** Refuse champions with verifier *warnings* too. */
    bool strictVerify = false;

    /**
     * An error naming the first unusable field: an empty source list,
     * or a zero cacheCapacity or maxBatchSize.
     */
    Status validate() const;
};

/** What the server knows about one loaded champion. */
struct ChampionInfo
{
    uint64_t fingerprint = 0; ///< checkpoint manifest hash
    std::string envName;
    std::string checkpointDir;
    size_t numInputs = 0;
    size_t numOutputs = 0;
    int generation = 0;       ///< generation the checkpoint resumed at
    double bestFitness = 0.0;
};

/** Aggregate request counters (see also BatcherStats, GenomeCache). */
struct ServerCounters
{
    uint64_t requests = 0;
    uint64_t ok = 0;
    /** Always 0: nothing is queued. Kept because hostbench reads it. */
    uint64_t rejectedOverload = 0;
    uint64_t rejectedUnknown = 0;
    uint64_t rejectedBadRequest = 0;
    uint64_t rejectedDraining = 0;
    uint64_t protocolErrors = 0; ///< undecodable TCP payloads
};

/**
 * How requests were grouped (monotonic). A batch is the same-champion
 * requests of one TCP read, at most maxBatchSize of them, answered by
 * one activateBatch() call; an in-process request is a batch of one.
 */
struct BatcherStats
{
    uint64_t batches = 0;
    uint64_t batchedRequests = 0;
    size_t maxBatchSize = 0; ///< largest batch so far
};

class ChampionServer
{
  public:
    /**
     * Validate @p options, then load, verify and index every
     * configured champion. Any source that fails — unreadable
     * checkpoint, no champion recorded, unknown environment, or a
     * genome the verifier rejects — fails the whole create with a
     * tagged error (a server must never come up silently missing a
     * champion).
     */
    static Result<std::unique_ptr<ChampionServer>>
    create(const ServeOptions &options);

    ~ChampionServer();

    ChampionServer(const ChampionServer &) = delete;
    ChampionServer &operator=(const ChampionServer &) = delete;

    /** Loaded champions, in source order. */
    const std::vector<ChampionInfo> &champions() const
    {
        return champions_;
    }

    /**
     * In-process request, evaluated on the caller's thread: @p done
     * runs exactly once, before submit() returns.
     */
    void submit(const InferRequest &request,
                const std::function<void(const InferResponse &)> &done);

    /** In-process request; Draining once stop() has begun. */
    InferResponse infer(const InferRequest &request);

    /**
     * Start the TCP front end on @p port (0 picks an ephemeral port).
     * Call at most once.
     */
    Status listen(uint16_t port);

    /** Bound TCP port; 0 if listen() was not called. */
    uint16_t port() const { return port_; }

    /**
     * Graceful shutdown: close the listener, make new submissions
     * answer Draining, shut the read side of every connection, and
     * join each connection thread once it has answered every frame it
     * read. Idempotent; the destructor calls it.
     */
    void stop();

    ServerCounters counters() const;
    BatcherStats batcherStats() const;

    /**
     * TCP connections the server still holds, open or finished but not
     * yet reaped. The accept loop reaps finished ones before admitting
     * the next, so this stays near the number of open clients.
     */
    size_t connectionCount() const;
    const GenomeCache &cache() const { return *cache_; }
    LatencySummary latency() const { return latency_.summarize(); }

    /** Publish counters/gauges into @p registry under "serve.". */
    void exportMetrics(obs::MetricsRegistry &registry) const;

  private:
    using Clock = std::chrono::steady_clock;

    struct ChampionEntry
    {
        ChampionInfo info;
        NetworkDef def;
    };
    /** One request of a read (or one in-process call) and its answer. */
    struct Slot
    {
        InferRequest request;
        InferResponse response;
        bool answered = false;
    };
    struct Connection;
    struct ConnectionThread;

    explicit ChampionServer(const ServeOptions &options);

    /**
     * Answer every unanswered slot: reject what cannot run, then
     * evaluate the rest in same-champion groups of at most
     * maxBatchSize, each group formed from the oldest slot left and
     * the later ones for its champion. @p received starts each
     * request's latency sample.
     */
    void answer(std::span<Slot> slots, Clock::time_point received);
    void evaluateBatch(std::span<Slot *const> batch,
                       Clock::time_point received);
    const ChampionEntry *findChampion(uint64_t fingerprint) const;

    void acceptLoop();
    void connectionLoop(const Connection &conn);
    /** Join and drop connections whose loop has exited. */
    void reapFinishedConnections();

    ServeOptions options_;
    std::vector<ChampionInfo> champions_;
    std::vector<ChampionEntry> entries_;
    std::unique_ptr<GenomeCache> cache_;
    LatencyRecorder latency_;

    /** Counted lock-free; counters()/batcherStats() read a snapshot. */
    struct
    {
        std::atomic<uint64_t> requests{0};
        std::atomic<uint64_t> ok{0};
        std::atomic<uint64_t> rejectedUnknown{0};
        std::atomic<uint64_t> rejectedBadRequest{0};
        std::atomic<uint64_t> rejectedDraining{0};
        std::atomic<uint64_t> protocolErrors{0};
        std::atomic<uint64_t> batches{0};
        std::atomic<uint64_t> batchedRequests{0};
        std::atomic<size_t> maxBatchSize{0};
    } counts_;

    /** Set once stop() begins: submit() answers Draining. */
    std::atomic<bool> draining_{false};

    // TCP front end.
    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::thread acceptThread_;
    mutable Mutex connectionsMutex_;
    std::vector<ConnectionThread> connections_
        E3_GUARDED_BY(connectionsMutex_);
    bool stopped_ E3_GUARDED_BY(connectionsMutex_) = false;
};

} // namespace e3::serve

#endif // E3_SERVE_SERVER_HH
