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
 * a replicated batch engine (compileReplicated), and serves it through
 * a request batcher backed by an LRU compiled-network cache keyed on
 * the checkpoint manifest fingerprint — each group of same-champion
 * requests queued behind a busy worker is answered by one
 * activateBatch() call.
 *
 * Two front ends share one request path: submit()/infer() for
 * in-process callers (tests, the bench driver) and a length-prefixed
 * TCP protocol (serve/protocol.hh) via listen(). Shutdown is graceful:
 * stop() rejects new work with Draining, runs the queue dry, answers
 * everything accepted, then joins.
 *
 * Determinism contract: a response is a pure function of (champion
 * fingerprint, observation bytes) — bit-identical at any batch size,
 * thread count, or cache state.
 */

#ifndef E3_SERVE_SERVER_HH
#define E3_SERVE_SERVER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hh"
#include "common/thread_annotations.hh"
#include "nn/network.hh"
#include "obs/metrics.hh"
#include "serve/batcher.hh"
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

    /** Most queued same-champion requests one batch answers. */
    size_t maxBatchSize = 16;
    size_t maxQueueDepth = 256;

    /** Batcher worker threads. */
    size_t threads = 1;

    /** Refuse champions with verifier *warnings* too. */
    bool strictVerify = false;

    /**
     * An error naming the first unusable field: an empty source list,
     * or a zero cacheCapacity, maxBatchSize, maxQueueDepth or threads.
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
    uint64_t rejectedOverload = 0;
    uint64_t rejectedUnknown = 0;
    uint64_t rejectedBadRequest = 0;
    uint64_t rejectedDraining = 0;
    uint64_t protocolErrors = 0; ///< undecodable TCP payloads
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
     * Asynchronous in-process request. @p done runs exactly once, on
     * a batcher worker (or inline for rejected requests).
     */
    void submit(const InferRequest &request,
                std::function<void(const InferResponse &)> done);

    /** Blocking in-process request. */
    InferResponse infer(const InferRequest &request);

    /**
     * Start the TCP front end on @p port (0 picks an ephemeral port).
     * Call at most once.
     */
    Status listen(uint16_t port);

    /** Bound TCP port; 0 if listen() was not called. */
    uint16_t port() const { return port_; }

    /**
     * Graceful shutdown: stop accepting (new submissions answer
     * Draining), drain the queue, close connections, join all
     * threads. Idempotent; the destructor calls it.
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
    struct ChampionEntry
    {
        ChampionInfo info;
        NetworkDef def;
    };
    struct Connection;
    struct ConnectionThread;

    explicit ChampionServer(const ServeOptions &options);

    void evaluateBatch(std::vector<PendingRequest> &batch);
    const ChampionEntry *findChampion(uint64_t fingerprint) const;

    void acceptLoop();
    void connectionLoop(std::shared_ptr<Connection> conn);
    /** Join and drop connections whose loop has exited. */
    void reapFinishedConnections();

    ServeOptions options_;
    std::vector<ChampionInfo> champions_;
    std::vector<ChampionEntry> entries_;
    std::unique_ptr<GenomeCache> cache_;
    std::unique_ptr<Batcher> batcher_;
    LatencyRecorder latency_;

    mutable Mutex countersMutex_;
    ServerCounters counters_ E3_GUARDED_BY(countersMutex_);

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
