#include "serve/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <future>
#include <iterator>

#include "common/hot.hh"
#include "common/logging.hh"
#include "neat/config.hh"
#include "obs/trace.hh"
#include "persist/checkpoint.hh"
#include "verify/verify.hh"

namespace e3::serve {

/** One accepted TCP client. */
struct ChampionServer::Connection
{
    /**
     * Set once before the connection thread starts, read lock-free by
     * connectionLoop's recv, and reset to -1 only by closeSocket()
     * after the connection thread has joined.
     */
    int fd = -1;
    Mutex writeMutex;
    bool open E3_GUARDED_BY(writeMutex) = true;

    /** Set when connectionLoop has returned; the thread can be joined. */
    std::atomic<bool> finished{false};

    /** Frame and send @p response; drops silently once closed. */
    void
    send(const InferResponse &response)
    {
        const std::string bytes = frame(encodeResponse(response));
        MutexLock lock(writeMutex);
        if (!open)
            return;
        size_t sent = 0;
        while (sent < bytes.size()) {
            // e3-lint: blocking-ok -- writeMutex exists precisely to serialize whole frames onto this socket
            const ssize_t n = ::send(fd, bytes.data() + sent,
                                     bytes.size() - sent, MSG_NOSIGNAL);
            if (n <= 0) {
                open = false;
                return;
            }
            sent += static_cast<size_t>(n);
        }
    }

    void
    shutdownAndClose()
    {
        MutexLock lock(writeMutex);
        if (fd >= 0) {
            ::shutdown(fd, SHUT_RDWR);
            open = false;
        }
    }

    /** Release the descriptor; only once the connection thread joined. */
    void
    closeSocket()
    {
        MutexLock lock(writeMutex);
        open = false;
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
};

/** An accepted connection and the thread running its loop. */
struct ChampionServer::ConnectionThread
{
    std::shared_ptr<Connection> conn;
    std::thread thread;
};

Status
ServeOptions::validate() const
{
    if (sources.empty())
        return Status::error("ServeOptions::sources is empty: serve "
                             "needs at least one champion (checkpoint "
                             "dir + env)");
    const std::pair<const char *, size_t> counts[] = {
        {"cacheCapacity", cacheCapacity},
        {"maxBatchSize", maxBatchSize},
        {"maxQueueDepth", maxQueueDepth},
        {"threads", threads},
    };
    for (const auto &[name, value] : counts) {
        if (value == 0)
            return Status::error("ServeOptions::", name,
                                 " must be at least 1");
    }
    return Status();
}

ChampionServer::ChampionServer(const ServeOptions &options)
    : options_(options),
      cache_(std::make_unique<GenomeCache>(options.cacheCapacity,
                                           options.maxBatchSize))
{
    Batcher::Options batcherOptions;
    batcherOptions.maxBatchSize = options.maxBatchSize;
    batcherOptions.maxQueueDepth = options.maxQueueDepth;
    batcherOptions.threads = options.threads;
    batcher_ = std::make_unique<Batcher>(
        batcherOptions, [this](std::vector<PendingRequest> &batch) {
            evaluateBatch(batch);
        });
}

Result<std::unique_ptr<ChampionServer>>
ChampionServer::create(const ServeOptions &options)
{
    if (Status st = options.validate(); !st.ok())
        return st;

    auto server =
        std::unique_ptr<ChampionServer>(new ChampionServer(options));

    for (const ChampionSource &source : options.sources) {
        const EnvSpec *spec = findEnvSpec(source.envName);
        if (!spec)
            return Status::error("unknown environment '",
                                 source.envName, "' for champion '",
                                 source.checkpointDir, "'");

        Result<persist::Checkpoint> checkpoint =
            persist::loadLatestChampion(source.checkpointDir);
        if (!checkpoint.ok())
            return Status::error("cannot load champion from '",
                                 source.checkpointDir,
                                 "': ", checkpoint.message());
        if (!checkpoint->champion)
            return Status::error("checkpoint '", source.checkpointDir,
                                 "' records no champion genome yet");
        const uint64_t fingerprint = checkpoint->configHash;

        // The verify gate: an uncertified genome is never served.
        const verify::Report report = verify::verifyGenome(
            *checkpoint->champion, verify::interfaceFor(*spec));
        if (report.failed(options.strictVerify))
            return Status::error(
                "champion in '", source.checkpointDir,
                "' failed verification (", report.errorCount(),
                " errors, ", report.warningCount(),
                " warnings):\n", verify::formatText(report));

        if (server->findChampion(fingerprint))
            return Status::error("duplicate champion fingerprint for '",
                                 source.checkpointDir, "'");

        const NeatConfig cfg = NeatConfig::forTask(
            spec->numInputs, spec->numOutputs, spec->requiredFitness);

        ChampionEntry entry;
        entry.def = checkpoint->champion->toNetworkDef(cfg);
        entry.info.fingerprint = fingerprint;
        entry.info.envName = source.envName;
        entry.info.checkpointDir = source.checkpointDir;
        entry.info.numInputs = spec->numInputs;
        entry.info.numOutputs = spec->numOutputs;
        entry.info.generation = checkpoint->generation;
        entry.info.bestFitness = checkpoint->bestFitness;
        server->entries_.push_back(std::move(entry));
        server->champions_.push_back(server->entries_.back().info);
    }
    return server;
}

ChampionServer::~ChampionServer()
{
    stop();
}

const ChampionServer::ChampionEntry *
ChampionServer::findChampion(uint64_t fingerprint) const
{
    for (const ChampionEntry &entry : entries_) {
        if (entry.info.fingerprint == fingerprint)
            return &entry;
    }
    return nullptr;
}

void
ChampionServer::submit(const InferRequest &request,
                       std::function<void(const InferResponse &)> done)
{
    {
        MutexLock lock(countersMutex_);
        ++counters_.requests;
    }

    InferResponse reject;
    reject.requestId = request.requestId;

    const ChampionEntry *entry = findChampion(request.fingerprint);
    if (!entry) {
        reject.status = StatusCode::UnknownChampion;
        reject.message = detail::format("no champion with fingerprint ",
                                        request.fingerprint);
        MutexLock lock(countersMutex_);
        ++counters_.rejectedUnknown;
    } else if (request.observation.size() != entry->info.numInputs) {
        reject.status = StatusCode::BadRequest;
        reject.message = detail::format(
            "expected ", entry->info.numInputs, " observations for ",
            entry->info.envName, ", got ", request.observation.size());
        MutexLock lock(countersMutex_);
        ++counters_.rejectedBadRequest;
    } else {
        PendingRequest pending;
        pending.request = request;
        pending.done = std::move(done);
        pending.enqueued = std::chrono::steady_clock::now();
        StatusCode reason = StatusCode::Ok;
        if (batcher_->submit(std::move(pending), reason))
            return;
        // Rejection leaves `pending` (and its callback) intact.
        reject.status = reason;
        reject.message = reason == StatusCode::Draining
                             ? "server is draining"
                             : "queue full, retry later";
        {
            MutexLock lock(countersMutex_);
            if (reason == StatusCode::Draining)
                ++counters_.rejectedDraining;
            else
                ++counters_.rejectedOverload;
        }
        pending.done(reject);
        return;
    }
    done(reject);
}

InferResponse
ChampionServer::infer(const InferRequest &request)
{
    std::promise<InferResponse> promise;
    std::future<InferResponse> future = promise.get_future();
    submit(request, [&promise](const InferResponse &response) {
        promise.set_value(response);
    });
    return future.get();
}

E3_HOT void
ChampionServer::evaluateBatch(std::vector<PendingRequest> &batch)
{
    obs::TraceSpan batchSpan("serve.batch", obs::TraceDetail::Task);
    const ChampionEntry *entry =
        findChampion(batch.front().request.fingerprint);
    // submit() verified the fingerprint before queueing; entries are
    // immutable after create(), so this lookup cannot fail.
    e3_assert(entry != nullptr, "batched request for an unknown champion");

    // The steady-state acquire() is an O(1) cache hit touching one
    // LRU list node; compile-on-miss is the documented cold path.
    Result<std::shared_ptr<CompiledChampion>> acquired =
        cache_->acquire(entry->info.fingerprint, // e3-lint: alloc-ok -- O(1) LRU hit; compile-on-miss is the cold path
                        entry->def, NetworkCompileOptions{});
    if (!acquired.ok()) {
        // Champions are verify-gated at load, so this is close to
        // unreachable — but a def that no longer compiles must answer
        // its requests, not crash the serving loop.
        warn("serve: champion ", entry->info.fingerprint,
             " failed to compile: ", acquired.message());
        for (PendingRequest &pending : batch) {
            InferResponse response;
            response.status = StatusCode::BadRequest;
            response.requestId = pending.request.requestId;
            {
                MutexLock lock(countersMutex_);
                ++counters_.rejectedBadRequest;
            }
            pending.done(response);
        }
        return;
    }
    const std::shared_ptr<CompiledChampion> compiled =
        std::move(acquired).value();

    // The whole group lands in one activateBatch() call per chunk of
    // lanes, under the champion's eval mutex: activation is a pure
    // function of (def, observation), so each response is bit-identical
    // no matter how requests were grouped.
    BatchNetwork &net = *compiled->batch;
    const size_t numIn = net.numInputs();
    const size_t numOut = net.numOutputs();
    MutexLock evalLock(compiled->evalMutex);
    std::vector<double> &inBuf = compiled->inScratch;
    std::vector<double> &outBuf = compiled->outScratch;
    for (size_t offset = 0; offset < batch.size();
         offset += net.lanes()) {
        const size_t count =
            std::min(net.lanes(), batch.size() - offset);
        for (size_t i = 0; i < count; ++i) {
            const Observation &obs =
                batch[offset + i].request.observation;
            std::copy(obs.begin(), obs.end(),
                      inBuf.begin() + static_cast<long>(i * numIn));
        }
        net.reset();
        net.activateBatch(count, inBuf.data(), numIn, outBuf.data(),
                          numOut);

        for (size_t i = 0; i < count; ++i) {
            obs::TraceSpan requestSpan("serve.infer",
                                       obs::TraceDetail::Task);
            PendingRequest &pending = batch[offset + i];
            InferResponse response;
            response.status = StatusCode::Ok;
            response.requestId = pending.request.requestId;
            response.action.assign(
                outBuf.begin() + static_cast<long>(i * numOut),
                outBuf.begin() + static_cast<long>((i + 1) * numOut));

            const auto now = std::chrono::steady_clock::now();
            latency_.record(
                std::chrono::duration<double>(now - pending.enqueued)
                    .count());
            {
                MutexLock lock(countersMutex_);
                ++counters_.ok;
            }
            pending.done(response);
        }
    }
}

Status
ChampionServer::listen(uint16_t port)
{
    if (listenFd_ >= 0)
        return Status::error("serve: listen() already called");

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return Status::error("serve: socket(): ",
                             std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const Status st = Status::error("serve: bind(", port,
                                        "): ", std::strerror(errno));
        ::close(fd);
        return st;
    }
    if (::listen(fd, 64) != 0) {
        const Status st = Status::error("serve: listen(): ",
                                        std::strerror(errno));
        ::close(fd);
        return st;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) !=
        0) {
        const Status st = Status::error("serve: getsockname(): ",
                                        std::strerror(errno));
        ::close(fd);
        return st;
    }
    listenFd_ = fd;
    port_ = ntohs(addr.sin_port);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return Status();
}

void
ChampionServer::acceptLoop()
{
    obs::traceSetThreadName("serve-accept");
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            return; // listener closed: shutting down
        reapFinishedConnections();
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        MutexLock lock(connectionsMutex_);
        if (stopped_) {
            ::close(fd);
            return;
        }
        connections_.push_back({conn, std::thread([this, conn] {
                                    connectionLoop(conn);
                                    conn->finished.store(
                                        true, std::memory_order_release);
                                })});
    }
}

void
ChampionServer::reapFinishedConnections()
{
    std::vector<ConnectionThread> done;
    {
        MutexLock lock(connectionsMutex_);
        const auto split = std::stable_partition(
            connections_.begin(), connections_.end(),
            [](const ConnectionThread &c) {
                return !c.conn->finished.load(std::memory_order_acquire);
            });
        done.assign(std::make_move_iterator(split),
                    std::make_move_iterator(connections_.end()));
        connections_.erase(split, connections_.end());
    }
    // The loops have returned, so these joins do not wait on a client.
    for (ConnectionThread &c : done) {
        c.thread.join();
        c.conn->closeSocket();
    }
}

size_t
ChampionServer::connectionCount() const
{
    MutexLock lock(connectionsMutex_);
    return connections_.size();
}

void
ChampionServer::connectionLoop(std::shared_ptr<Connection> conn)
{
    obs::traceSetThreadName("serve-conn");
    FrameReader reader;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        reader.feed(buf, static_cast<size_t>(n));
        for (;;) {
            std::string payload;
            Result<bool> got = reader.next(payload);
            if (!got.ok()) {
                // Oversized/garbled framing: answer once, then hang
                // up — the stream cannot be resynchronized.
                InferResponse bad;
                bad.status = StatusCode::BadRequest;
                bad.message = got.message();
                {
                    MutexLock lock(countersMutex_);
                    ++counters_.protocolErrors;
                }
                conn->send(bad);
                conn->shutdownAndClose();
                return;
            }
            if (!*got)
                break;
            Result<InferRequest> request = decodeRequest(payload);
            if (!request.ok()) {
                InferResponse bad;
                bad.status = StatusCode::BadRequest;
                bad.message = request.message();
                {
                    MutexLock lock(countersMutex_);
                    ++counters_.protocolErrors;
                }
                conn->send(bad);
                continue;
            }
            submit(*request, [conn](const InferResponse &response) {
                conn->send(response);
            });
        }
    }
    conn->shutdownAndClose();
}

void
ChampionServer::stop()
{
    {
        MutexLock lock(connectionsMutex_);
        if (stopped_)
            return;
        stopped_ = true;
    }
    // Wake and close the listener first so no new connections arrive,
    // then drain: everything already accepted is answered before the
    // workers exit, and new submissions answer Draining.
    if (listenFd_ >= 0) {
        ::shutdown(listenFd_, SHUT_RDWR);
        ::close(listenFd_);
    }
    batcher_->drain();
    {
        MutexLock lock(connectionsMutex_);
        for (ConnectionThread &c : connections_)
            c.conn->shutdownAndClose();
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    // The accept loop has exited, so nothing appends to the list
    // anymore; swap it out under the lock and join unlocked.
    std::vector<ConnectionThread> joined;
    {
        MutexLock lock(connectionsMutex_);
        joined.swap(connections_);
    }
    for (ConnectionThread &c : joined) {
        c.thread.join();
        c.conn->closeSocket();
    }
    listenFd_ = -1;
}

ServerCounters
ChampionServer::counters() const
{
    MutexLock lock(countersMutex_);
    return counters_;
}

BatcherStats
ChampionServer::batcherStats() const
{
    return batcher_->stats();
}

void
ChampionServer::exportMetrics(obs::MetricsRegistry &registry) const
{
    const ServerCounters c = counters();
    registry.setCounter("serve.requests",
                        static_cast<double>(c.requests));
    registry.setCounter("serve.ok", static_cast<double>(c.ok));
    registry.setCounter("serve.rejected_overload",
                        static_cast<double>(c.rejectedOverload));
    registry.setCounter("serve.rejected_unknown",
                        static_cast<double>(c.rejectedUnknown));
    registry.setCounter("serve.rejected_bad_request",
                        static_cast<double>(c.rejectedBadRequest));
    registry.setCounter("serve.rejected_draining",
                        static_cast<double>(c.rejectedDraining));
    registry.setCounter("serve.protocol_errors",
                        static_cast<double>(c.protocolErrors));

    const BatcherStats b = batcherStats();
    registry.setCounter("serve.batches",
                        static_cast<double>(b.batches));
    registry.setGauge("serve.batch_max",
                      static_cast<double>(b.maxBatchSize));
    registry.setGauge("serve.queue_depth",
                      static_cast<double>(b.queueDepth));

    registry.setCounter("serve.cache.hits",
                        static_cast<double>(cache_->hits()));
    registry.setCounter("serve.cache.misses",
                        static_cast<double>(cache_->misses()));
    registry.setCounter("serve.cache.evictions",
                        static_cast<double>(cache_->evictions()));
    registry.setGauge("serve.cache.resident",
                      static_cast<double>(cache_->size()));

    const LatencySummary l = latency();
    registry.setGauge("serve.latency_p50_ms", l.p50 * 1e3);
    registry.setGauge("serve.latency_p95_ms", l.p95 * 1e3);
    registry.setGauge("serve.latency_p99_ms", l.p99 * 1e3);
    registry.setGauge("serve.latency_max_ms", l.max * 1e3);
}

} // namespace e3::serve
