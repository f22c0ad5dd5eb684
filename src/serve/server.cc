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
     * Set once before the connection thread starts; closed and reset
     * only after that thread has joined. Only the connection thread
     * reads and writes it; stop() shuts its read side.
     */
    int fd = -1;

    /** Set when connectionLoop has returned; the thread can be joined. */
    std::atomic<bool> finished{false};

    /** Release the descriptor; only once the connection thread joined. */
    void
    closeSocket()
    {
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

namespace {

/** Write all of @p bytes to @p fd; false once the peer is gone. */
bool
sendAll(int fd, const std::string &bytes)
{
    size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += static_cast<size_t>(n);
    }
    return true;
}

/** Raise @p most to @p value if it is larger. */
void
raiseTo(std::atomic<size_t> &most, size_t value)
{
    size_t seen = most.load(std::memory_order_relaxed);
    while (seen < value &&
           !most.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed))
    {
    }
}

} // namespace

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
ChampionServer::submit(
    const InferRequest &request,
    const std::function<void(const InferResponse &)> &done)
{
    done(infer(request));
}

InferResponse
ChampionServer::infer(const InferRequest &request)
{
    const Clock::time_point received = Clock::now();
    Slot slot{request, {}, false};
    if (draining_.load(std::memory_order_acquire)) {
        counts_.requests.fetch_add(1, std::memory_order_relaxed);
        counts_.rejectedDraining.fetch_add(1, std::memory_order_relaxed);
        slot.response.status = StatusCode::Draining;
        slot.response.requestId = request.requestId;
        slot.response.message = "server is draining";
    } else {
        answer(std::span<Slot>(&slot, 1), received);
    }
    return std::move(slot.response);
}

void
ChampionServer::answer(std::span<Slot> slots, Clock::time_point received)
{
    for (Slot &slot : slots) {
        if (slot.answered)
            continue;
        counts_.requests.fetch_add(1, std::memory_order_relaxed);
        InferResponse &reject = slot.response;
        reject.requestId = slot.request.requestId;
        const ChampionEntry *entry =
            findChampion(slot.request.fingerprint);
        if (!entry) {
            reject.status = StatusCode::UnknownChampion;
            reject.message = detail::format(
                "no champion with fingerprint ", slot.request.fingerprint);
            counts_.rejectedUnknown.fetch_add(1,
                                              std::memory_order_relaxed);
            slot.answered = true;
        } else if (slot.request.observation.size() !=
                   entry->info.numInputs) {
            reject.status = StatusCode::BadRequest;
            reject.message = detail::format(
                "expected ", entry->info.numInputs, " observations for ",
                entry->info.envName, ", got ",
                slot.request.observation.size());
            counts_.rejectedBadRequest.fetch_add(
                1, std::memory_order_relaxed);
            slot.answered = true;
        }
    }

    // The oldest unanswered request pins each group's champion; the
    // later requests for it join, up to maxBatchSize.
    std::vector<Slot *> batch;
    batch.reserve(std::min(slots.size(), options_.maxBatchSize));
    for (size_t first = 0; first < slots.size(); ++first) {
        if (slots[first].answered)
            continue;
        const uint64_t fingerprint = slots[first].request.fingerprint;
        batch.clear();
        for (size_t i = first;
             i < slots.size() && batch.size() < options_.maxBatchSize;
             ++i) {
            if (!slots[i].answered &&
                slots[i].request.fingerprint == fingerprint)
                batch.push_back(&slots[i]);
        }
        evaluateBatch(batch, received);
    }
}

E3_HOT void
ChampionServer::evaluateBatch(std::span<Slot *const> batch,
                              Clock::time_point received)
{
    obs::TraceSpan batchSpan("serve.batch", obs::TraceDetail::Task);
    const ChampionEntry *entry =
        findChampion(batch.front()->request.fingerprint);
    // answer() verified the fingerprint before grouping; entries are
    // immutable after create(), so this lookup cannot fail.
    e3_assert(entry != nullptr, "batched request for an unknown champion");

    // The steady-state acquire() is an O(1) cache hit touching one
    // LRU list node; compile-on-miss is the documented cold path.
    Result<std::shared_ptr<CompiledChampion>> acquired =
        cache_->acquire(entry->info.fingerprint, entry->def,
                        NetworkCompileOptions{});
    if (!acquired.ok()) {
        // Champions are verify-gated at load, so this is close to
        // unreachable — but a def that no longer compiles must answer
        // its requests, not crash the serving loop.
        warn("serve: champion ", entry->info.fingerprint,
             " failed to compile: ", acquired.message());
        for (Slot *slot : batch) {
            slot->response.status = StatusCode::BadRequest;
            slot->answered = true;
        }
        counts_.rejectedBadRequest.fetch_add(batch.size(),
                                             std::memory_order_relaxed);
        return;
    }
    const std::shared_ptr<CompiledChampion> compiled =
        std::move(acquired).value();

    // The whole group lands in one activateBatch() call under the
    // champion's eval mutex: activation is a pure function of (def,
    // observation), so each response is bit-identical no matter how
    // requests were grouped.
    BatchNetwork &net = *compiled->batch;
    e3_assert(batch.size() <= net.lanes(),
              "a batch holds at most maxBatchSize requests");
    const size_t numIn = net.numInputs();
    const size_t numOut = net.numOutputs();
    {
        MutexLock evalLock(compiled->evalMutex);
        std::vector<double> &inBuf = compiled->inScratch;
        std::vector<double> &outBuf = compiled->outScratch;
        for (size_t i = 0; i < batch.size(); ++i) {
            const Observation &obs = batch[i]->request.observation;
            std::copy(obs.begin(), obs.end(),
                      inBuf.begin() + static_cast<long>(i * numIn));
        }
        net.reset();
        net.activateBatch(batch.size(), inBuf.data(), numIn,
                          outBuf.data(), numOut);
        for (size_t i = 0; i < batch.size(); ++i) {
            InferResponse &response = batch[i]->response;
            response.status = StatusCode::Ok;
            response.action.assign(
                outBuf.begin() + static_cast<long>(i * numOut),
                outBuf.begin() + static_cast<long>((i + 1) * numOut));
            batch[i]->answered = true;
        }
    }

    const double seconds =
        std::chrono::duration<double>(Clock::now() - received).count();
    for (size_t i = 0; i < batch.size(); ++i)
        latency_.record(seconds);
    counts_.ok.fetch_add(batch.size(), std::memory_order_relaxed);
    counts_.batches.fetch_add(1, std::memory_order_relaxed);
    counts_.batchedRequests.fetch_add(batch.size(),
                                      std::memory_order_relaxed);
    raiseTo(counts_.maxBatchSize, batch.size());
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
                                    connectionLoop(*conn);
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
ChampionServer::connectionLoop(const Connection &conn)
{
    obs::traceSetThreadName("serve-conn");
    FrameReader reader;
    std::vector<Slot> slots;
    std::string out;
    char buf[4096];
    bool open = true;
    while (open && !draining_.load(std::memory_order_acquire)) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        const Clock::time_point received = Clock::now();
        reader.feed(buf, static_cast<size_t>(n));
        slots.clear();
        for (;;) {
            std::string payload;
            Result<bool> got = reader.next(payload);
            if (got.ok() && !*got)
                break;
            Result<InferRequest> request =
                got.ok() ? decodeRequest(payload)
                         : Result<InferRequest>(Status::error(got.message()));
            if (request.ok()) {
                slots.push_back({std::move(request).value(), {}, false});
                continue;
            }
            // An undecodable payload answers BadRequest in its turn;
            // broken framing also ends the connection once this read
            // is answered, since the stream cannot be resynchronized.
            Slot bad;
            bad.response.status = StatusCode::BadRequest;
            bad.response.message = request.message();
            bad.answered = true;
            slots.push_back(std::move(bad));
            counts_.protocolErrors.fetch_add(1, std::memory_order_relaxed);
            if (!got.ok()) {
                open = false;
                break;
            }
        }
        if (slots.empty())
            continue; // the read ended mid-frame
        answer(slots, received);

        // The read's answers leave in one write, with no lock held: a
        // client that stops reading stalls only its own connection.
        obs::TraceSpan writeSpan("serve.write", obs::TraceDetail::Task);
        out.clear();
        for (const Slot &slot : slots)
            out += frame(encodeResponse(slot.response));
        if (!sendAll(conn.fd, out))
            break;
    }
    ::shutdown(conn.fd, SHUT_RDWR);
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
    // From here in-process requests answer Draining. Close the listener
    // so no new connections arrive, then shut the read side of each
    // connection: its thread answers the frames it has already read
    // and exits.
    draining_.store(true, std::memory_order_release);
    if (listenFd_ >= 0) {
        ::shutdown(listenFd_, SHUT_RDWR);
        ::close(listenFd_);
    }
    {
        MutexLock lock(connectionsMutex_);
        for (ConnectionThread &c : connections_)
            ::shutdown(c.conn->fd, SHUT_RD);
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
    ServerCounters c;
    c.requests = counts_.requests.load(std::memory_order_relaxed);
    c.ok = counts_.ok.load(std::memory_order_relaxed);
    c.rejectedUnknown =
        counts_.rejectedUnknown.load(std::memory_order_relaxed);
    c.rejectedBadRequest =
        counts_.rejectedBadRequest.load(std::memory_order_relaxed);
    c.rejectedDraining =
        counts_.rejectedDraining.load(std::memory_order_relaxed);
    c.protocolErrors =
        counts_.protocolErrors.load(std::memory_order_relaxed);
    return c;
}

BatcherStats
ChampionServer::batcherStats() const
{
    BatcherStats b;
    b.batches = counts_.batches.load(std::memory_order_relaxed);
    b.batchedRequests =
        counts_.batchedRequests.load(std::memory_order_relaxed);
    b.maxBatchSize = counts_.maxBatchSize.load(std::memory_order_relaxed);
    return b;
}

void
ChampionServer::exportMetrics(obs::MetricsRegistry &registry) const
{
    const ServerCounters c = counters();
    registry.setCounter("serve.requests",
                        static_cast<double>(c.requests));
    registry.setCounter("serve.ok", static_cast<double>(c.ok));
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
