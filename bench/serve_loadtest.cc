/**
 * @file
 * Open-loop load test for the champion-serving inference server.
 *
 * Builds three synthetic champions (CartPole, LunarLander, Pendulum)
 * as real checkpoint directories, brings up a ChampionServer on an
 * ephemeral loopback port, then drives it over TCP: each of
 * --connections client connections issues requests at a fixed
 * --rate (requests/second, open loop — the schedule does not wait for
 * responses), mixing the three champions round-robin. Client-side
 * latency is measured send-to-response per request.
 *
 * Emits a JSON summary (default BENCH_serve.json) with client and
 * server percentiles, QPS, batching and cache statistics. Exits
 * non-zero if any response failed to decode or any request was
 * answered with an unexpected status, so CI can gate on the exit
 * code alone.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_args.hh"
#include "common/logging.hh"
#include "common/thread_annotations.hh"
#include "env/env_registry.hh"
#include "neat/population.hh"
#include "persist/checkpoint.hh"
#include "serve/latency.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

using namespace e3;
using namespace e3::serve;

namespace {

struct LoadOptions
{
    double seconds = 2.0;
    double ratePerConnection = 2000.0; // requests/second, open loop
    size_t connections = 4;
    size_t batch = 16;
    size_t cache = 2; // < champion count, so the LRU path is exercised
    std::string out = "BENCH_serve.json";
};

LoadOptions
parseArgs(int argc, char **argv)
{
    LoadOptions opt;
    ArgReader args(argc, argv,
                   "[--seconds s] [--rate r] [--connections n] "
                   "[--batch n] [--cache n] [--out f]");
    while (args.next()) {
        const std::string &key = args.key();
        if (key == "--seconds")
            opt.seconds = args.number(0.001, 86400.0);
        else if (key == "--rate")
            opt.ratePerConnection = args.number(1.0, 1e7);
        else if (key == "--connections")
            opt.connections = args.number<size_t>(1, 1024);
        else if (key == "--batch")
            opt.batch = args.number<size_t>(1, 4096);
        else if (key == "--cache")
            opt.cache = args.number<size_t>(1, 1 << 20);
        else if (key == "--out")
            opt.out = args.value();
        else
            args.unknown();
    }
    return opt;
}

/** Deterministic stand-in fitness: a pure function of the genome. */
void
assignFitness(Population &pop)
{
    for (auto &[key, genome] : pop.genomes())
        genome.fitness = 0.125 * key +
                         static_cast<double>(genome.nodes.size());
}

/**
 * Evolve a tiny population against @p envName's interface and write
 * its champion as a checkpoint directory the server can load. The
 * traffic mix needs champions with distinct interfaces and network
 * sizes, not strong policies, so a few stand-in generations suffice.
 */
std::string
makeChampionDir(const std::string &root, const std::string &envName,
                uint64_t seed)
{
    const EnvSpec *spec = findEnvSpec(envName);
    if (!spec)
        e3_fatal("unknown environment ", envName);
    NeatConfig cfg = NeatConfig::forTask(
        spec->numInputs, spec->numOutputs, spec->requiredFitness);
    cfg.populationSize = 32;
    Population pop(cfg, seed);
    for (int gen = 0; gen < 5; ++gen) {
        assignFitness(pop);
        pop.advance();
    }
    assignFitness(pop);

    persist::Checkpoint ck;
    ck.configHash =
        persist::fingerprint("serve-loadtest;" + envName);
    ck.generation = 5;
    ck.bestFitness = pop.best().fitness;
    ck.champion = pop.best();
    ck.population = pop.saveState();

    const std::string dir = root + "/" + envName;
    std::filesystem::remove_all(dir);
    assertOk(persist::writeCheckpoint(dir, ck, 1, nullptr));
    return dir;
}

/** Per-connection traffic driver: open-loop sender + response reader. */
class LoadConnection
{
  public:
    LoadConnection(uint16_t port, size_t index,
                   const std::vector<ChampionInfo> &champions)
        : index_(index), champions_(champions)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            e3_fatal("socket: ", std::strerror(errno));
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0)
            e3_fatal("connect: ", std::strerror(errno));
    }

    ~LoadConnection()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void
    start(double seconds, double rate)
    {
        // Load-generator threads, joined in finish(); the bench
        // driver owns their lifetime.
        // e3-lint: raw-thread-ok
        reader_ = std::thread([this] { readLoop(); });
        sender_ = std::thread( // e3-lint: raw-thread-ok
            [this, seconds, rate] { sendLoop(seconds, rate); });
    }

    /** Join the sender, wait for in-flight responses, stop reading. */
    void
    finish()
    {
        sender_.join();
        // Grace period for responses already in flight.
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(2);
        while (received_.load() < sent_.load() &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ::shutdown(fd_, SHUT_RDWR);
        reader_.join();
    }

    uint64_t sent() const { return sent_.load(); }
    uint64_t ok() const { return ok_.load(); }
    uint64_t otherStatus() const { return otherStatus_.load(); }
    uint64_t decodeErrors() const { return decodeErrors_.load(); }
    uint64_t unanswered() const
    {
        return sent_.load() - received_.load();
    }

    /** Copy of the retained samples (taken under the lock). */
    std::vector<double>
    latencies() const
    {
        e3::MutexLock lock(mutex_);
        return latencies_;
    }

  private:
    void
    sendLoop(double seconds, double rate)
    {
        const auto start = std::chrono::steady_clock::now();
        const auto end =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(seconds));
        uint64_t seq = 0;
        while (true) {
            // Open loop: request k is due at start + k/rate,
            // regardless of how fast responses come back.
            const auto due =
                start + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                static_cast<double>(seq) / rate));
            if (due >= end)
                break;
            std::this_thread::sleep_until(due);

            const ChampionInfo &champion =
                champions_[seq % champions_.size()];
            InferRequest req;
            req.requestId = (static_cast<uint64_t>(index_) << 32) | seq;
            req.fingerprint = champion.fingerprint;
            req.observation.resize(champion.numInputs);
            for (size_t i = 0; i < champion.numInputs; ++i)
                req.observation[i] =
                    0.01 * static_cast<double>((seq + i) % 100) - 0.5;

            const std::string wire = frame(encodeRequest(req));
            {
                e3::MutexLock lock(mutex_);
                sendTimes_[req.requestId] =
                    std::chrono::steady_clock::now();
            }
            size_t off = 0;
            while (off < wire.size()) {
                const ssize_t n = ::send(fd_, wire.data() + off,
                                         wire.size() - off,
                                         MSG_NOSIGNAL);
                if (n <= 0)
                    return; // server hung up; reader reports the rest
                off += static_cast<size_t>(n);
            }
            ++sent_;
            ++seq;
        }
    }

    void
    readLoop()
    {
        FrameReader frames;
        char buf[8192];
        while (true) {
            const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
            if (n <= 0)
                return;
            frames.feed(buf, static_cast<size_t>(n));
            while (true) {
                std::string payload;
                Result<bool> got = frames.next(payload);
                if (!got.ok()) {
                    ++decodeErrors_;
                    return;
                }
                if (!*got)
                    break;
                handleResponse(payload);
            }
        }
    }

    void
    handleResponse(const std::string &payload)
    {
        const auto now = std::chrono::steady_clock::now();
        Result<InferResponse> resp = decodeResponse(payload);
        if (!resp.ok()) {
            ++decodeErrors_;
            return;
        }
        ++received_;
        if (resp->status == StatusCode::Ok)
            ++ok_;
        else
            ++otherStatus_;
        e3::MutexLock lock(mutex_);
        auto it = sendTimes_.find(resp->requestId);
        if (it == sendTimes_.end()) {
            ++decodeErrors_; // response to a request we never sent
            return;
        }
        if (resp->status == StatusCode::Ok)
            latencies_.push_back(
                std::chrono::duration<double>(now - it->second)
                    .count());
        sendTimes_.erase(it);
    }

    int fd_ = -1;
    size_t index_;
    const std::vector<ChampionInfo> &champions_;
    std::thread sender_; // e3-lint: raw-thread-ok
    std::thread reader_; // e3-lint: raw-thread-ok
    mutable e3::Mutex mutex_;
    std::unordered_map<uint64_t,
                       std::chrono::steady_clock::time_point>
        sendTimes_ E3_GUARDED_BY(mutex_);
    std::vector<double> latencies_ E3_GUARDED_BY(mutex_);
    std::atomic<uint64_t> sent_{0};
    std::atomic<uint64_t> received_{0};
    std::atomic<uint64_t> ok_{0};
    std::atomic<uint64_t> otherStatus_{0};
    std::atomic<uint64_t> decodeErrors_{0};
};

std::string
jsonLatency(const std::vector<double> &samples)
{
    char buf[256];
    std::snprintf(
        buf, sizeof buf,
        "{\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f, "
        "\"max_ms\": %.4f, \"samples\": %zu}",
        percentile(samples, 0.50) * 1e3,
        percentile(samples, 0.95) * 1e3,
        percentile(samples, 0.99) * 1e3,
        samples.empty()
            ? 0.0
            : *std::max_element(samples.begin(), samples.end()) * 1e3,
        samples.size());
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const LoadOptions opt = parseArgs(argc, argv);

    const std::string root =
        std::filesystem::temp_directory_path().string() +
        "/e3_serve_loadtest";
    std::filesystem::create_directories(root);

    ServeOptions serveOpt;
    serveOpt.sources = {
        {makeChampionDir(root, "cartpole", 11), "cartpole"},
        {makeChampionDir(root, "lunar_lander", 12), "lunar_lander"},
        {makeChampionDir(root, "pendulum", 13), "pendulum"},
    };
    serveOpt.cacheCapacity = opt.cache;
    serveOpt.maxBatchSize = opt.batch;
    Result<std::unique_ptr<ChampionServer>> created =
        ChampionServer::create(serveOpt);
    if (!created.ok())
        e3_fatal("server: ", created.message());
    ChampionServer &server = **created;
    assertOk(server.listen(0));

    std::printf("serve_loadtest: %zu connections x %.0f req/s for "
                "%.1f s against 127.0.0.1:%u\n",
                opt.connections, opt.ratePerConnection, opt.seconds,
                server.port());
    for (const ChampionInfo &c : server.champions())
        std::printf("  champion %016" PRIx64 "  %-14s %zu->%zu\n",
                    c.fingerprint, c.envName.c_str(), c.numInputs,
                    c.numOutputs);

    const auto wallStart = std::chrono::steady_clock::now();
    std::vector<std::unique_ptr<LoadConnection>> conns;
    for (size_t i = 0; i < opt.connections; ++i)
        conns.push_back(std::make_unique<LoadConnection>(
            server.port(), i, server.champions()));
    for (auto &conn : conns)
        conn->start(opt.seconds, opt.ratePerConnection);
    for (auto &conn : conns)
        conn->finish();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallStart)
            .count();

    uint64_t sent = 0, ok = 0, otherStatus = 0,
             decodeErrors = 0, unanswered = 0;
    std::vector<double> clientLatencies;
    for (const auto &conn : conns) {
        sent += conn->sent();
        ok += conn->ok();
        otherStatus += conn->otherStatus();
        decodeErrors += conn->decodeErrors();
        unanswered += conn->unanswered();
        const std::vector<double> connLatencies = conn->latencies();
        clientLatencies.insert(clientLatencies.end(),
                               connLatencies.begin(),
                               connLatencies.end());
    }

    server.stop();
    const ServerCounters counters = server.counters();
    const BatcherStats batcher = server.batcherStats();
    const LatencySummary serverLatency = server.latency();

    const double qps = wall > 0.0 ? static_cast<double>(ok) / wall : 0.0;
    std::printf("client: sent %" PRIu64 "  ok %" PRIu64
                "  other %" PRIu64
                "  decode-errors %" PRIu64 "  unanswered %" PRIu64 "\n",
                sent, ok, otherStatus, decodeErrors, unanswered);
    std::printf("client: %.0f ok/s  p50 %.3f ms  p95 %.3f ms  "
                "p99 %.3f ms\n",
                qps, percentile(clientLatencies, 0.50) * 1e3,
                percentile(clientLatencies, 0.95) * 1e3,
                percentile(clientLatencies, 0.99) * 1e3);
    std::printf("server: %" PRIu64 " batches  max batch %zu  cache "
                "hits %" PRIu64 " misses %" PRIu64 " evictions %" PRIu64
                "\n",
                batcher.batches, batcher.maxBatchSize,
                server.cache().hits(), server.cache().misses(),
                server.cache().evictions());

    std::ofstream out(opt.out);
    if (!out)
        e3_fatal("cannot write ", opt.out);
    char line[512];
    out << "{\n  \"bench\": \"serve_loadtest\",\n";
    std::snprintf(line, sizeof line,
                  "  \"config\": {\"seconds\": %.2f, \"rate_per_"
                  "connection\": %.0f, \"connections\": %zu, "
                  "\"batch\": %zu, \"cache\": %zu},\n",
                  opt.seconds, opt.ratePerConnection, opt.connections,
                  opt.batch, opt.cache);
    out << line;
    out << "  \"champions\": [";
    for (size_t i = 0; i < server.champions().size(); ++i) {
        const ChampionInfo &c = server.champions()[i];
        std::snprintf(line, sizeof line,
                      "%s{\"env\": \"%s\", \"fingerprint\": "
                      "\"%016" PRIx64 "\"}",
                      i ? ", " : "", c.envName.c_str(), c.fingerprint);
        out << line;
    }
    out << "],\n";
    std::snprintf(line, sizeof line,
                  "  \"client\": {\"sent\": %" PRIu64 ", \"ok\": %" PRIu64
                  ", \"other_status\": "
                  "%" PRIu64 ", \"decode_errors\": %" PRIu64
                  ", \"unanswered\": %" PRIu64 ", \"ok_per_second\": "
                  "%.1f, \"latency\": %s},\n",
                  sent, ok, otherStatus, decodeErrors,
                  unanswered, qps,
                  jsonLatency(clientLatencies).c_str());
    out << line;
    std::snprintf(
        line, sizeof line,
        "  \"server\": {\"requests\": %" PRIu64 ", \"ok\": %" PRIu64
        ", \"protocol_errors\": %" PRIu64 ", \"batches\": %" PRIu64
        ", \"max_batch\": %zu, \"cache_hits\": %" PRIu64
        ", \"cache_misses\": %" PRIu64 ", \"cache_evictions\": "
        "%" PRIu64 ",\n",
        counters.requests, counters.ok, counters.protocolErrors,
        batcher.batches, batcher.maxBatchSize, server.cache().hits(),
        server.cache().misses(), server.cache().evictions());
    out << line;
    std::snprintf(line, sizeof line,
                  "    \"latency_p50_ms\": %.4f, \"latency_p99_ms\": "
                  "%.4f, \"latency_samples\": %zu}\n}\n",
                  serverLatency.p50 * 1e3, serverLatency.p99 * 1e3,
                  serverLatency.count);
    out << line;
    out.close();
    std::printf("wrote %s\n", opt.out.c_str());

    // Gate for CI: every response decoded, every request answered Ok,
    // and latency percentiles actually measured.
    if (decodeErrors > 0 || otherStatus > 0 || unanswered > 0) {
        std::fprintf(stderr,
                     "FAIL: protocol errors or unanswered requests\n");
        return 1;
    }
    if (ok == 0 || clientLatencies.empty()) {
        std::fprintf(stderr, "FAIL: no successful requests measured\n");
        return 1;
    }
    return 0;
}
