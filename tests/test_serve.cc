/**
 * @file
 * src/serve: wire-protocol round-trips (including truncated and
 * oversized frames), LRU cache behavior, the verify gate at champion
 * load, the TCP front end (pipelined reads answered in batches, a
 * client that stops reading, shutdown while a client streams), and the
 * headline guarantee — a response is a pure function of (champion
 * fingerprint, observation), bit-identical at any batch size,
 * connection count, or cache state.
 */

#include "serve/server.hh"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <set>
#include <thread>

#include "common/fs.hh"
#include "env/env_registry.hh"
#include "neat/population.hh"
#include "persist/checkpoint.hh"
#include "serve/genome_cache.hh"
#include "serve/latency.hh"
#include "serve/protocol.hh"

using namespace e3;
using namespace e3::serve;

namespace {

/** Fresh, empty scratch directory under the test temp root. */
std::string
scratchDir(const std::string &tag)
{
    const std::string dir = ::testing::TempDir() + "e3_serve_" + tag;
    std::filesystem::remove_all(dir);
    return dir;
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
 * its champion as a checkpoint directory the server can load.
 * @return the directory; fingerprintOf(dir) is its fingerprint.
 */
std::string
championDir(const std::string &envName, const std::string &tag,
            uint64_t seed = 7)
{
    const EnvSpec *spec = findEnvSpec(envName);
    EXPECT_NE(spec, nullptr) << envName;
    NeatConfig cfg = NeatConfig::forTask(
        spec->numInputs, spec->numOutputs, spec->requiredFitness);
    cfg.populationSize = 16;
    Population pop(cfg, seed);
    for (int gen = 0; gen < 3; ++gen) {
        assignFitness(pop);
        pop.advance();
    }
    assignFitness(pop);

    persist::Checkpoint ck;
    ck.configHash =
        persist::fingerprint("serve-test;" + envName + ";" + tag);
    ck.generation = 3;
    ck.bestFitness = pop.best().fitness;
    ck.champion = pop.best();
    ck.population = pop.saveState();

    const std::string dir = scratchDir(tag);
    EXPECT_TRUE(persist::writeCheckpoint(dir, ck, 2, nullptr).ok());
    return dir;
}

uint64_t
fingerprintOf(const std::string &dir)
{
    Result<persist::Checkpoint> head = persist::loadLatestChampion(dir);
    EXPECT_TRUE(head.ok()) << head.message();
    return head.ok() ? head->configHash : 0;
}

std::unique_ptr<ChampionServer>
serverFor(const std::vector<ChampionSource> &sources,
          size_t cacheCapacity = 8, size_t maxBatchSize = 16)
{
    ServeOptions opt;
    opt.sources = sources;
    opt.cacheCapacity = cacheCapacity;
    opt.maxBatchSize = maxBatchSize;
    Result<std::unique_ptr<ChampionServer>> server =
        ChampionServer::create(opt);
    EXPECT_TRUE(server.ok()) << server.message();
    return server.ok() ? std::move(*server) : nullptr;
}

std::vector<double>
observationFor(const std::string &envName, double fill = 0.25)
{
    const EnvSpec *spec = findEnvSpec(envName);
    std::vector<double> obs(spec->numInputs);
    for (size_t i = 0; i < obs.size(); ++i)
        obs[i] = fill + 0.0625 * static_cast<double>(i);
    return obs;
}

} // namespace

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripIsBitExact)
{
    InferRequest req;
    req.requestId = 0x1122334455667788ULL;
    req.fingerprint = 0xdeadbeefcafef00dULL;
    // Values chosen to catch any text/precision shortcut: negative
    // zero, a denormal, and an irrational double must survive bit-for-
    // bit, not just approximately.
    req.observation = {-0.0, 5e-324, 1.0 / 3.0, -1e308};

    Result<InferRequest> back = decodeRequest(encodeRequest(req));
    ASSERT_TRUE(back.ok()) << back.message();
    EXPECT_EQ(back->requestId, req.requestId);
    EXPECT_EQ(back->fingerprint, req.fingerprint);
    ASSERT_EQ(back->observation.size(), req.observation.size());
    for (size_t i = 0; i < req.observation.size(); ++i) {
        uint64_t a = 0, b = 0;
        std::memcpy(&a, &req.observation[i], sizeof a);
        std::memcpy(&b, &back->observation[i], sizeof b);
        EXPECT_EQ(a, b) << "observation " << i;
    }
}

TEST(ServeProtocol, ResponseRoundTrip)
{
    InferResponse resp;
    resp.status = StatusCode::Overloaded;
    resp.requestId = 42;
    resp.action = {0.5, -0.25};
    resp.message = "queue full";

    Result<InferResponse> back = decodeResponse(encodeResponse(resp));
    ASSERT_TRUE(back.ok()) << back.message();
    EXPECT_EQ(back->status, StatusCode::Overloaded);
    EXPECT_EQ(back->requestId, 42u);
    EXPECT_EQ(back->action, resp.action);
    EXPECT_EQ(back->message, "queue full");
}

TEST(ServeProtocol, TruncatedPayloadIsErrorNotCrash)
{
    InferRequest req;
    req.requestId = 1;
    req.fingerprint = 2;
    req.observation = {1.0, 2.0, 3.0};
    const std::string full = encodeRequest(req);
    for (size_t cut = 0; cut < full.size(); ++cut)
        EXPECT_FALSE(decodeRequest(full.substr(0, cut)).ok())
            << "cut at " << cut;

    // Declared arity larger than the bytes actually present.
    std::string lying = full;
    lying[20] = 0x7f; // numObs field (after kind + id + fingerprint)
    EXPECT_FALSE(decodeRequest(lying).ok());

    EXPECT_FALSE(decodeRequest("").ok());
    EXPECT_FALSE(decodeResponse("xy").ok());
}

TEST(ServeProtocol, UnknownKindRejected)
{
    InferRequest req;
    req.observation = {1.0};
    std::string payload = encodeRequest(req);
    payload[0] = 9; // not kInferKind
    EXPECT_FALSE(decodeRequest(payload).ok());
}

TEST(ServeProtocol, FrameReaderReassemblesByteByByte)
{
    InferRequest req;
    req.requestId = 77;
    req.fingerprint = 88;
    req.observation = {0.5, 0.75};
    const std::string wire =
        frame(encodeRequest(req)) + frame(encodeRequest(req));

    FrameReader reader;
    std::vector<std::string> payloads;
    for (char c : wire) {
        reader.feed(&c, 1);
        std::string payload;
        Result<bool> got = reader.next(payload);
        ASSERT_TRUE(got.ok()) << got.message();
        if (*got)
            payloads.push_back(payload);
    }
    ASSERT_EQ(payloads.size(), 2u);
    EXPECT_EQ(payloads[0], payloads[1]);
    EXPECT_TRUE(decodeRequest(payloads[0]).ok());
    EXPECT_EQ(reader.pending(), 0u);
}

TEST(ServeProtocol, OversizedFramePoisonsStream)
{
    // A length header above kMaxFrameBytes must fail before any
    // allocation and keep failing (no resync inside a byte stream).
    uint32_t huge = kMaxFrameBytes + 1;
    char header[4];
    std::memcpy(header, &huge, 4);

    FrameReader reader;
    reader.feed(header, 4);
    std::string payload;
    EXPECT_FALSE(reader.next(payload).ok());
    // Still poisoned after more (valid-looking) bytes arrive.
    const std::string good = frame(encodeRequest(InferRequest{}));
    reader.feed(good.data(), good.size());
    EXPECT_FALSE(reader.next(payload).ok());
}

// ---------------------------------------------------------------------
// Latency recorder
// ---------------------------------------------------------------------

TEST(ServeLatency, PercentilesOfKnownDistribution)
{
    std::vector<double> samples;
    for (int i = 1; i <= 100; ++i)
        samples.push_back(static_cast<double>(i));
    EXPECT_NEAR(percentile(samples, 0.50), 50.5, 1e-9);
    EXPECT_NEAR(percentile(samples, 0.0), 1.0, 1e-9);
    EXPECT_NEAR(percentile(samples, 1.0), 100.0, 1e-9);
    EXPECT_EQ(percentile({}, 0.5), 0.0);

    LatencyRecorder rec;
    for (double s : samples)
        rec.record(s * 1e-3);
    const LatencySummary sum = rec.summarize();
    EXPECT_EQ(sum.count, 100u);
    EXPECT_NEAR(sum.p50, 50.5e-3, 1e-9);
    EXPECT_NEAR(sum.min, 1e-3, 1e-12);
    EXPECT_NEAR(sum.max, 100e-3, 1e-12);
}

TEST(ServeLatency, ThinningKeepsMemoryBounded)
{
    LatencyRecorder rec(/*maxSamples=*/64);
    for (int i = 0; i < 10000; ++i)
        rec.record(1e-3);
    EXPECT_EQ(rec.count(), 10000u);
    const LatencySummary sum = rec.summarize();
    EXPECT_EQ(sum.count, 10000u); // counts every offered sample
    // The retained (thinned) set still reproduces the distribution.
    EXPECT_NEAR(sum.p50, 1e-3, 1e-12);
    EXPECT_NEAR(sum.min, 1e-3, 1e-12);
    EXPECT_NEAR(sum.max, 1e-3, 1e-12);
}

// ---------------------------------------------------------------------
// LRU genome cache
// ---------------------------------------------------------------------

namespace {

NetworkDef
tinyDef(const std::string &envName)
{
    const EnvSpec *spec = findEnvSpec(envName);
    NeatConfig cfg = NeatConfig::forTask(
        spec->numInputs, spec->numOutputs, spec->requiredFitness);
    cfg.populationSize = 4;
    Population pop(cfg, 3);
    assignFitness(pop);
    return pop.best().toNetworkDef(cfg);
}

} // namespace

TEST(ServeCache, LruEvictionOrderAndCounters)
{
    const NetworkDef def = tinyDef("cartpole");
    const NetworkCompileOptions copt;
    GenomeCache cache(/*capacity=*/2, /*batchLanes=*/4);

    auto a = cache.acquire(1, def, copt).value();
    auto b = cache.acquire(2, def, copt).value();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 0u);

    // Touch 1 so 2 becomes the LRU victim.
    EXPECT_EQ(cache.acquire(1, def, copt).value().get(), a.get());
    EXPECT_EQ(cache.hits(), 1u);

    auto c = cache.acquire(3, def, copt).value();
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));

    // Fingerprint-keyed: re-acquiring an evicted key recompiles.
    auto b2 = cache.acquire(2, def, copt).value();
    EXPECT_NE(b2.get(), b.get());
    EXPECT_EQ(cache.misses(), 4u);

    // The evicted entry stays usable via its shared_ptr — eviction
    // must never pull a network out from under a running batch.
    ASSERT_NE(b->batch, nullptr);
    EXPECT_EQ(b->batch->lanes(), 4u);
    b->batch->reset();
    const std::vector<double> obs = observationFor("cartpole");
    std::vector<double> out(b->batch->numOutputs());
    b->batch->activateLane(0, obs.data(), out.data());
    EXPECT_EQ(out.size(), findEnvSpec("cartpole")->numOutputs);
}

TEST(ServeCache, MalformedDefIsErrorNotCrash)
{
    NetworkDef def = tinyDef("cartpole");
    def.conns.push_back({-1, 999, 1.0}); // dangling endpoint
    GenomeCache cache(/*capacity=*/2);
    auto r = cache.acquire(7, def, NetworkCompileOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------
// Champion loading: the verify gate
// ---------------------------------------------------------------------

TEST(ServeLoad, LoadsVerifiedChampion)
{
    const std::string dir = championDir("cartpole", "load_ok");
    auto server = serverFor({{dir, "cartpole"}});
    ASSERT_NE(server, nullptr);
    ASSERT_EQ(server->champions().size(), 1u);
    const ChampionInfo &info = server->champions()[0];
    EXPECT_EQ(info.fingerprint, fingerprintOf(dir));
    EXPECT_EQ(info.envName, "cartpole");
    EXPECT_EQ(info.numInputs, 4u);
}

TEST(ServeLoad, RefusesChampionFailingVerify)
{
    // A champion wired to input -10, which cartpole (4 inputs) does
    // not have. The lenient checkpoint-load verification (unknown
    // interface) accepts it, so the genome reaches the serve gate —
    // which checks against the env's actual interface (E3V009) and
    // must refuse to serve it.
    const EnvSpec *spec = findEnvSpec("cartpole");
    NeatConfig cfg = NeatConfig::forTask(
        spec->numInputs, spec->numOutputs, spec->requiredFitness);
    cfg.populationSize = 8;
    Population pop(cfg, 5);
    assignFitness(pop);

    Genome corrupt = pop.best();
    ConnGene phantom;
    phantom.key = {-10, 0};
    phantom.weight = 0.5;
    corrupt.conns[phantom.key] = phantom;

    persist::Checkpoint ck;
    ck.configHash = persist::fingerprint("serve-test;bad-verify");
    ck.generation = 1;
    ck.champion = corrupt;
    ck.population = pop.saveState();
    const std::string dir = scratchDir("load_bad_verify");
    ASSERT_TRUE(persist::writeCheckpoint(dir, ck, 2, nullptr).ok());

    ServeOptions opt;
    opt.sources = {{dir, "cartpole"}};
    Result<std::unique_ptr<ChampionServer>> server =
        ChampionServer::create(opt);
    ASSERT_FALSE(server.ok());
    EXPECT_NE(server.message().find("failed verification"),
              std::string::npos)
        << server.message();
}

TEST(ServeLoad, RefusesCorruptCheckpointDir)
{
    const std::string dir = scratchDir("load_corrupt");
    ASSERT_TRUE(ensureDirectory(dir).ok());
    ASSERT_TRUE(
        atomicWriteFile(dir + "/MANIFEST", "not a manifest\n").ok());
    ServeOptions opt;
    opt.sources = {{dir, "cartpole"}};
    EXPECT_FALSE(ChampionServer::create(opt).ok());

    ServeOptions missing;
    missing.sources = {{scratchDir("never_created"), "cartpole"}};
    EXPECT_FALSE(ChampionServer::create(missing).ok());

    ServeOptions badEnv;
    badEnv.sources = {{championDir("cartpole", "load_badenv"),
                       "no_such_env"}};
    Result<std::unique_ptr<ChampionServer>> r =
        ChampionServer::create(badEnv);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.message().find("unknown environment"),
              std::string::npos);
}

TEST(ServeLoad, RefusesCheckpointWithoutChampion)
{
    NeatConfig cfg = NeatConfig::forTask(4, 1, 1e18);
    cfg.populationSize = 8;
    Population pop(cfg, 5);
    assignFitness(pop);
    persist::Checkpoint ck;
    ck.configHash = persist::fingerprint("serve-test;no-champ");
    ck.population = pop.saveState();
    const std::string dir = scratchDir("load_no_champion");
    ASSERT_TRUE(persist::writeCheckpoint(dir, ck, 2, nullptr).ok());

    ServeOptions opt;
    opt.sources = {{dir, "cartpole"}};
    Result<std::unique_ptr<ChampionServer>> r =
        ChampionServer::create(opt);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.message().find("champion"), std::string::npos);
}

namespace {

/** A directory holding two snapshots of one run: generations 3 and 6. */
struct TwoSnapshots
{
    std::string dir;
    std::string newestPath;
    double olderBest = 0.0;
    double newerBest = 0.0;
};

TwoSnapshots
twoSnapshotDir(const std::string &tag)
{
    NeatConfig cfg = NeatConfig::forTask(4, 1, 1e18);
    cfg.populationSize = 16;
    Population pop(cfg, 9);
    TwoSnapshots out;
    out.dir = scratchDir(tag);
    persist::Checkpoint ck;
    ck.configHash = persist::fingerprint("serve-test;" + tag);
    for (int gen = 1; gen <= 6; ++gen) {
        assignFitness(pop);
        if (gen == 3 || gen == 6) {
            ck.generation = gen;
            ck.bestFitness = pop.best().fitness;
            ck.champion = pop.best();
            ck.population = pop.saveState();
            EXPECT_TRUE(persist::writeCheckpoint(out.dir, ck, 2).ok());
            (gen == 3 ? out.olderBest : out.newerBest) = ck.bestFitness;
        }
        pop.advance();
    }
    EXPECT_NE(out.olderBest, out.newerBest);
    out.newestPath = out.dir + "/" + persist::checkpointFileName(6);
    return out;
}

/** Rewrite the snapshot at @p path through @p edit. */
template <typename Edit>
void
editSnapshot(const std::string &path, Edit edit)
{
    Result<std::string> text = readFile(path);
    ASSERT_TRUE(text.ok()) << text.message();
    std::string edited = *text;
    edit(edited);
    ASSERT_NE(edited, *text);
    ASSERT_TRUE(atomicWriteFile(path, edited).ok());
}

} // namespace

TEST(ServeLoad, ServesNewestSnapshotCutAfterItsChampion)
{
    // Serving reads a snapshot's head only, so a newest snapshot whose
    // population section is lost still serves its (intact) champion.
    const TwoSnapshots snaps = twoSnapshotDir("load_cut_after_champion");
    editSnapshot(snaps.newestPath, [](std::string &text) {
        const size_t population = text.find("\npopulation ");
        ASSERT_NE(population, std::string::npos);
        text.resize(population + 1);
        ASSERT_EQ(text.substr(text.size() - 4), "end\n");
    });
    auto server = serverFor({{snaps.dir, "cartpole"}});
    ASSERT_NE(server, nullptr);
    const ChampionInfo &info = server->champions()[0];
    EXPECT_EQ(info.generation, 6);
    EXPECT_EQ(info.bestFitness, snaps.newerBest);
}

TEST(ServeLoad, DamagedNewestChampionFallsBackToOlderSnapshot)
{
    // The champion is part of the head, so damage there falls back to
    // the next-newest snapshot as it does for resume.
    const TwoSnapshots snaps = twoSnapshotDir("load_bad_champion");
    editSnapshot(snaps.newestPath, [](std::string &text) {
        const size_t champion = text.find("\nchampion 1\n");
        ASSERT_NE(champion, std::string::npos);
        const size_t node = text.find("\nnode ", champion);
        ASSERT_NE(node, std::string::npos);
        text.replace(node + 1, 4, "nod3");
    });
    ::testing::internal::CaptureStderr();
    auto server = serverFor({{snaps.dir, "cartpole"}});
    const std::string err = ::testing::internal::GetCapturedStderr();
    ASSERT_NE(server, nullptr);
    EXPECT_NE(err.find("skipping checkpoint '" + snaps.newestPath),
              std::string::npos)
        << err;
    const ChampionInfo &info = server->champions()[0];
    EXPECT_EQ(info.generation, 3);
    EXPECT_EQ(info.bestFitness, snaps.olderBest);
}

namespace {

/** create() refuses @p opt, and the error names @p field. */
void
expectRefusedNaming(const ServeOptions &opt, const std::string &field)
{
    const Status st = opt.validate();
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find(field), std::string::npos)
        << st.message();
    Result<std::unique_ptr<ChampionServer>> server =
        ChampionServer::create(opt);
    ASSERT_FALSE(server.ok());
    EXPECT_EQ(server.message(), st.message());
}

ServeOptions
validOptions()
{
    ServeOptions opt;
    opt.sources = {{"ckpt", "cartpole"}};
    return opt;
}

} // namespace

TEST(ServeOptionsValidate, EmptySourcesNamed)
{
    ServeOptions opt = validOptions();
    opt.sources.clear();
    expectRefusedNaming(opt, "sources");
}

TEST(ServeOptionsValidate, ZeroCacheCapacityNamed)
{
    ServeOptions opt = validOptions();
    opt.cacheCapacity = 0;
    expectRefusedNaming(opt, "cacheCapacity");
}

TEST(ServeOptionsValidate, ZeroMaxBatchSizeNamed)
{
    ServeOptions opt = validOptions();
    opt.maxBatchSize = 0;
    expectRefusedNaming(opt, "maxBatchSize");
}

// ---------------------------------------------------------------------
// In-process request path
// ---------------------------------------------------------------------

TEST(ServeRequests, OkUnknownAndBadRequest)
{
    const std::string dir = championDir("cartpole", "req_basic");
    auto server = serverFor({{dir, "cartpole"}});
    ASSERT_NE(server, nullptr);
    const uint64_t fp = server->champions()[0].fingerprint;

    InferRequest req;
    req.requestId = 1;
    req.fingerprint = fp;
    req.observation = observationFor("cartpole");
    const InferResponse ok = server->infer(req);
    EXPECT_EQ(ok.status, StatusCode::Ok);
    EXPECT_EQ(ok.requestId, 1u);
    EXPECT_EQ(ok.action.size(),
              findEnvSpec("cartpole")->numOutputs);

    InferRequest unknown = req;
    unknown.requestId = 2;
    unknown.fingerprint = fp + 1;
    EXPECT_EQ(server->infer(unknown).status,
              StatusCode::UnknownChampion);

    InferRequest badArity = req;
    badArity.requestId = 3;
    badArity.observation.pop_back();
    EXPECT_EQ(server->infer(badArity).status, StatusCode::BadRequest);

    // submit() answers on the caller's thread, before it returns.
    bool answered = false;
    server->submit(req, [&](const InferResponse &resp) {
        EXPECT_EQ(resp.status, StatusCode::Ok);
        answered = true;
    });
    EXPECT_TRUE(answered);

    const ServerCounters counters = server->counters();
    EXPECT_EQ(counters.requests, 4u);
    EXPECT_EQ(counters.ok, 2u);
    EXPECT_EQ(counters.rejectedUnknown, 1u);
    EXPECT_EQ(counters.rejectedBadRequest, 1u);
}

TEST(ServeRequests, DrainingAfterStop)
{
    const std::string dir = championDir("cartpole", "req_drain");
    auto server = serverFor({{dir, "cartpole"}});
    ASSERT_NE(server, nullptr);
    InferRequest req;
    req.fingerprint = server->champions()[0].fingerprint;
    req.observation = observationFor("cartpole");
    EXPECT_EQ(server->infer(req).status, StatusCode::Ok);
    server->stop();
    EXPECT_EQ(server->infer(req).status, StatusCode::Draining);
}

TEST(ServeRequests, CacheCountersVisibleThroughServer)
{
    // Three champions, capacity two: round-robin traffic must evict.
    const std::string d1 = championDir("cartpole", "cache_1", 11);
    const std::string d2 = championDir("pendulum", "cache_2", 12);
    const std::string d3 = championDir("mountain_car", "cache_3", 13);
    auto server = serverFor(
        {{d1, "cartpole"}, {d2, "pendulum"}, {d3, "mountain_car"}},
        /*cacheCapacity=*/2);
    ASSERT_NE(server, nullptr);

    auto ask = [&](size_t which) {
        const ChampionInfo &info = server->champions()[which];
        InferRequest req;
        req.fingerprint = info.fingerprint;
        req.observation = observationFor(info.envName);
        EXPECT_EQ(server->infer(req).status, StatusCode::Ok)
            << info.envName;
    };
    for (int round = 0; round < 2; ++round)
        for (size_t which = 0; which < 3; ++which)
            ask(which);

    EXPECT_GE(server->cache().evictions(), 1u);
    EXPECT_GE(server->cache().misses(), 3u);
    EXPECT_LE(server->cache().size(), 2u);
    EXPECT_EQ(server->counters().ok, 6u);
    EXPECT_GE(server->latency().count, 6u);
}

// ---------------------------------------------------------------------
// Test client and batch-1 references
// ---------------------------------------------------------------------

namespace {

/** Minimal blocking client: framed requests out, framed responses in. */
class TestClient
{
  public:
    /** @param receiveBuffer SO_RCVBUF bytes to ask for; 0 keeps the default. */
    explicit TestClient(uint16_t port, int receiveBuffer = 0)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        if (receiveBuffer > 0)
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &receiveBuffer,
                         sizeof receiveBuffer);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::connect(fd_,
                            reinterpret_cast<sockaddr *>(&addr),
                            sizeof addr),
                  0)
            << strerror(errno);
    }

    ~TestClient() { close(); }

    void
    close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    /** Send all of @p bytes; false once the server is gone. */
    bool
    trySend(const std::string &bytes)
    {
        size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n = ::send(fd_, bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            off += static_cast<size_t>(n);
        }
        return true;
    }

    void sendRaw(const std::string &bytes) { ASSERT_TRUE(trySend(bytes)); }

    /** Give up on a read after @p seconds without data. */
    void
    setReadTimeout(int seconds)
    {
        timeval tv{};
        tv.tv_sec = seconds;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    }

    /** Read one response frame; an error on hangup or timeout. */
    Result<InferResponse>
    readResponse()
    {
        char buf[4096];
        while (true) {
            std::string payload;
            Result<bool> got = reader_.next(payload);
            if (!got.ok())
                return Status::error("poisoned: ", got.message());
            if (*got)
                return decodeResponse(payload);
            const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
            if (n <= 0)
                return Status::error("connection closed");
            reader_.feed(buf, static_cast<size_t>(n));
        }
    }

    Result<InferResponse>
    roundTrip(const InferRequest &req)
    {
        sendRaw(frame(encodeRequest(req)));
        return readResponse();
    }

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
    FrameReader reader_;
};

/** Bit patterns of an action vector, for exact comparison. */
std::vector<uint64_t>
bits(const std::vector<double> &action)
{
    std::vector<uint64_t> out(action.size());
    for (size_t i = 0; i < action.size(); ++i)
        std::memcpy(&out[i], &action[i], sizeof(uint64_t));
    return out;
}

/** Framed request for @p fingerprint with id @p id. */
std::string
framedRequest(uint64_t id, uint64_t fingerprint,
              const std::vector<double> &observation)
{
    InferRequest req;
    req.requestId = id;
    req.fingerprint = fingerprint;
    req.observation = observation;
    return frame(encodeRequest(req));
}

/**
 * Actions of @p observations for the champion in @p dir, answered one
 * at a time in process by a batch-1 server: the reference every
 * batched or concurrent answer must equal bit for bit.
 */
std::vector<std::vector<uint64_t>>
referenceActions(const std::string &dir, const std::string &envName,
                 const std::vector<std::vector<double>> &observations)
{
    std::vector<std::vector<uint64_t>> reference;
    auto server = serverFor({{dir, envName}}, /*cache=*/8, /*batch=*/1);
    EXPECT_NE(server, nullptr);
    if (!server)
        return reference;
    for (const std::vector<double> &obs : observations) {
        InferRequest req;
        req.fingerprint = server->champions()[0].fingerprint;
        req.observation = obs;
        const InferResponse resp = server->infer(req);
        EXPECT_EQ(resp.status, StatusCode::Ok);
        reference.push_back(bits(resp.action));
    }
    return reference;
}

} // namespace

// ---------------------------------------------------------------------
// Determinism: the acceptance criterion
// ---------------------------------------------------------------------

TEST(ServeDeterminism, BitIdenticalAcrossBatchSizeAndThreads)
{
    const std::string dir = championDir("cartpole", "det", 17);
    const uint64_t fp = fingerprintOf(dir);

    // Distinct observations, each with a reference action from the
    // simplest possible configuration (batch=1, one request at a time).
    std::vector<std::vector<double>> observations;
    for (int k = 0; k < 8; ++k)
        observations.push_back(
            observationFor("cartpole", 0.1 * k - 0.3));
    const std::vector<std::vector<uint64_t>> reference =
        referenceActions(dir, "cartpole", observations);
    ASSERT_EQ(reference.size(), observations.size());

    // Now hammer the same observations through aggressive batching:
    // concurrent clients, each pipelining every request in one write,
    // so reads carry many requests and clients contend for the
    // champion's eval mutex.
    constexpr size_t kRepeats = 20;
    const size_t total = observations.size() * kRepeats;
    std::string wire;
    for (size_t slot = 0; slot < total; ++slot)
        wire += framedRequest(slot, fp,
                              observations[slot % observations.size()]);
    for (size_t batch : {4u, 16u}) {
        for (size_t clients : {2u, 4u}) {
            auto server = serverFor({{dir, "cartpole"}},
                                    /*cache=*/8, batch);
            ASSERT_NE(server, nullptr);
            ASSERT_TRUE(server->listen(0).ok());

            std::vector<std::vector<InferResponse>> answers(clients);
            {
                // One thread per client connection, joined below.
                // e3-lint: raw-thread-ok
                std::vector<std::thread> threads;
                for (size_t c = 0; c < clients; ++c) {
                    threads.emplace_back([&, c] {
                        TestClient client(server->port());
                        if (!client.trySend(wire))
                            return;
                        for (size_t i = 0; i < total; ++i) {
                            Result<InferResponse> resp =
                                client.readResponse();
                            if (!resp.ok())
                                return;
                            answers[c].push_back(std::move(resp).value());
                        }
                    });
                }
                for (std::thread &t : threads) // e3-lint: raw-thread-ok
                    t.join();
            }

            for (size_t c = 0; c < clients; ++c) {
                ASSERT_EQ(answers[c].size(), total)
                    << "batch=" << batch << " clients=" << clients;
                std::vector<bool> seen(total, false);
                for (const InferResponse &resp : answers[c]) {
                    ASSERT_EQ(resp.status, StatusCode::Ok)
                        << "batch=" << batch << " clients=" << clients;
                    ASSERT_LT(resp.requestId, total);
                    EXPECT_FALSE(seen[resp.requestId]);
                    seen[resp.requestId] = true;
                    const size_t i = resp.requestId % observations.size();
                    EXPECT_EQ(bits(resp.action), reference[i])
                        << "batch=" << batch << " clients=" << clients
                        << " observation " << i;
                }
            }
            const BatcherStats stats = server->batcherStats();
            EXPECT_EQ(stats.batchedRequests, clients * total);
            EXPECT_LE(stats.maxBatchSize, batch);
            server->stop();
        }
    }
}

TEST(ServeDeterminism, QueuedRequestsShareBatchesOfAtMostMaxBatchSize)
{
    // One write pipelines 6 requests for champion A and 3 for champion
    // B, interleaved. The connection thread decodes the read's frames
    // and answers each champion's requests in groups of at most 4 (the
    // batch size), oldest first: A{0,1,3,4}, B{2,5,8}, A{6,7} when the
    // write arrives in one read. Every action must equal the batch-1
    // reference bit for bit.
    const std::string dirA = championDir("cartpole", "group_a", 17);
    const std::string dirB = championDir("pendulum", "group_b", 19);
    const std::string kinds = "AABAABAAB";
    std::vector<std::vector<double>> obsA, obsB;
    for (int k = 0; k < 6; ++k)
        obsA.push_back(observationFor("cartpole", 0.1 * k - 0.3));
    for (int k = 0; k < 3; ++k)
        obsB.push_back(observationFor("pendulum", 0.2 * k - 0.1));
    const auto refA = referenceActions(dirA, "cartpole", obsA);
    const auto refB = referenceActions(dirB, "pendulum", obsB);
    ASSERT_EQ(refA.size(), obsA.size());
    ASSERT_EQ(refB.size(), obsB.size());

    auto server = serverFor({{dirA, "cartpole"}, {dirB, "pendulum"}},
                            /*cache=*/8, /*batch=*/4);
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server->listen(0).ok());
    const uint64_t fpA = server->champions()[0].fingerprint;
    const uint64_t fpB = server->champions()[1].fingerprint;

    // Request i is the k-th of its champion; the reference says what
    // it must answer.
    std::string wire;
    std::vector<std::vector<uint64_t>> expected;
    size_t nextA = 0, nextB = 0;
    for (size_t i = 0; i < kinds.size(); ++i) {
        if (kinds[i] == 'A') {
            wire += framedRequest(i, fpA, obsA[nextA]);
            expected.push_back(refA[nextA++]);
        } else {
            wire += framedRequest(i, fpB, obsB[nextB]);
            expected.push_back(refB[nextB++]);
        }
    }

    TestClient client(server->port());
    client.sendRaw(wire);
    std::vector<bool> seen(kinds.size(), false);
    for (size_t n = 0; n < kinds.size(); ++n) {
        Result<InferResponse> resp = client.readResponse();
        ASSERT_TRUE(resp.ok()) << resp.message();
        ASSERT_EQ(resp->status, StatusCode::Ok);
        ASSERT_LT(resp->requestId, kinds.size());
        EXPECT_FALSE(seen[resp->requestId]);
        seen[resp->requestId] = true;
        EXPECT_EQ(bits(resp->action), expected[resp->requestId])
            << "request " << resp->requestId;
    }

    const BatcherStats stats = server->batcherStats();
    EXPECT_EQ(stats.batchedRequests, kinds.size());
    EXPECT_LE(stats.maxBatchSize, 4u);
    EXPECT_GE(stats.batches, 3u);
    server->stop();
}

// ---------------------------------------------------------------------
// TCP front end
// ---------------------------------------------------------------------

TEST(ServeTcp, RoundTripMatchesInProcess)
{
    const std::string dir = championDir("cartpole", "tcp", 23);
    auto server = serverFor({{dir, "cartpole"}});
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server->listen(0).ok());
    ASSERT_NE(server->port(), 0);

    InferRequest req;
    req.requestId = 9;
    req.fingerprint = server->champions()[0].fingerprint;
    req.observation = observationFor("cartpole");
    const InferResponse local = server->infer(req);
    ASSERT_EQ(local.status, StatusCode::Ok);

    TestClient client(server->port());
    Result<InferResponse> remote = client.roundTrip(req);
    ASSERT_TRUE(remote.ok()) << remote.message();
    EXPECT_EQ(remote->status, StatusCode::Ok);
    EXPECT_EQ(remote->requestId, 9u);
    EXPECT_EQ(bits(remote->action), bits(local.action));

    // Same connection, unknown champion: served an error, not hung up.
    InferRequest unknown = req;
    unknown.requestId = 10;
    unknown.fingerprint = req.fingerprint + 1;
    Result<InferResponse> miss = client.roundTrip(unknown);
    ASSERT_TRUE(miss.ok()) << miss.message();
    EXPECT_EQ(miss->status, StatusCode::UnknownChampion);

    server->stop();
}

TEST(ServeTcp, UndecodablePayloadAnswersBadRequest)
{
    const std::string dir = championDir("cartpole", "tcp_bad", 29);
    auto server = serverFor({{dir, "cartpole"}});
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server->listen(0).ok());

    TestClient client(server->port());
    client.sendRaw(frame("garbage payload"));
    Result<InferResponse> resp = client.readResponse();
    ASSERT_TRUE(resp.ok()) << resp.message();
    EXPECT_EQ(resp->status, StatusCode::BadRequest);

    server->stop();
    EXPECT_GE(server->counters().protocolErrors, 1u);
}

TEST(ServeTcp, OversizedFrameHangsUp)
{
    const std::string dir = championDir("cartpole", "tcp_huge", 31);
    auto server = serverFor({{dir, "cartpole"}});
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server->listen(0).ok());

    TestClient client(server->port());
    const uint32_t huge = kMaxFrameBytes + 1;
    std::string header(4, '\0');
    std::memcpy(header.data(), &huge, 4);
    client.sendRaw(header);
    // The server answers BadRequest once, then hangs up; either way
    // the connection ends without a crash.
    Result<InferResponse> first = client.readResponse();
    if (first.ok()) {
        EXPECT_EQ(first->status, StatusCode::BadRequest);
    }
    Result<InferResponse> second = client.readResponse();
    EXPECT_FALSE(second.ok());

    server->stop();
}

TEST(ServeTcp, ChurningClientsAreReaped)
{
    const std::string dir = championDir("cartpole", "tcp_churn", 37);
    auto server = serverFor({{dir, "cartpole"}});
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server->listen(0).ok());

    InferRequest req;
    req.fingerprint = server->champions()[0].fingerprint;
    req.observation = observationFor("cartpole");

    // Each client is accepted and served before it hangs up; without
    // reaping, every one of them would keep its thread and stack until
    // stop().
    constexpr size_t kClients = 200;
    size_t mostHeld = 0;
    for (size_t i = 0; i < kClients; ++i) {
        TestClient client(server->port());
        req.requestId = i;
        Result<InferResponse> resp = client.roundTrip(req);
        ASSERT_TRUE(resp.ok()) << resp.message();
        ASSERT_EQ(resp->status, StatusCode::Ok);
        mostHeld = std::max(mostHeld, server->connectionCount());
    }
    EXPECT_LT(mostHeld, 32u);

    // Each accept reaps the loops that have exited by then, so one
    // more client brings the count down to the clients still open.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    size_t held = server->connectionCount();
    while (held > 1 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        TestClient client(server->port());
        ASSERT_TRUE(client.roundTrip(req).ok());
        held = server->connectionCount();
    }
    EXPECT_LE(held, 1u);

    server->stop();
    EXPECT_EQ(server->connectionCount(), 0u);
    EXPECT_EQ(server->counters().ok, server->counters().requests);
}

TEST(ServeTcp, ClientThatStopsReadingDoesNotStallOthers)
{
    const std::string dir = championDir("cartpole", "tcp_slow", 41);
    auto server = serverFor({{dir, "cartpole"}});
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server->listen(0).ok());
    InferRequest req;
    req.fingerprint = server->champions()[0].fingerprint;
    req.observation = observationFor("cartpole");

    // The slow client pipelines requests and never reads an answer.
    // Once its small receive buffer and the server's send buffer fill,
    // the server's write to it blocks and the server stops reading it:
    // its sends then make no progress.
    TestClient slow(server->port(), /*receiveBuffer=*/4096);
    std::string burst;
    for (int i = 0; i < 256; ++i)
        burst += frame(encodeRequest(req));
    std::string out;
    size_t offset = 0;
    size_t sentBytes = 0;
    auto lastProgress = std::chrono::steady_clock::now();
    constexpr size_t kMaxBytes = size_t{256} << 20; // a bound, not a target
    while (std::chrono::steady_clock::now() - lastProgress <
               std::chrono::milliseconds(300) &&
           sentBytes < kMaxBytes) {
        if (offset == out.size()) {
            out = burst;
            offset = 0;
        }
        const ssize_t n = ::send(slow.fd(), out.data() + offset,
                                 out.size() - offset,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
            offset += static_cast<size_t>(n);
            sentBytes += static_cast<size_t>(n);
            lastProgress = std::chrono::steady_clock::now();
        } else {
            ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                << strerror(errno);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    ASSERT_LT(sentBytes, kMaxBytes) << "the server never stopped reading";

    // A second client of the same champion is still answered promptly.
    TestClient other(server->port());
    other.setReadTimeout(5);
    req.requestId = 7;
    const auto asked = std::chrono::steady_clock::now();
    Result<InferResponse> resp = other.roundTrip(req);
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - asked)
                              .count();
    ASSERT_TRUE(resp.ok()) << resp.message();
    EXPECT_EQ(resp->status, StatusCode::Ok);
    EXPECT_EQ(resp->requestId, 7u);
    EXPECT_LT(waited, 1.0);

    // Hanging up unblocks the server's write to the slow client.
    slow.close();
    server->stop();
}

TEST(ServeTcp, StopAnswersEveryReadRequestOnce)
{
    const std::string dir = championDir("cartpole", "tcp_stop", 43);
    auto server = serverFor({{dir, "cartpole"}});
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server->listen(0).ok());
    const uint64_t fp = server->champions()[0].fingerprint;
    const std::vector<double> obs = observationFor("cartpole");

    // One thread streams requests with fresh ids until the server hangs
    // up; another reads answers until the stream ends.
    TestClient client(server->port());
    std::atomic<bool> sending{true};
    // e3-lint: raw-thread-ok
    std::thread sender([&] {
        for (uint64_t id = 0; sending.load(std::memory_order_relaxed);) {
            std::string burst;
            for (int i = 0; i < 8; ++i)
                burst += framedRequest(id++, fp, obs);
            if (!client.trySend(burst))
                return;
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    });
    std::vector<InferResponse> answers;
    std::atomic<size_t> answered{0};
    // e3-lint: raw-thread-ok
    std::thread reader([&] {
        for (;;) {
            Result<InferResponse> resp = client.readResponse();
            if (!resp.ok())
                return;
            answers.push_back(std::move(resp).value());
            answered.fetch_add(1, std::memory_order_release);
        }
    });

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (answered.load(std::memory_order_acquire) < 200 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server->stop();
    reader.join();
    sending.store(false, std::memory_order_relaxed);
    sender.join();

    // Every request the server read was answered Ok, exactly once.
    EXPECT_GE(answers.size(), 200u);
    EXPECT_EQ(answers.size(), server->counters().requests);
    std::set<uint64_t> ids;
    for (const InferResponse &resp : answers) {
        EXPECT_EQ(resp.status, StatusCode::Ok);
        EXPECT_TRUE(ids.insert(resp.requestId).second)
            << "request " << resp.requestId << " answered twice";
    }
    EXPECT_EQ(server->counters().ok, answers.size());
}
