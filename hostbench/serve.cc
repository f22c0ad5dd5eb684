/**
 * @file
 * The serve workloads: ChampionServer (what `e3_cli serve` runs) under
 * open-loop Poisson load over loopback TCP.
 *
 * Each request is timed from the moment it was due, not from when the
 * generator got round to sending it, so a stall in the generator or the
 * server shows up in every request it delays; how late the generator
 * ran is reported separately. Connection setup and first compiles
 * happen in the set-up phase, and a short ramp at the target rate
 * precedes the timed window. Every Ok response is compared bit for bit
 * with an in-process activation of the same champion definition.
 */

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bench.hh"
#include "env/env_registry.hh"
#include "nn/batch_eval.hh"
#include "persist/checkpoint.hh"
#include "serve/server.hh"

namespace e3::hostbench {

namespace {

using serve::ChampionServer;
using serve::InferRequest;
using serve::InferResponse;
using serve::StatusCode;

/** One serve workload: a champion set and an offered rate. */
struct ServeWorkload
{
    const char *name;
    bool churn;  ///< 12 champions, cache 4, Zipf popularity
    double rate; ///< offered requests per second
};

/**
 * Rates sit at about half of each mix's knee as measured by the traced
 * run's ladder (hot ~60-95k req/s, churn ~11-19k req/s on a 4-vCPU VM),
 * where batching and queueing shape latency but nothing is refused.
 */
const ServeWorkload kWorkloads[] = {
    {"serve.hot", false, 40000.0},
    {"serve.churn", true, 8000.0},
};

constexpr size_t kHotCache = 8;
constexpr size_t kChurnCache = 4;
constexpr size_t kBatch = 16;
constexpr size_t kBatcherThreads = 2;
/**
 * Admission-control queue. e3_cli's default of 256 overflows whenever
 * the host pauses the process for ~6 ms at 40k req/s, which happens
 * several times a minute on a shared VM; 4096 rides such pauses out,
 * so Overloaded answers mark capacity, not scheduling luck.
 */
constexpr size_t kQueueDepth = 4096;
constexpr size_t kObsPerChampion = 64;
constexpr size_t kSetupReps = 7;
constexpr double kRampSeconds = 0.25; ///< untimed load before the window
constexpr double kWindowSeconds = 0.1;    ///< shortest latency window
constexpr int kQuietWindowBp = 1000;      ///< quantile taken over windows
constexpr double kWindowRequests = 1000; ///< fewest requests per window
constexpr double kDrainSeconds = 2.0; ///< grace for in-flight responses
constexpr uint32_t kWarmupTag = 1000; ///< request-id tags of set-up trips

/** A generated champion: its checkpoint and reference evaluator. */
struct Champion
{
    std::string env;
    std::string dir;
    size_t numInputs = 0;
    size_t numOutputs = 0;
    uint64_t fingerprint = 0;
    NetworkDef def;
    std::vector<std::vector<double>> observations;
    std::vector<std::vector<double>> expected; ///< reference actions
};

/**
 * Evolve a small population against @p env's interface with a
 * stand-in fitness that rewards structure, so champions have hidden
 * nodes and distinct sizes, and write the champion as a checkpoint.
 */
Champion
makeChampion(const std::string &root, const std::string &env,
             uint64_t seed)
{
    const EnvSpec &spec = envSpec(env);
    NeatConfig cfg = NeatConfig::forTask(spec.numInputs, spec.numOutputs,
                                         spec.requiredFitness);
    cfg.populationSize = 32;
    Population pop(cfg, seed);
    auto assignFitness = [&pop] {
        for (auto &[key, genome] : pop.genomes())
            genome.fitness = static_cast<double>(genome.nodes.size() +
                                                 genome.conns.size()) +
                             1e-3 * key;
    };
    for (int gen = 0; gen < 20; ++gen) {
        assignFitness();
        pop.advance();
    }
    assignFitness();

    Champion c;
    c.env = env;
    c.dir = root + "/" + env + "-" + std::to_string(seed);
    c.numInputs = spec.numInputs;
    c.numOutputs = spec.numOutputs;
    persist::Checkpoint ck;
    ck.configHash = persist::fingerprint("hostbench;" + env + ";" +
                                         std::to_string(seed));
    ck.generation = 20;
    ck.bestFitness = pop.best().fitness;
    ck.champion = pop.best();
    ck.population = pop.saveState();
    std::error_code ec;
    std::filesystem::remove_all(c.dir, ec);
    if (Status st = persist::writeCheckpoint(c.dir, ck, 1, nullptr);
        !st.ok())
        e3_fatal("cannot write champion: ", st.message());
    c.def = pop.best().toNetworkDef(cfg);

    // Reference: the same def through a single-lane, unbatched compile.
    std::unique_ptr<BatchNetwork> reference =
        compileReplicated(c.def, 1).value();
    Rng rng(deriveSeed(seed, 7));
    for (size_t i = 0; i < kObsPerChampion; ++i) {
        std::vector<double> obs(c.numInputs);
        for (double &v : obs)
            v = rng.uniform(-1.0, 1.0);
        std::vector<double> out(c.numOutputs);
        reference->reset();
        reference->activateLane(0, obs.data(), out.data());
        c.observations.push_back(std::move(obs));
        c.expected.push_back(std::move(out));
    }
    return c;
}

std::vector<Champion>
makeChampions(const ServeWorkload &w, const std::string &root,
              uint64_t seed)
{
    std::vector<Champion> out;
    if (!w.churn) {
        const char *const envs[] = {"cartpole", "lunar_lander", "pendulum"};
        for (size_t i = 0; i < std::size(envs); ++i)
            out.push_back(
                makeChampion(root, envs[i], deriveSeed(seed, 100 + i)));
        return out;
    }
    for (size_t copy = 0; copy < 2; ++copy) {
        for (const EnvSpec &spec : envSuite())
            out.push_back(makeChampion(
                root, spec.name, deriveSeed(seed, 200 + out.size())));
    }
    return out;
}

/** One scheduled request. */
struct Scheduled
{
    double due = 0.0; ///< seconds after the phase origin
    uint32_t champion = 0;
    uint32_t obs = 0;
};

/**
 * Open-loop Poisson arrivals at @p rate for @p seconds, with champions
 * drawn uniformly (hot) or Zipf(1) over a seeded rank order (churn).
 */
std::vector<Scheduled>
makeSchedule(double rate, double seconds, size_t champions, bool zipf,
             uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> weights(champions, 1.0);
    if (zipf) {
        const std::vector<size_t> rank = rng.permutation(champions);
        for (size_t i = 0; i < champions; ++i)
            weights[i] = 1.0 / static_cast<double>(rank[i] + 1);
    }
    std::vector<Scheduled> out;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= seconds)
            break;
        Scheduled s;
        s.due = t;
        s.champion = static_cast<uint32_t>(rng.weightedIndex(weights));
        s.obs = static_cast<uint32_t>(rng.uniformInt(kObsPerChampion));
        out.push_back(s);
    }
    return out;
}

/** What happened to each request of one phase on one connection. */
struct PhaseLog
{
    std::vector<double> sentAt; ///< seconds after origin; NaN = unsent
    std::vector<double> doneAt; ///< seconds after origin; NaN = none
    std::vector<uint8_t> ok;    ///< Ok and bit-identical
    uint64_t mismatches = 0;    ///< Ok but wrong bits (correctness)
    uint64_t undecodable = 0;
    uint64_t overloaded = 0; ///< answered Overloaded (admission control)
    uint64_t backlogAtLastSend = 0;
    std::string error;
};

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/** One client connection; run() drives a phase on a caller thread. */
class LoadClient
{
  public:
    LoadClient() = default;
    ~LoadClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    LoadClient(const LoadClient &) = delete;
    LoadClient &operator=(const LoadClient &) = delete;

    Status
    connectTo(uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            return Status::error("socket: ", std::strerror(errno));
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0)
            return Status::error("connect: ", std::strerror(errno));
        if (::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) != 0)
            return Status::error("fcntl: ", std::strerror(errno));
        return Status();
    }

    /**
     * Send @p schedule open loop from @p origin and collect responses
     * until all arrive or kDrainSeconds pass after the last due time.
     * @p tag goes into the high request-id bits to reject strays.
     */
    void
    run(const std::vector<Scheduled> &schedule,
        const std::vector<Champion> &champions, Clock::time_point origin,
        uint32_t tag, PhaseLog &log)
    {
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        const size_t n = schedule.size();
        log.sentAt.assign(n, std::nan(""));
        log.doneAt.assign(n, std::nan(""));
        log.ok.assign(n, 0);
        const double lastDue = n ? schedule.back().due : 0.0;
        size_t next = 0;
        size_t received = 0;
        bool backlogSampled = false;
        std::string out;
        size_t outOff = 0;
        char buf[1 << 16];
        while (received < n) {
            Clock::time_point now = Clock::now();
            double t = secondsBetween(origin, now);
            while (next < n && schedule[next].due <= t) {
                const Scheduled &s = schedule[next];
                const Champion &c = champions[s.champion];
                InferRequest req;
                req.requestId = (static_cast<uint64_t>(tag) << 32) | next;
                req.fingerprint = c.fingerprint;
                req.observation = c.observations[s.obs];
                out += serve::frame(serve::encodeRequest(req));
                log.sentAt[next] = t;
                ++next;
            }
            if (next == n && !backlogSampled) {
                log.backlogAtLastSend = n - received;
                backlogSampled = true;
            }
            while (outOff < out.size()) {
                const ssize_t k =
                    ::send(fd_, out.data() + outOff, out.size() - outOff,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
                if (k > 0) {
                    outOff += static_cast<size_t>(k);
                } else if (k < 0 && (errno == EAGAIN || errno == EINTR)) {
                    break;
                } else {
                    log.error = "send failed";
                    return;
                }
            }
            if (outOff == out.size()) {
                out.clear();
                outOff = 0;
            }
            for (;;) {
                const ssize_t k = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
                if (k == 0) {
                    log.error = "server closed the connection";
                    return;
                }
                if (k < 0) {
                    if (errno == EAGAIN || errno == EINTR)
                        break;
                    log.error = "recv failed";
                    return;
                }
                const double at = secondsBetween(origin, Clock::now());
                frames_.feed(buf, static_cast<size_t>(k));
                std::string payload;
                for (;;) {
                    Result<bool> got = frames_.next(payload);
                    if (!got.ok()) {
                        log.error = "bad framing: " + got.message();
                        return;
                    }
                    if (!*got)
                        break;
                    received += handle(payload, schedule, champions, tag,
                                       at, log);
                }
            }
            if (received >= n)
                break;
            now = Clock::now();
            t = secondsBetween(origin, now);
            if (next == n && t > lastDue + kDrainSeconds)
                break;
            const double wait =
                next < n ? std::max(0.0, schedule[next].due - t) : 0.005;
            timespec ts{};
            ts.tv_sec = static_cast<time_t>(wait);
            ts.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
            pollfd p{fd_, static_cast<short>(POLLIN |
                                             (out.empty() ? 0 : POLLOUT)),
                     0};
            ::ppoll(&p, 1, &ts, nullptr);
        }
    }

    /** Blocking round trip (set-up warm-up); true if Ok and exact. */
    bool
    roundTrip(const std::vector<Champion> &champions, uint32_t champion,
              uint32_t tag)
    {
        const std::vector<Scheduled> one = {{0.0, champion, 0}};
        PhaseLog log;
        run(one, champions, Clock::now(), tag, log);
        return log.error.empty() && log.ok[0] == 1;
    }

  private:
    /** Account one response; returns 1 if it matched a request. */
    size_t
    handle(const std::string &payload, const std::vector<Scheduled> &schedule,
           const std::vector<Champion> &champions, uint32_t tag, double at,
           PhaseLog &log)
    {
        Result<InferResponse> resp = serve::decodeResponse(payload);
        if (!resp.ok()) {
            ++log.undecodable;
            return 0;
        }
        const uint64_t index = resp->requestId & 0xffffffffULL;
        if ((resp->requestId >> 32) != tag || index >= schedule.size() ||
            !std::isnan(log.doneAt[index])) {
            ++log.undecodable;
            return 0;
        }
        log.doneAt[index] = at;
        if (resp->status == StatusCode::Overloaded)
            ++log.overloaded;
        if (resp->status == StatusCode::Ok) {
            const Scheduled &s = schedule[index];
            if (sameBits(resp->action,
                         champions[s.champion].expected[s.obs]))
                log.ok[index] = 1;
            else
                ++log.mismatches;
        }
        return 1;
    }

    int fd_ = -1;
    serve::FrameReader frames_;
};

/** A server brought up and warmed, with its client connections. */
struct LiveServer
{
    std::unique_ptr<ChampionServer> server;
    std::vector<std::unique_ptr<LoadClient>> clients;
};

size_t
connectionCount()
{
    const size_t hw = std::max(1u, std::thread::hardware_concurrency());
    // One thread per connection; at most min(4, nproc) threads, and
    // half of them leave room for the server on a small machine.
    return std::max<size_t>(1, std::min<size_t>(4, hw) / 2);
}

/**
 * Set-up as a user pays it: create (load + verify every champion),
 * listen, connect, then one round trip per champion per connection so
 * connection threads exist and every champion has compiled once.
 */
Result<LiveServer>
bringUp(const serve::ServeOptions &options, std::vector<Champion> &champions,
        double &seconds)
{
    const Clock::time_point start = Clock::now();
    LiveServer live;
    Result<std::unique_ptr<ChampionServer>> created =
        ChampionServer::create(options);
    if (!created.ok())
        return created.status();
    live.server = std::move(created).value();
    if (Status st = live.server->listen(0); !st.ok())
        return st;
    for (size_t i = 0; i < champions.size(); ++i)
        champions[i].fingerprint = live.server->champions()[i].fingerprint;
    for (size_t i = 0; i < connectionCount(); ++i) {
        live.clients.push_back(std::make_unique<LoadClient>());
        if (Status st = live.clients.back()->connectTo(live.server->port());
            !st.ok())
            return st;
    }
    uint32_t tag = kWarmupTag;
    for (auto &client : live.clients) {
        for (uint32_t c = 0; c < champions.size(); ++c) {
            if (!client->roundTrip(champions, c, tag++))
                return Status::error("warm-up request to ",
                                     champions[c].env, " failed");
        }
    }
    seconds = secondsBetween(start, Clock::now());
    return live;
}

/** Latency summary of one phase's timed window. */
struct PhaseStats
{
    double p50Ms = 0.0;  ///< quiet-window (first decile) p50
    double tailMs = 0.0; ///< quiet-window (first decile) tail
    int tailBp = 0;
    double p50AllMs = 0.0; ///< whole window, for the transport split
    double p99AllMs = 0.0;
    double okPerSecond = 0.0;
    double sendLagP99Ms = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t mismatches = 0;
    uint64_t overloaded = 0;
    uint64_t backlog = 0;
    std::vector<double> windowTailsMs;
    std::string error;
};

/**
 * Run one open-loop phase over every connection: kRampSeconds of
 * untimed load, then @p seconds timed. The timed part is cut into
 * windows of at least kWindowSeconds and kWindowRequests requests, and
 * the phase reports each percentile as its first decile over the
 * windows. A shared host that pauses or slows the machine for seconds
 * at a time thus spoils some windows, not the reported percentiles;
 * the whole-phase percentiles are still printed for comparison.
 */
PhaseStats
runPhase(LiveServer &live, const std::vector<Champion> &champions,
         double rate, double seconds, bool zipf, uint64_t seed,
         uint32_t tag)
{
    const double windowSeconds =
        std::max(kWindowSeconds, kWindowRequests / rate);
    const size_t windowCount =
        std::max<size_t>(1, static_cast<size_t>(seconds / windowSeconds));
    const size_t conns = live.clients.size();
    const double total = kRampSeconds + seconds;
    std::vector<std::vector<Scheduled>> schedules;
    for (size_t c = 0; c < conns; ++c)
        schedules.push_back(makeSchedule(rate / static_cast<double>(conns),
                                         total, champions.size(), zipf,
                                         deriveSeed(seed, c)));
    std::vector<PhaseLog> logs(conns);
    const Clock::time_point origin =
        Clock::now() + std::chrono::milliseconds(5);
    {
        // Load-generator threads, one per connection, joined below
        // before the logs they fill are read.
        // e3-lint: raw-thread-ok
        std::vector<std::thread> threads;
        for (size_t c = 0; c < conns; ++c) {
            threads.emplace_back([&, c] {
                live.clients[c]->run(schedules[c], champions, origin, tag,
                                     logs[c]);
            });
        }
        for (auto &t : threads)
            t.join();
    }

    PhaseStats ps;
    std::vector<std::vector<double>> windows(windowCount);
    std::vector<double> all;
    std::vector<double> lag;
    uint64_t okTimed = 0;
    for (size_t c = 0; c < conns; ++c) {
        const PhaseLog &log = logs[c];
        if (!log.error.empty() && ps.error.empty())
            ps.error = log.error;
        ps.mismatches += log.mismatches;
        if (log.undecodable && ps.error.empty())
            ps.error = std::to_string(log.undecodable) +
                       " responses undecodable or unmatched";
        ps.overloaded += log.overloaded;
        ps.backlog += log.backlogAtLastSend;
        for (size_t i = 0; i < schedules[c].size(); ++i) {
            const double due = schedules[c][i].due;
            ++ps.attempted;
            const bool ok = log.ok[i] == 1;
            if (!ok)
                ++ps.failed;
            if (!std::isnan(log.sentAt[i]))
                lag.push_back((log.sentAt[i] - due) * 1e3);
            if (due < kRampSeconds)
                continue;
            const double ms = ok ? (log.doneAt[i] - due) * 1e3 : kMiss;
            okTimed += ok;
            all.push_back(ms);
            const size_t wi = std::min(
                windowCount - 1,
                static_cast<size_t>((due - kRampSeconds) / seconds *
                                    static_cast<double>(windowCount)));
            windows[wi].push_back(ms);
        }
    }
    size_t smallest = SIZE_MAX;
    for (const auto &win : windows)
        smallest = std::min(smallest, win.size());
    ps.tailBp = tailPercentileBp(smallest);
    std::vector<double> p50s;
    std::vector<double> tails;
    for (const auto &win : windows) {
        p50s.push_back(percentileBp(win, 5000));
        tails.push_back(percentileBp(win, ps.tailBp));
    }
    ps.p50Ms = percentileBp(p50s, kQuietWindowBp);
    ps.tailMs = percentileBp(tails, kQuietWindowBp);
    ps.windowTailsMs = tails;
    ps.p50AllMs = percentileBp(all, 5000);
    ps.p99AllMs = percentileBp(all, 9900);
    ps.okPerSecond = static_cast<double>(okTimed) / seconds;
    ps.sendLagP99Ms = percentileBp(lag, 9900);
    return ps;
}

/** Same schedule through submit() in process: no TCP, no protocol. */
PhaseStats
runInProcess(ChampionServer &server, const std::vector<Champion> &champions,
             double rate, double seconds, bool zipf, uint64_t seed)
{
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const std::vector<Scheduled> schedule = makeSchedule(
        rate, kRampSeconds + seconds, champions.size(), zipf, seed);
    const size_t n = schedule.size();
    std::vector<double> doneAt(n, std::nan(""));
    std::vector<uint8_t> ok(n, 0);
    std::atomic<size_t> done{0};
    const Clock::time_point origin =
        Clock::now() + std::chrono::milliseconds(5);
    for (size_t i = 0; i < n; ++i) {
        const Scheduled &s = schedule[i];
        std::this_thread::sleep_until(
            origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s.due)));
        InferRequest req;
        req.requestId = i;
        req.fingerprint = champions[s.champion].fingerprint;
        req.observation = champions[s.champion].observations[s.obs];
        server.submit(req, [&, i](const InferResponse &resp) {
            doneAt[i] = secondsBetween(origin, Clock::now());
            const Scheduled &sc = schedule[i];
            ok[i] = resp.status == StatusCode::Ok &&
                    sameBits(resp.action,
                             champions[sc.champion].expected[sc.obs]);
            done.fetch_add(1, std::memory_order_release);
        });
    }
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kDrainSeconds));
    while (done.load(std::memory_order_acquire) < n &&
           Clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // Callbacks reference this frame: stopping drains whatever is still
    // queued before the locals go away.
    const bool drained = done.load(std::memory_order_acquire) == n;
    if (!drained)
        server.stop();

    PhaseStats ps;
    std::vector<double> all;
    for (size_t i = 0; i < n; ++i) {
        ++ps.attempted;
        const bool good = ok[i] == 1 && !std::isnan(doneAt[i]);
        ps.failed += !good;
        if (schedule[i].due >= kRampSeconds)
            all.push_back(good ? (doneAt[i] - schedule[i].due) * 1e3
                               : kMiss);
    }
    if (!drained)
        ps.error = "in-process requests left unanswered";
    ps.p50AllMs = percentileBp(all, 5000);
    ps.p99AllMs = percentileBp(all, 9900);
    return ps;
}

/** Median of @p reps timings of @p fn, in microseconds per call. */
template <typename Fn>
double
microsPerCall(size_t calls, Fn &&fn)
{
    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
        const Clock::time_point start = Clock::now();
        for (size_t i = 0; i < calls; ++i)
            fn(i);
        samples.push_back(secondsBetween(start, Clock::now()) * 1e6 /
                          static_cast<double>(calls));
    }
    return median(samples);
}

/** Per-call timings of the nn and protocol entry points serve uses. */
void
microTimings(const std::vector<Champion> &champions, Report &report)
{
    double compileUs = 0.0;
    double b1Us = 0.0;
    double b16Us = 0.0;
    uint64_t sink = 0;
    for (const Champion &c : champions) {
        compileUs += microsPerCall(20, [&](size_t) {
            sink += compileReplicated(c.def, kBatch).value()->lanes();
        });
        std::unique_ptr<BatchNetwork> net =
            compileReplicated(c.def, kBatch).value();
        std::vector<double> in;
        for (size_t i = 0; i < kBatch; ++i) {
            const auto &obs = c.observations[i % c.observations.size()];
            in.insert(in.end(), obs.begin(), obs.end());
        }
        std::vector<double> out(kBatch * c.numOutputs);
        b1Us += microsPerCall(2000, [&](size_t) {
            net->activateBatch(1, in.data(), c.numInputs, out.data(),
                               c.numOutputs);
        });
        b16Us += microsPerCall(500, [&](size_t) {
            net->activateBatch(kBatch, in.data(), c.numInputs, out.data(),
                               c.numOutputs);
        });
        sink += static_cast<uint64_t>(out[0] > 0.5);
    }
    const double k = static_cast<double>(champions.size());
    report.set("nn.replicated_compile_us", compileUs / k, "us");
    report.set("nn.activate_batch_us.b1", b1Us / k, "us");
    report.set("nn.activate_batch_us.b16", b16Us / k, "us");

    std::vector<InferRequest> reqs;
    std::vector<InferResponse> resps;
    for (const Champion &c : champions) {
        InferRequest req;
        req.requestId = reqs.size();
        req.fingerprint = c.fingerprint;
        req.observation = c.observations[0];
        reqs.push_back(req);
        InferResponse resp;
        resp.requestId = req.requestId;
        resp.action = c.expected[0];
        resps.push_back(resp);
    }
    std::vector<std::string> reqBytes;
    std::vector<std::string> respBytes;
    for (size_t i = 0; i < reqs.size(); ++i) {
        reqBytes.push_back(serve::encodeRequest(reqs[i]));
        respBytes.push_back(serve::encodeResponse(resps[i]));
    }
    const size_t m = reqs.size();
    report.set("protocol.encode_us", microsPerCall(20000, [&](size_t i) {
                   sink += serve::encodeRequest(reqs[i % m]).size() +
                           serve::encodeResponse(resps[i % m]).size();
               }),
               "us");
    report.set("protocol.decode_us", microsPerCall(20000, [&](size_t i) {
                   sink += serve::decodeRequest(reqBytes[i % m])
                               ->observation.size() +
                           serve::decodeResponse(respBytes[i % m])
                               ->action.size();
               }),
               "us");
    if (sink == 0)
        std::fprintf(stderr, "(micro timings computed nothing)\n");
}

/** Offered rates of the knee ladder for a workload. */
std::vector<double>
ladderRates(const ServeWorkload &w)
{
    std::vector<double> rates;
    double rate = w.churn ? 3000.0 : 20000.0;
    for (int i = 0; i < 12; ++i, rate *= 1.25)
        rates.push_back(std::round(rate));
    return rates;
}

} // namespace

bool
runServe(const Options &options, Report &report)
{
    const ServeWorkload *found = nullptr;
    for (const ServeWorkload &w : kWorkloads) {
        if (options.workload == w.name)
            found = &w;
    }
    if (!found)
        return false;
    const ServeWorkload &w = *found;

    std::vector<Champion> champions =
        makeChampions(w, options.scratchDir, options.seed);
    serve::ServeOptions serveOptions;
    for (const Champion &c : champions)
        serveOptions.sources.push_back({c.dir, c.env});
    serveOptions.cacheCapacity = w.churn ? kChurnCache : kHotCache;
    serveOptions.maxBatchSize = kBatch;
    serveOptions.threads = kBatcherThreads;
    serveOptions.maxQueueDepth = kQueueDepth;

    // Set-up several times; keep the last server for the measurement.
    std::vector<double> setups;
    Result<LiveServer> live = Status::error("not started");
    for (size_t i = 0; i < kSetupReps; ++i) {
        if (live.ok())
            live->server->stop();
        double seconds = 0.0;
        live = bringUp(serveOptions, champions, seconds);
        if (!live.ok()) {
            report.fail("set-up failed: " + live.message());
            return true;
        }
        setups.push_back(seconds);
    }
    ChampionServer &server = *live->server;

    const uint64_t phaseSeed = deriveSeed(options.seed, 1);
    // The ladder overloads the server on purpose, so its requests are
    // checked for correctness but not counted as operations.
    auto account = [&](const PhaseStats &ps, const char *what,
                       bool counted = true) {
        if (counted) {
            report.attempted += ps.attempted;
            report.failed += ps.failed;
        }
        if (ps.mismatches)
            report.fail(std::string(what) + ": " +
                        std::to_string(ps.mismatches) +
                        " responses differ from the reference activation");
        if (!ps.error.empty())
            report.fail(std::string(what) + ": " + ps.error);
        std::fprintf(stderr,
                     "%s %s: %" PRIu64 " requests, %" PRIu64
                     " failed (%" PRIu64 " overloaded), p50 %.4f ms, "
                     "p99 %.4f ms, send lag p99 %.4f ms, window tails",
                     w.name, what, ps.attempted, ps.failed, ps.overloaded,
                     ps.p50AllMs, ps.p99AllMs, ps.sendLagP99Ms);
        for (size_t i = 0; i < ps.windowTailsMs.size() && i < 12; ++i)
            std::fprintf(stderr, " %.3f", ps.windowTailsMs[i]);
        std::fprintf(stderr, "\n");
    };

    if (!options.trace) {
        const PhaseStats ps = runPhase(*live, champions, w.rate,
                                       options.seconds, w.churn, phaseSeed, 1);
        account(ps, "timed");
        report.set("throughput_per_s", ps.okPerSecond, "1/s");
        report.set("lat_p50_ms", ps.p50Ms, "ms");
        report.set("setup_s", median(setups), "s");
        report.set("peak_rss_mb", peakRssMb(), "MB");
        server.stop();
        return true;
    }

    addPerLayerDefaults(report);
    const serve::BatcherStats batchBefore = server.batcherStats();
    const serve::ServerCounters countersBefore = server.counters();
    const uint64_t hitsBefore = server.cache().hits();
    const uint64_t missesBefore = server.cache().misses();
    const uint64_t evictionsBefore = server.cache().evictions();
    const double tcpSeconds = 0.4 * options.seconds;
    const PhaseStats tcp = runPhase(*live, champions, w.rate, tcpSeconds,
                                    w.churn, phaseSeed, 1);
    account(tcp, "tcp");
    const serve::LatencySummary serverLatency = server.latency();
    const serve::BatcherStats batch = server.batcherStats();
    const serve::ServerCounters counters = server.counters();
    const uint64_t hits = server.cache().hits() - hitsBefore;
    const uint64_t misses = server.cache().misses() - missesBefore;
    const uint64_t batches = batch.batches - batchBefore.batches;
    const uint64_t batched =
        batch.batchedRequests - batchBefore.batchedRequests;
    report.set("serve.server_p50_ms", serverLatency.p50 * 1e3, "ms");
    report.set("serve.server_p99_ms", serverLatency.p99 * 1e3, "ms");
    report.set("serve.transport_p50_ms",
               tcp.p50AllMs - serverLatency.p50 * 1e3, "ms");
    report.set("serve.batch_mean",
               batches ? static_cast<double>(batched) /
                             static_cast<double>(batches)
                       : 0.0,
               "count");
    report.set("serve.batches", static_cast<double>(batches), "count");
    report.set("serve.overloaded",
               static_cast<double>(counters.rejectedOverload -
                                   countersBefore.rejectedOverload),
               "count");
    report.set("serve.cache_hit_ratio",
               hits + misses ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0.0,
               "ratio");
    report.set("serve.cache_lookups", static_cast<double>(hits + misses),
               "count");
    report.set("serve.cache_misses", static_cast<double>(misses), "count");
    report.set("serve.cache_evictions",
               static_cast<double>(server.cache().evictions() -
                                   evictionsBefore),
               "count");
    report.set("client.send_lag_ms_p99", tcp.sendLagP99Ms, "ms");
    report.set("lat_tail_ms", tcp.tailMs, "ms");

    const PhaseStats inproc =
        runInProcess(server, champions, w.rate, 0.2 * options.seconds,
                     w.churn, deriveSeed(options.seed, 2));
    account(inproc, "in-process");
    report.set("serve.inproc_p50_ms", inproc.p50AllMs, "ms");
    report.set("serve.inproc_p99_ms", inproc.p99AllMs, "ms");

    // Knee ladder: 1 s per rate, stopping at the first step that
    // misses p99 <= 1 ms, fails a request or leaves a growing backlog.
    std::vector<LadderStep> ladder;
    uint32_t tag = 10;
    for (double rate : ladderRates(w)) {
        const PhaseStats ps = runPhase(*live, champions, rate, 1.0, w.churn,
                                       deriveSeed(options.seed, tag), tag);
        ++tag;
        account(ps, "ladder", false);
        LadderStep step;
        step.rate = rate;
        step.p99Ms = ps.tailBp == 9900 ? ps.tailMs : ps.p99AllMs;
        step.failures = ps.failed;
        // More than 2 ms of offered work (and more than a few full
        // batches) still outstanding at the last send.
        step.backlogGrowing = static_cast<double>(ps.backlog) >
                              std::max(4.0 * kBatch, rate * 2e-3);
        ladder.push_back(step);
        if (!ladderStepPasses(step))
            break;
    }
    report.set("serve.knee_rps", kneeRate(ladder), "1/s");
    server.stop();

    microTimings(champions, report);
    return true;
}

} // namespace e3::hostbench
