/**
 * @file
 * src/persist: checkpoint round-trips, crash-safety error paths, the
 * retention policy, and the headline guarantee — a run interrupted at
 * any checkpoint and resumed produces a per-generation fitness trace
 * bit-identical to the uninterrupted run, at any thread count.
 */

#include "persist/checkpoint.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common/fs.hh"
#include "e3/experiment.hh"
#include "neat/serialize.hh"

using namespace e3;
using namespace e3::persist;

namespace {

/** Fresh, empty scratch directory under the test temp root. */
std::string
scratchDir(const std::string &tag)
{
    const std::string dir =
        ::testing::TempDir() + "e3_persist_" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

NeatConfig
testNeatConfig()
{
    NeatConfig cfg = NeatConfig::forTask(4, 2, 1e18);
    cfg.populationSize = 32;
    return cfg;
}

/** Deterministic stand-in fitness: a pure function of the genome. */
void
assignFitness(Population &pop)
{
    for (auto &[key, genome] : pop.genomes()) {
        genome.fitness = 0.125 * key +
                         static_cast<double>(genome.nodes.size()) -
                         0.25 * static_cast<double>(genome.conns.size());
    }
}

/** Evolve a small population far enough to have real species state. */
Population
evolvedPop(int generations, uint64_t seed)
{
    Population pop(testNeatConfig(), seed);
    for (int gen = 0; gen < generations; ++gen) {
        assignFitness(pop);
        pop.advance();
    }
    assignFitness(pop);
    return pop;
}

void
expectGenomesEqual(const Genome &a, const Genome &b)
{
    EXPECT_EQ(a.key(), b.key());
    // Exact comparisons throughout: persistence must round-trip every
    // bit, or resumed evolution diverges. (NaN marks "not evaluated"
    // and compares unequal to itself, hence the special case.)
    if (std::isnan(a.fitness))
        EXPECT_TRUE(std::isnan(b.fitness));
    else
        EXPECT_EQ(a.fitness, b.fitness);
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (const auto &[id, node] : a.nodes) {
        const auto &other = b.nodes.at(id);
        EXPECT_EQ(node.bias, other.bias);
        EXPECT_EQ(node.act, other.act);
        EXPECT_EQ(node.agg, other.agg);
    }
    ASSERT_EQ(a.conns.size(), b.conns.size());
    for (const auto &[key, conn] : a.conns) {
        const auto &other = b.conns.at(key);
        EXPECT_EQ(conn.weight, other.weight);
        EXPECT_EQ(conn.enabled, other.enabled);
    }
}

void
expectRngStatesEqual(const RngState &a, const RngState &b)
{
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(a.s[i], b.s[i]);
    EXPECT_EQ(a.cachedNormal, b.cachedNormal);
    EXPECT_EQ(a.hasCachedNormal, b.hasCachedNormal);
}

void
expectPopulationStatesEqual(const PopulationState &a,
                            const PopulationState &b)
{
    EXPECT_EQ(a.generation, b.generation);
    expectRngStatesEqual(a.rng, b.rng);
    expectRngStatesEqual(a.reproductionRng, b.reproductionRng);
    EXPECT_EQ(a.genomesCreated, b.genomesCreated);
    EXPECT_EQ(a.lastNodeId, b.lastNodeId);
    EXPECT_EQ(a.nextSpeciesId, b.nextSpeciesId);
    ASSERT_EQ(a.genomes.size(), b.genomes.size());
    for (const auto &[key, genome] : a.genomes) {
        SCOPED_TRACE("genome " + std::to_string(key));
        expectGenomesEqual(genome, b.genomes.at(key));
    }
    ASSERT_EQ(a.species.size(), b.species.size());
    for (const auto &[sid, sp] : a.species) {
        SCOPED_TRACE("species " + std::to_string(sid));
        const Species &other = b.species.at(sid);
        EXPECT_EQ(sp.created, other.created);
        EXPECT_EQ(sp.lastImproved, other.lastImproved);
        EXPECT_EQ(sp.adjustedFitness, other.adjustedFitness);
        EXPECT_EQ(sp.members, other.members);
        EXPECT_EQ(sp.fitnessHistory, other.fitnessHistory);
        expectGenomesEqual(sp.representative, other.representative);
    }
}

Checkpoint
sampleCheckpoint(int generations = 6, uint64_t seed = 7)
{
    const Population pop = evolvedPop(generations, seed);
    Checkpoint ck;
    ck.configHash = fingerprint("env=test;seed=7");
    ck.generation = generations;
    ck.envSteps = 123456789ULL;
    ck.bestFitness = 41.75;
    ck.champion = pop.best();
    ck.population = pop.saveState();
    ck.phaseSeconds = {{"evaluate", 1.25}, {"evolve", 0.03125}};
    for (int g = 0; g < generations; ++g) {
        TraceRow row;
        row.generation = g;
        row.bestFitness = 10.0 + g * 0.1;
        row.meanFitness = 5.0 + g * 0.01;
        row.normalizedBest = row.bestFitness / 100.0;
        row.cumulativeSeconds = 0.5 * (g + 1);
        row.meanNodes = 6.5;
        row.meanConnections = 9.25;
        row.meanDensity = 0.375;
        row.numSpecies = 3;
        ck.trace.push_back(row);
    }
    return ck;
}

} // namespace

TEST(Fingerprint, DeterministicAndDiscriminating)
{
    EXPECT_EQ(fingerprint("env=cartpole;seed=1"),
              fingerprint("env=cartpole;seed=1"));
    EXPECT_NE(fingerprint("env=cartpole;seed=1"),
              fingerprint("env=cartpole;seed=2"));
    EXPECT_NE(fingerprint(""), fingerprint("x"));
}

TEST(AtomicWrite, WriteReadRoundTrip)
{
    const std::string dir = scratchDir("atomic");
    ASSERT_TRUE(ensureDirectory(dir).ok());
    const std::string path = dir + "/blob.txt";
    ASSERT_TRUE(atomicWriteFile(path, "hello\nworld\n").ok());
    Result<std::string> back = readFile(path);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, "hello\nworld\n");
    // No stray temp file left behind.
    EXPECT_FALSE(fileExists(path + ".tmp"));

    EXPECT_FALSE(atomicWriteFile("/nonexistent/dir/blob", "x").ok());
    EXPECT_FALSE(readFile(dir + "/missing").ok());
}

TEST(CheckpointRoundTrip, PreservesEveryField)
{
    const Checkpoint original = sampleCheckpoint();
    Result<Checkpoint> loaded =
        checkpointFromString(checkpointToString(original));
    ASSERT_TRUE(loaded.ok()) << loaded.message();
    const Checkpoint &copy = *loaded;

    EXPECT_EQ(copy.configHash, original.configHash);
    EXPECT_EQ(copy.generation, original.generation);
    EXPECT_EQ(copy.envSteps, original.envSteps);
    EXPECT_EQ(copy.bestFitness, original.bestFitness);
    ASSERT_TRUE(copy.champion.has_value());
    expectGenomesEqual(*copy.champion, *original.champion);
    expectPopulationStatesEqual(copy.population, original.population);
    EXPECT_EQ(copy.phaseSeconds, original.phaseSeconds);
    ASSERT_EQ(copy.trace.size(), original.trace.size());
    for (size_t i = 0; i < original.trace.size(); ++i) {
        const TraceRow &a = original.trace[i];
        const TraceRow &b = copy.trace[i];
        EXPECT_EQ(a.generation, b.generation);
        EXPECT_EQ(a.bestFitness, b.bestFitness);
        EXPECT_EQ(a.meanFitness, b.meanFitness);
        EXPECT_EQ(a.normalizedBest, b.normalizedBest);
        EXPECT_EQ(a.cumulativeSeconds, b.cumulativeSeconds);
        EXPECT_EQ(a.meanNodes, b.meanNodes);
        EXPECT_EQ(a.meanConnections, b.meanConnections);
        EXPECT_EQ(a.meanDensity, b.meanDensity);
        EXPECT_EQ(a.numSpecies, b.numSpecies);
    }
}

TEST(CheckpointRoundTrip, NoChampionRoundTrips)
{
    Checkpoint ck = sampleCheckpoint(3, 11);
    ck.champion.reset();
    Result<Checkpoint> loaded =
        checkpointFromString(checkpointToString(ck));
    ASSERT_TRUE(loaded.ok()) << loaded.message();
    EXPECT_FALSE(loaded->champion.has_value());
}

TEST(CheckpointRoundTrip, RestoredPopulationEvolvesIdentically)
{
    // The real criterion: the restored population must continue the
    // genome stream exactly where the original left off.
    Population original = evolvedPop(5, 13);
    const Checkpoint ck = [&] {
        Checkpoint c;
        c.population = original.saveState();
        return c;
    }();
    Result<Checkpoint> loaded =
        checkpointFromString(checkpointToString(ck));
    ASSERT_TRUE(loaded.ok()) << loaded.message();
    Population restored(testNeatConfig(), loaded->population);

    for (int gen = 0; gen < 3; ++gen) {
        original.advance();
        restored.advance();
        assignFitness(original);
        assignFitness(restored);
        SCOPED_TRACE("post-restore generation " + std::to_string(gen));
        expectPopulationStatesEqual(original.saveState(),
                                    restored.saveState());
    }
}

TEST(CheckpointLoad, CorruptedInputIsErrorNotCrash)
{
    EXPECT_FALSE(checkpointFromString("").ok());
    EXPECT_FALSE(checkpointFromString("not a checkpoint\n").ok());
    EXPECT_FALSE(
        checkpointFromString("e3-checkpoint 1 zzzz\ngarbage\n").ok());

    // Truncation anywhere before the end sentinel is detected.
    const std::string full = checkpointToString(sampleCheckpoint());
    for (size_t cut : {full.size() / 4, full.size() / 2,
                       full.size() - 5}) {
        Result<Checkpoint> r =
            checkpointFromString(full.substr(0, cut));
        EXPECT_FALSE(r.ok()) << "cut at " << cut;
    }
}

TEST(CheckpointLoad, VersionMismatchIsError)
{
    std::string text = checkpointToString(sampleCheckpoint());
    const std::string from = "e3-checkpoint 1 ";
    ASSERT_EQ(text.rfind(from, 0), 0u);
    text.replace(0, from.size(), "e3-checkpoint 999 ");
    Result<Checkpoint> r = checkpointFromString(text);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.message().find("version"), std::string::npos);
}

// A snapshot that parses but cannot be restored is an error value too,
// so loadLatestCheckpoint falls back instead of the resume aborting.
TEST(CheckpointLoad, MemberWithoutStoredGenomeIsError)
{
    Checkpoint ck = sampleCheckpoint();
    ASSERT_FALSE(ck.population.species.empty());
    ck.population.species.begin()->second.members.push_back(987654);
    Result<Checkpoint> r = checkpointFromString(checkpointToString(ck));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.message().find("member 987654 names no stored genome"),
              std::string::npos)
        << r.message();
}

TEST(CheckpointLoad, EmptyPopulationIsError)
{
    Checkpoint ck = sampleCheckpoint();
    ck.population.genomes.clear();
    ck.population.species.clear();
    Result<Checkpoint> r = checkpointFromString(checkpointToString(ck));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.message().find("population of 0 genomes"),
              std::string::npos)
        << r.message();
}

TEST(CheckpointLoad, GenomeInTwoSpeciesIsError)
{
    Checkpoint ck = sampleCheckpoint();
    auto &species = ck.population.species;
    ASSERT_FALSE(species.empty());
    const Species &first = species.begin()->second;
    const int shared = first.members.front();
    const int sidB = species.rbegin()->first + 1;
    Species twin(sidB, first.created, first.representative);
    twin.members = {shared};
    const int sidA = first.id;
    species.emplace(sidB, std::move(twin));
    Result<Checkpoint> r = checkpointFromString(checkpointToString(ck));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.message().find("genome " + std::to_string(shared) +
                               " is listed in species " +
                               std::to_string(sidA) + " and " +
                               std::to_string(sidB)),
              std::string::npos)
        << r.message();
}

TEST(CheckpointLoad, NegativeGenerationIsError)
{
    Checkpoint ck = sampleCheckpoint();
    ck.generation = -5;
    Result<Checkpoint> r = checkpointFromString(checkpointToString(ck));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.message().find("negative generation -5"),
              std::string::npos)
        << r.message();

    ck = sampleCheckpoint();
    ck.population.generation = -3;
    r = checkpointFromString(checkpointToString(ck));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.message().find("pop-generation -3"), std::string::npos)
        << r.message();
}

TEST(CheckpointDir, WriteThenLoadLatest)
{
    const std::string dir = scratchDir("latest");
    Checkpoint ck = sampleCheckpoint();
    WriteStats stats;
    ASSERT_TRUE(writeCheckpoint(dir, ck, /*keep=*/3, &stats).ok());
    EXPECT_GT(stats.bytes, 0u);
    EXPECT_GE(stats.seconds, 0.0);
    EXPECT_TRUE(fileExists(stats.path));

    Result<Checkpoint> latest = loadLatestCheckpoint(dir, ck.configHash);
    ASSERT_TRUE(latest.ok()) << latest.message();
    EXPECT_EQ(latest->generation, ck.generation);
    expectPopulationStatesEqual(latest->population, ck.population);
}

TEST(CheckpointDir, MissingDirectoryIsError)
{
    Result<Checkpoint> r =
        loadLatestCheckpoint(scratchDir("never_created"), 1);
    EXPECT_FALSE(r.ok());
}

TEST(CheckpointDir, FingerprintMismatchIsError)
{
    const std::string dir = scratchDir("fingerprint");
    Checkpoint ck = sampleCheckpoint();
    ASSERT_TRUE(writeCheckpoint(dir, ck, 3, nullptr).ok());
    Result<Checkpoint> r = loadLatestCheckpoint(dir, ck.configHash + 1);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.message().find("fingerprint"), std::string::npos);
}

TEST(CheckpointDir, ManifestVersionMismatchIsError)
{
    const std::string dir = scratchDir("manifest_version");
    Checkpoint ck = sampleCheckpoint();
    ASSERT_TRUE(writeCheckpoint(dir, ck, 3, nullptr).ok());

    Result<std::string> manifest = readFile(dir + "/MANIFEST");
    ASSERT_TRUE(manifest.ok());
    std::string text = *manifest;
    const std::string from = "e3-checkpoint-manifest 1 ";
    ASSERT_EQ(text.rfind(from, 0), 0u);
    text.replace(0, from.size(), "e3-checkpoint-manifest 999 ");
    ASSERT_TRUE(atomicWriteFile(dir + "/MANIFEST", text).ok());

    Result<Checkpoint> r = loadLatestCheckpoint(dir, ck.configHash);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.message().find("version"), std::string::npos);
}

TEST(CheckpointDir, FallsBackToOlderSnapshotWhenNewestCorrupt)
{
    const std::string dir = scratchDir("fallback");
    Checkpoint older = sampleCheckpoint(4, 21);
    older.generation = 4;
    Checkpoint newer = sampleCheckpoint(8, 21);
    newer.generation = 8;
    newer.configHash = older.configHash;
    ASSERT_TRUE(writeCheckpoint(dir, older, 5, nullptr).ok());
    WriteStats stats;
    ASSERT_TRUE(writeCheckpoint(dir, newer, 5, &stats).ok());

    // Simulate a corrupted newest snapshot (e.g. bit rot): the loader
    // must warn and fall back to the older one.
    Result<std::string> text = readFile(stats.path);
    ASSERT_TRUE(text.ok());
    ASSERT_TRUE(
        atomicWriteFile(stats.path, text->substr(0, text->size() / 2))
            .ok());

    Result<Checkpoint> r = loadLatestCheckpoint(dir, older.configHash);
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r->generation, 4);
}

TEST(CheckpointDir, ChampionLoadStopsAtPopulationAcrossChunks)
{
    // A champion larger than one read chunk, and a phase name padded so
    // that the population line starts at and just before a chunk
    // boundary: the head read stops right before that line.
    Checkpoint ck = sampleCheckpoint();
    for (int id = 1000; id < 1400; ++id) {
        ck.champion->nodes.emplace(id, NodeGene{id, 1e-9 * id});
        ck.champion->conns.emplace(ConnKey{-1, id}, ConnGene{{-1, id}, 0.5});
        ck.champion->conns.emplace(ConnKey{id, 0}, ConnGene{{id, 0}, -0.5});
    }
    ASSERT_GT(genomeToString(*ck.champion).size(), kReadChunkBytes);
    ck.phaseSeconds.emplace_back("p", 0.5);
    const std::string needle = "\npopulation ";
    const size_t unpadded = checkpointToString(ck).find(needle);
    const size_t boundary =
        (unpadded / kReadChunkBytes + 2) * kReadChunkBytes;
    for (size_t before = 0; before <= needle.size(); ++before) {
        SCOPED_TRACE(before);
        ck.phaseSeconds.back().first =
            std::string(1 + boundary - before - unpadded, 'p');
        const std::string dir = scratchDir("head_chunks");
        WriteStats stats;
        ASSERT_TRUE(writeCheckpoint(dir, ck, 1, &stats).ok());
        const std::string text = checkpointToString(ck);
        ASSERT_EQ(text.find(needle), boundary - before);
        Result<std::string> head = readFile(stats.path, "population ");
        ASSERT_TRUE(head.ok()) << head.message();
        EXPECT_EQ(*head, text.substr(0, boundary - before + 1));

        Result<Checkpoint> loaded = loadLatestChampion(dir);
        ASSERT_TRUE(loaded.ok()) << loaded.message();
        expectGenomesEqual(*loaded->champion, *ck.champion);
    }
}

TEST(CheckpointDir, RetentionKeepsNewestK)
{
    const std::string dir = scratchDir("retention");
    Checkpoint ck = sampleCheckpoint();
    for (int gen = 1; gen <= 5; ++gen) {
        ck.generation = gen;
        ASSERT_TRUE(writeCheckpoint(dir, ck, /*keep=*/2, nullptr).ok());
    }
    EXPECT_FALSE(fileExists(dir + "/" + checkpointFileName(3)));
    EXPECT_TRUE(fileExists(dir + "/" + checkpointFileName(4)));
    EXPECT_TRUE(fileExists(dir + "/" + checkpointFileName(5)));

    Result<Checkpoint> latest = loadLatestCheckpoint(dir, ck.configHash);
    ASSERT_TRUE(latest.ok()) << latest.message();
    EXPECT_EQ(latest->generation, 5);
}

// ---------------------------------------------------------------------
// Whole-platform resume: the kill-at-generation-k experiment. An
// interrupted run restarted from its checkpoint must reproduce the
// uninterrupted run's trace bit-identically — per field, per
// generation — across thread counts.
// ---------------------------------------------------------------------

namespace {

ExperimentOptions
persistOptions(size_t threads)
{
    ExperimentOptions opt;
    opt.seed = 3;
    opt.populationSize = 64;
    opt.episodesPerEval = 2;
    opt.maxGenerations = 20;
    opt.threads = threads;
    return opt;
}

void
expectIdenticalTraces(const std::vector<GenerationPoint> &a,
                      const std::vector<GenerationPoint> &b,
                      const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t g = 0; g < a.size(); ++g) {
        SCOPED_TRACE(what + ", generation " + std::to_string(g));
        EXPECT_EQ(a[g].generation, b[g].generation);
        EXPECT_EQ(a[g].bestFitness, b[g].bestFitness);
        EXPECT_EQ(a[g].meanFitness, b[g].meanFitness);
        EXPECT_EQ(a[g].normalizedBest, b[g].normalizedBest);
        EXPECT_EQ(a[g].cumulativeSeconds, b[g].cumulativeSeconds);
        EXPECT_EQ(a[g].meanNodes, b[g].meanNodes);
        EXPECT_EQ(a[g].meanConnections, b[g].meanConnections);
        EXPECT_EQ(a[g].meanDensity, b[g].meanDensity);
        EXPECT_EQ(a[g].numSpecies, b[g].numSpecies);
    }
}

/**
 * Run to @p killAt generations with checkpointing ("the crash"), then
 * resume to the full 20 with possibly different worker settings, and
 * compare against the uninterrupted run.
 */
void
expectResumeMatchesStraight(const std::string &env,
                            const std::string &tag, int killAt,
                            size_t threadsA, size_t threadsB)
{
    const RunResult straight =
        runExperiment(env, BackendKind::Cpu, persistOptions(threadsA));
    ASSERT_FALSE(straight.trace.empty());

    const std::string dir = scratchDir("resume_" + env + "_" + tag);
    ExperimentOptions interrupted = persistOptions(threadsA);
    interrupted.maxGenerations = killAt;
    interrupted.checkpointDir = dir;
    interrupted.checkpointEvery = 3;
    runExperiment(env, BackendKind::Cpu, interrupted);

    ExperimentOptions resumed = persistOptions(threadsB);
    resumed.checkpointDir = dir;
    resumed.checkpointEvery = 3;
    resumed.resume = true;
    const RunResult result =
        runExperiment(env, BackendKind::Cpu, resumed);

    expectIdenticalTraces(straight.trace, result.trace, env + " " + tag);
    EXPECT_EQ(result.bestFitness, straight.bestFitness);
    EXPECT_EQ(result.solved, straight.solved);
    EXPECT_EQ(result.generations, straight.generations);
}

} // namespace

TEST(PersistResume, CartpoleBitIdenticalSerial)
{
    expectResumeMatchesStraight("cartpole", "serial", 10, 1, 1);
}

TEST(PersistResume, CartpoleBitIdenticalThreaded)
{
    expectResumeMatchesStraight("cartpole", "threaded", 10, 4, 4);
}

TEST(PersistResume, LunarLanderBitIdenticalSerial)
{
    expectResumeMatchesStraight("lunar_lander", "serial", 10, 1, 1);
}

// The name predates the removal of the async overlap mode; both legs
// now run on 4 workers.
TEST(PersistResume, LunarLanderBitIdenticalThreadedAsync)
{
    expectResumeMatchesStraight("lunar_lander", "threaded", 10, 4, 4);
}

TEST(PersistResume, ResumeAtDifferentThreadCount)
{
    // Interrupted serial, resumed on 4 workers: the trace is a pure
    // function of (config, seed), so nothing may change.
    expectResumeMatchesStraight("lunar_lander", "cross_threads", 10, 1, 4);
}

TEST(PersistResume, EarlyKillBeforeFirstCheckpointStartsFresh)
{
    // Killed before any checkpoint cadence hit: resume degrades to a
    // fresh start and still matches the straight run.
    const std::string dir = scratchDir("resume_none");
    ASSERT_TRUE(ensureDirectory(dir).ok());
    ExperimentOptions resumed = persistOptions(1);
    resumed.checkpointDir = dir;
    resumed.resume = true;
    const RunResult result =
        runExperiment("cartpole", BackendKind::Cpu, resumed);
    const RunResult straight = runExperiment(
        "cartpole", BackendKind::Cpu, persistOptions(1));
    expectIdenticalTraces(straight.trace, result.trace,
                          "fresh-start fallback");
}

TEST(PersistResume, MismatchedConfigFallsBackToFreshStart)
{
    const std::string dir = scratchDir("resume_mismatch");
    ExperimentOptions first = persistOptions(1);
    first.maxGenerations = 6;
    first.checkpointDir = dir;
    first.checkpointEvery = 2;
    runExperiment("cartpole", BackendKind::Cpu, first);

    // Different seed => different fingerprint => warn + fresh start,
    // reproducing the straight seed-4 run from generation 0.
    ExperimentOptions resumed = persistOptions(1);
    resumed.seed = 4;
    resumed.checkpointDir = dir;
    resumed.resume = true;
    const RunResult result =
        runExperiment("cartpole", BackendKind::Cpu, resumed);

    ExperimentOptions straightOpt = persistOptions(1);
    straightOpt.seed = 4;
    const RunResult straight =
        runExperiment("cartpole", BackendKind::Cpu, straightOpt);
    expectIdenticalTraces(straight.trace, result.trace,
                          "config-mismatch fallback");
}

namespace {

/**
 * Checkpoint lunar_lander for 4 generations under @p firstConfig, then
 * resume to 6 under @p resumeConfig (each a --neat-config file path, or
 * none). Returns the resumed run's stderr; its trace must equal a
 * straight 6-generation run under @p resumeConfig either way.
 */
std::string
resumeUnderNeatConfig(const std::string &tag,
                      const std::optional<std::string> &firstConfig,
                      const std::optional<std::string> &resumeConfig)
{
    const std::string dir = scratchDir("neat_" + tag);
    ExperimentOptions first = persistOptions(1);
    first.maxGenerations = 4;
    first.checkpointDir = dir;
    first.checkpointEvery = 2;
    first.neatConfigPath = firstConfig;
    runExperiment("lunar_lander", BackendKind::Cpu, first);

    ExperimentOptions resumed = first;
    resumed.maxGenerations = 6;
    resumed.resume = true;
    resumed.neatConfigPath = resumeConfig;
    ::testing::internal::CaptureStderr();
    const RunResult result =
        runExperiment("lunar_lander", BackendKind::Cpu, resumed);
    const std::string err = ::testing::internal::GetCapturedStderr();

    ExperimentOptions straight = persistOptions(1);
    straight.maxGenerations = 6;
    straight.neatConfigPath = resumeConfig;
    expectIdenticalTraces(
        runExperiment("lunar_lander", BackendKind::Cpu, straight).trace,
        result.trace, "resume under NEAT config, " + tag);
    return err;
}

} // namespace

TEST(PersistResume, ChangedNeatConfigStartsFresh)
{
    // The fingerprint covers every NEAT setting: a snapshot evolved
    // under other hyperparameters is not resumed.
    const std::string ini = ::testing::TempDir() + "e3_persist_other.ini";
    std::ofstream(ini) << "[DefaultGenome]\nfeed_forward = false\n"
                          "conn_add_prob = 0.0\nnode_add_prob = 0.0\n";
    const std::string changed =
        resumeUnderNeatConfig("changed", std::nullopt, ini);
    EXPECT_NE(changed.find("starting fresh"), std::string::npos)
        << changed;
    EXPECT_EQ(changed.find("resumed"), std::string::npos) << changed;

    const std::string same = resumeUnderNeatConfig("same", ini, ini);
    EXPECT_NE(same.find("resumed 'lunar_lander'"), std::string::npos)
        << same;
    EXPECT_EQ(same.find("starting fresh"), std::string::npos) << same;
}

TEST(BackendRegistry, BuiltinsRegisteredAndCreatable)
{
    BackendRegistry &registry = BackendRegistry::instance();
    EXPECT_TRUE(registry.known("cpu"));
    EXPECT_TRUE(registry.known("gpu"));
    EXPECT_TRUE(registry.known("inax"));
    EXPECT_FALSE(registry.known("tpu"));
    EXPECT_EQ(registry.displayName("inax"), "E3-INAX");
    EXPECT_EQ(backendKindName(BackendKind::Gpu), "E3-GPU");
    EXPECT_EQ(backendCliName(BackendKind::Inax), "inax");

    const ExperimentOptions opt;
    const EnvSpec &spec = envSpec("cartpole");
    for (const std::string &name : registry.names()) {
        Result<std::unique_ptr<EvalBackend>> backend =
            registry.create(name, opt, spec);
        ASSERT_TRUE(backend.ok()) << name;
        EXPECT_EQ((*backend)->name(), registry.displayName(name));
    }
    EXPECT_FALSE(registry.create("tpu", opt, spec).ok());
}
