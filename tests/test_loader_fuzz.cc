/**
 * @file
 * Differential fuzz of the text loaders: the std::string_view scanner
 * loaders (genomeFromString in both modes, checkpointFromString)
 * against the iostream oracle in reference_loaders. A seeded e3::Rng
 * mutator flips, inserts and deletes bytes, duplicates and drops lines
 * and swaps tokens in a corpus of evolved genomes, the verifier's
 * fixture genomes and the snapshots of a short checkpointed run. For
 * every mutant both loaders must agree on accept/reject, and an
 * accepted result must match field for field, doubles bit for bit.
 * The head parse (checkpointHeadFromString) is held to the full parse:
 * whatever the full parse accepts, it accepts with the same head.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/fs.hh"
#include "e3/experiment.hh"
#include "neat/population.hh"
#include "reference_loaders.hh"

namespace e3 {
namespace {

using persist::Checkpoint;

uint64_t
bits(double v)
{
    uint64_t out = 0;
    std::memcpy(&out, &v, sizeof(out));
    return out;
}

void
expectSameGenome(const Genome &a, const Genome &b)
{
    EXPECT_EQ(a.key(), b.key());
    EXPECT_EQ(bits(a.fitness), bits(b.fitness));
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (auto ia = a.nodes.begin(), ib = b.nodes.begin();
         ia != a.nodes.end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first);
        EXPECT_EQ(ia->second.id, ib->second.id);
        EXPECT_EQ(bits(ia->second.bias), bits(ib->second.bias));
        EXPECT_EQ(ia->second.act, ib->second.act);
        EXPECT_EQ(ia->second.agg, ib->second.agg);
    }
    ASSERT_EQ(a.conns.size(), b.conns.size());
    for (auto ia = a.conns.begin(), ib = b.conns.begin();
         ia != a.conns.end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first);
        EXPECT_EQ(ia->second.key, ib->second.key);
        EXPECT_EQ(bits(ia->second.weight), bits(ib->second.weight));
        EXPECT_EQ(ia->second.enabled, ib->second.enabled);
    }
}

void
expectSameRng(const RngState &a, const RngState &b)
{
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(a.s[i], b.s[i]);
    EXPECT_EQ(bits(a.cachedNormal), bits(b.cachedNormal));
    EXPECT_EQ(a.hasCachedNormal, b.hasCachedNormal);
}

void
expectSameCheckpoint(const Checkpoint &a, const Checkpoint &b)
{
    EXPECT_EQ(a.configHash, b.configHash);
    EXPECT_EQ(a.generation, b.generation);
    EXPECT_EQ(a.envSteps, b.envSteps);
    EXPECT_EQ(bits(a.bestFitness), bits(b.bestFitness));
    ASSERT_EQ(a.champion.has_value(), b.champion.has_value());
    if (a.champion)
        expectSameGenome(*a.champion, *b.champion);

    ASSERT_EQ(a.phaseSeconds.size(), b.phaseSeconds.size());
    for (size_t i = 0; i < a.phaseSeconds.size(); ++i) {
        EXPECT_EQ(a.phaseSeconds[i].first, b.phaseSeconds[i].first);
        EXPECT_EQ(bits(a.phaseSeconds[i].second),
                  bits(b.phaseSeconds[i].second));
    }
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (size_t i = 0; i < a.trace.size(); ++i) {
        const persist::TraceRow &ra = a.trace[i];
        const persist::TraceRow &rb = b.trace[i];
        EXPECT_EQ(ra.generation, rb.generation);
        EXPECT_EQ(bits(ra.bestFitness), bits(rb.bestFitness));
        EXPECT_EQ(bits(ra.meanFitness), bits(rb.meanFitness));
        EXPECT_EQ(bits(ra.normalizedBest), bits(rb.normalizedBest));
        EXPECT_EQ(bits(ra.cumulativeSeconds), bits(rb.cumulativeSeconds));
        EXPECT_EQ(bits(ra.meanNodes), bits(rb.meanNodes));
        EXPECT_EQ(bits(ra.meanConnections), bits(rb.meanConnections));
        EXPECT_EQ(bits(ra.meanDensity), bits(rb.meanDensity));
        EXPECT_EQ(ra.numSpecies, rb.numSpecies);
    }

    const PopulationState &pa = a.population;
    const PopulationState &pb = b.population;
    EXPECT_EQ(pa.generation, pb.generation);
    expectSameRng(pa.rng, pb.rng);
    expectSameRng(pa.reproductionRng, pb.reproductionRng);
    EXPECT_EQ(pa.genomesCreated, pb.genomesCreated);
    EXPECT_EQ(pa.lastNodeId, pb.lastNodeId);
    EXPECT_EQ(pa.nextSpeciesId, pb.nextSpeciesId);
    ASSERT_EQ(pa.genomes.size(), pb.genomes.size());
    for (auto ia = pa.genomes.begin(), ib = pb.genomes.begin();
         ia != pa.genomes.end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first);
        expectSameGenome(ia->second, ib->second);
    }
    ASSERT_EQ(pa.species.size(), pb.species.size());
    for (auto ia = pa.species.begin(), ib = pb.species.begin();
         ia != pa.species.end(); ++ia, ++ib) {
        const Species &sa = ia->second;
        const Species &sb = ib->second;
        EXPECT_EQ(ia->first, ib->first);
        EXPECT_EQ(sa.id, sb.id);
        EXPECT_EQ(sa.created, sb.created);
        EXPECT_EQ(sa.lastImproved, sb.lastImproved);
        EXPECT_EQ(bits(sa.adjustedFitness), bits(sb.adjustedFitness));
        EXPECT_EQ(sa.members, sb.members);
        ASSERT_EQ(sa.fitnessHistory.size(), sb.fitnessHistory.size());
        for (size_t i = 0; i < sa.fitnessHistory.size(); ++i)
            EXPECT_EQ(bits(sa.fitnessHistory[i]),
                      bits(sb.fitnessHistory[i]));
        expectSameGenome(sa.representative, sb.representative);
    }
}

/** Seeded structure-aware byte mutator over line-oriented text. */
class Mutator
{
  public:
    explicit Mutator(uint64_t seed) : rng_(seed) {}

    std::string
    mutate(const std::string &seed)
    {
        std::string text = seed;
        const uint64_t edits = 1 + rng_.uniformInt(3);
        for (uint64_t e = 0; e < edits; ++e)
            mutateOnce(text);
        return text;
    }

  private:
    /** Bytes the parsers treat specially, plus arbitrary ones. */
    char
    interestingByte()
    {
        static const char kAlphabet[] = "0123456789-+.eExp# \t\r\nnaifN";
        if (rng_.chance(0.25))
            return static_cast<char>(rng_.uniformInt(256));
        return kAlphabet[rng_.uniformInt(sizeof(kAlphabet) - 1)];
    }

    size_t
    position(const std::string &text, bool inclusiveEnd)
    {
        return static_cast<size_t>(
            rng_.uniformInt(text.size() + (inclusiveEnd ? 1 : 0)));
    }

    /** [begin, end) of every line, including its '\n'. */
    static std::vector<std::pair<size_t, size_t>>
    lines(const std::string &text)
    {
        std::vector<std::pair<size_t, size_t>> out;
        size_t begin = 0;
        while (begin < text.size()) {
            size_t end = text.find('\n', begin);
            end = end == std::string::npos ? text.size() : end + 1;
            out.emplace_back(begin, end);
            begin = end;
        }
        return out;
    }

    /** [begin, end) of every whitespace-delimited token. */
    static std::vector<std::pair<size_t, size_t>>
    tokens(const std::string &text)
    {
        std::vector<std::pair<size_t, size_t>> out;
        size_t i = 0;
        while (i < text.size()) {
            while (i < text.size() && isSpaceC(text[i]))
                ++i;
            const size_t begin = i;
            while (i < text.size() && !isSpaceC(text[i]))
                ++i;
            if (i > begin)
                out.emplace_back(begin, i);
        }
        return out;
    }

    void
    mutateOnce(std::string &text)
    {
        switch (rng_.uniformInt(6)) {
          case 0: // flip one bit
            if (!text.empty())
                text[position(text, false)] ^=
                    static_cast<char>(1u << rng_.uniformInt(8));
            break;
          case 1: // insert a byte
            text.insert(text.begin() + static_cast<long>(position(text, true)),
                        interestingByte());
            break;
          case 2: // delete a short run
            if (!text.empty()) {
                const size_t at = position(text, false);
                text.erase(at, 1 + rng_.uniformInt(4));
            }
            break;
          case 3: // duplicate a line
          case 4: { // drop a line
            const auto all = lines(text);
            if (all.empty())
                break;
            const auto [begin, end] = all[rng_.uniformInt(all.size())];
            const std::string line = text.substr(begin, end - begin);
            if (rng_.chance(0.5))
                text.insert(begin, line);
            else
                text.erase(begin, end - begin);
            break;
          }
          case 5: { // swap two tokens
            const auto all = tokens(text);
            if (all.size() < 2)
                break;
            auto a = all[rng_.uniformInt(all.size())];
            auto b = all[rng_.uniformInt(all.size())];
            if (a.first > b.first)
                std::swap(a, b);
            if (a.first == b.first)
                break;
            const std::string ta = text.substr(a.first, a.second - a.first);
            const std::string tb = text.substr(b.first, b.second - b.first);
            text.replace(b.first, tb.size(), ta);
            text.replace(a.first, ta.size(), tb);
            break;
          }
        }
    }

    Rng rng_;
};

/** Genome texts of evolved populations plus the verifier fixtures. */
std::vector<std::string>
genomeCorpus()
{
    std::vector<std::string> corpus;
    for (uint64_t seed : {1, 2, 3}) {
        NeatConfig cfg = NeatConfig::forTask(4, 2, 1e18);
        cfg.populationSize = 30;
        cfg.activationOptions = {Activation::Sigmoid, Activation::Tanh,
                                 Activation::ReLU};
        cfg.activationMutateRate = 0.2;
        Population pop(cfg, seed);
        for (int gen = 0; gen < 8; ++gen) {
            for (auto &[key, genome] : pop.genomes())
                genome.fitness =
                    static_cast<double>(genome.conns.size()) - 0.01 * key;
            pop.advance();
        }
        size_t i = 0;
        for (const auto &[key, genome] : pop.genomes()) {
            if (i++ % 6 == 0)
                corpus.push_back(genomeToString(genome));
        }
    }
    for (const auto &entry :
         std::filesystem::directory_iterator(E3_VERIFY_FIXTURE_DIR)) {
        if (entry.path().extension() != ".genome")
            continue;
        Result<std::string> text = readFile(entry.path().string());
        EXPECT_TRUE(text.ok()) << text.message();
        if (text.ok())
            corpus.push_back(*text);
    }
    return corpus;
}

/** Every snapshot of a short checkpointed lunar_lander run, written
 * to a directory of the calling test's own (ctest runs them at once). */
std::vector<std::string>
checkpointCorpus()
{
    const std::string dir =
        ::testing::TempDir() + "e3_loader_fuzz_ckpt_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir);
    ExperimentOptions opt;
    opt.seed = 11;
    opt.populationSize = 24;
    opt.episodesPerEval = 1;
    opt.maxGenerations = 7;
    opt.checkpointDir = dir;
    opt.checkpointEvery = 2;
    opt.checkpointKeep = 4;
    runExperiment("lunar_lander", BackendKind::Cpu, opt);

    std::vector<std::string> corpus;
    Result<std::vector<std::pair<int, std::string>>> files =
        persist::listCheckpointFiles(dir);
    EXPECT_TRUE(files.ok()) << files.message();
    if (!files.ok())
        return corpus;
    for (const auto &[generation, path] : *files) {
        Result<std::string> text = readFile(path);
        EXPECT_TRUE(text.ok()) << text.message();
        if (text.ok())
            corpus.push_back(*text);
    }
    return corpus;
}

/** Both loaders on one text: same verdict, same fields. */
void
compareGenomeLoads(const std::string &text, GenomeLoadMode mode,
                   size_t &accepted)
{
    const Result<Genome> fast = genomeFromString(text, mode);
    const Result<Genome> oracle = reference::genomeFromString(text, mode);
    ASSERT_EQ(fast.ok(), oracle.ok())
        << "scanner: " << fast.message()
        << "\noracle: " << oracle.message() << "\ntext:\n" << text;
    if (fast.ok()) {
        ++accepted;
        expectSameGenome(*fast, *oracle);
    }
}

TEST(LoaderFuzz, GenomeFromStringMatchesIostreamOracle)
{
    const std::vector<std::string> corpus = genomeCorpus();
    ASSERT_GE(corpus.size(), 20u);
    for (const std::string &text : corpus) {
        size_t unused = 0;
        compareGenomeLoads(text, GenomeLoadMode::Raw, unused);
        compareGenomeLoads(text, GenomeLoadMode::Validated, unused);
    }

    Mutator mutator(0x5EED);
    constexpr size_t kMutants = 20000;
    size_t acceptedRaw = 0;
    size_t acceptedValidated = 0;
    for (size_t i = 0; i < kMutants; ++i) {
        const std::string text =
            mutator.mutate(corpus[i % corpus.size()]);
        compareGenomeLoads(text, GenomeLoadMode::Raw, acceptedRaw);
        compareGenomeLoads(text, GenomeLoadMode::Validated,
                           acceptedValidated);
        if (HasFatalFailure())
            return;
    }
    // Both verdicts must be well represented, or the fuzz is not
    // reaching the field parsers.
    EXPECT_GT(acceptedRaw, kMutants / 10);
    EXPECT_LT(acceptedRaw, kMutants - kMutants / 10);
    EXPECT_GT(acceptedValidated, 0u);
    EXPECT_LE(acceptedValidated, acceptedRaw);
}

TEST(LoaderFuzz, CheckpointFromStringMatchesIostreamOracle)
{
    const std::vector<std::string> corpus = checkpointCorpus();
    ASSERT_GE(corpus.size(), 3u);

    Mutator mutator(0xC4EC);
    constexpr size_t kMutants = 2000;
    size_t accepted = 0;
    for (size_t i = 0; i < kMutants + corpus.size(); ++i) {
        // The unmutated snapshots first: they must load.
        const std::string text =
            i < corpus.size() ? corpus[i]
                              : mutator.mutate(corpus[i % corpus.size()]);
        const Result<Checkpoint> fast = persist::checkpointFromString(text);
        const Result<Checkpoint> oracle =
            reference::checkpointFromString(text);
        if (i < corpus.size()) {
            ASSERT_TRUE(fast.ok()) << fast.message();
        }
        ASSERT_EQ(fast.ok(), oracle.ok())
            << "mutant " << i << "\nscanner: " << fast.message()
            << "\noracle: " << oracle.message();
        if (fast.ok()) {
            ++accepted;
            expectSameCheckpoint(*fast, *oracle);
            if (HasFatalFailure())
                return;
        }
    }
    EXPECT_GT(accepted, kMutants / 20);
    EXPECT_LT(accepted, kMutants - kMutants / 10);
}

/** Offset of the population record, where a snapshot's head ends. */
size_t
headEnd(const std::string &snapshot)
{
    const size_t at = snapshot.find("\npopulation ");
    return at == std::string::npos ? snapshot.size() : at + 1;
}

TEST(LoaderFuzz, CheckpointHeadParseAgreesWithFullParse)
{
    const std::vector<std::string> corpus = checkpointCorpus();
    ASSERT_GE(corpus.size(), 3u);

    Mutator mutator(0x4EAD);
    constexpr size_t kMutants = 2000;
    size_t headAccepted = 0;
    size_t fullAccepted = 0;
    for (size_t i = 0; i < kMutants + corpus.size(); ++i) {
        // The unmutated snapshots first; then every other mutant edits
        // only the head, so most edits land where the head parse reads.
        const std::string &seed = corpus[i % corpus.size()];
        std::string text = seed;
        if (i >= corpus.size() && i % 2 == 0) {
            text = mutator.mutate(seed);
        } else if (i >= corpus.size()) {
            const size_t end = headEnd(seed);
            text = mutator.mutate(seed.substr(0, end)) + seed.substr(end);
        }
        const Result<Checkpoint> head =
            persist::checkpointHeadFromString(text);
        const Result<Checkpoint> full = persist::checkpointFromString(text);
        if (i < corpus.size()) {
            ASSERT_TRUE(full.ok()) << full.message();
        }
        headAccepted += head.ok() ? 1 : 0;
        if (!full.ok())
            continue;
        ++fullAccepted;
        ASSERT_TRUE(head.ok())
            << "mutant " << i << ": the full parse accepts, the head "
            << "parse says " << head.message();
        EXPECT_EQ(head->configHash, full->configHash);
        EXPECT_EQ(head->generation, full->generation);
        EXPECT_EQ(bits(head->bestFitness), bits(full->bestFitness));
        ASSERT_EQ(head->champion.has_value(), full->champion.has_value());
        if (full->champion) {
            EXPECT_EQ(genomeToString(*head->champion),
                      genomeToString(*full->champion));
        }
        EXPECT_TRUE(head->population.genomes.empty());
        if (HasFailure())
            return;
    }
    // Both verdicts must be well represented, and the head parse must
    // accept snapshots damaged only past their champion.
    EXPECT_GT(fullAccepted, kMutants / 20);
    EXPECT_GT(headAccepted, fullAccepted);
    EXPECT_LT(headAccepted, kMutants - kMutants / 10);
}

} // namespace
} // namespace e3
