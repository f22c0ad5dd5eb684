#include "persist/checkpoint.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "common/fs.hh"
#include "common/logging.hh"
#include "common/text_scan.hh"
#include "common/timing.hh"
#include "neat/serialize.hh"
#include "obs/trace.hh"
#include "verify/structural.hh"

namespace e3 {
namespace persist {

namespace {

const char *const kManifestName = "MANIFEST";

/** Exact double formatting: C99 hex floats round-trip every value. */
std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** strtoull base 16 over one whole token (the config hash). */
bool
parseHex64(std::string_view token, uint64_t &out)
{
    if (token.empty())
        return false;
    const std::string text(token);
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 16);
    return end == text.c_str() + text.size();
}

/** Advance to the next record, which must be tagged @p want. */
Status
record(TextCursor &cursor, std::string_view want, LineScanner &rest)
{
    std::string_view tag;
    if (!cursor.nextRecord(tag, rest))
        return Status::error("checkpoint truncated: expected '", want,
                             "' record");
    if (tag != want)
        return Status::error("expected '", want, "' record, got '", tag,
                             "'");
    return Status();
}

/** record() plus its values, read in order; "bad <want>" if one fails. */
template <typename... Values>
Status
readRecord(TextCursor &cursor, std::string_view want, Values &...values)
{
    LineScanner rest;
    if (Status st = record(cursor, want, rest); !st.ok())
        return st;
    if (!(rest >> ... >> values))
        return Status::error("bad ", want);
    return Status();
}

/**
 * Structural verification of a genome pulled out of a snapshot: a
 * corrupt or hand-edited checkpoint must degrade to an error value
 * (loadLatestCheckpoint then falls back to the next-newest snapshot),
 * never reach the compiler's asserts. Interface-agnostic — the
 * checkpoint does not record what environment its genomes were
 * evolved for.
 */
Status
verifyStoredGenome(const Genome &genome, const char *what)
{
    verify::Report report =
        verify::verifyGenome(genome, verify::GenomeInterface::lenient());
    if (!report.hasErrors())
        return Status();
    for (const verify::Diagnostic &d : report.diagnostics) {
        if (d.severity != verify::Severity::Error)
            continue;
        return Status::error(
            what, " genome ", genome.key(),
            " fails structural verification: ", d.ruleId, " [",
            d.locus, "] ", d.message,
            report.errorCount() > 1 ? " (and more)" : "");
    }
    return Status();
}

/** loadGenome + structural verification for one stored genome. */
Result<Genome>
loadStoredGenome(TextCursor &cursor, const char *what)
{
    Result<Genome> genome = loadGenome(cursor, GenomeLoadMode::Raw);
    if (!genome.ok())
        return genome;
    if (Status st = verifyStoredGenome(genome.value(), what); !st.ok())
        return st;
    return genome;
}

void
saveRngState(const char *name, const RngState &state, std::ostream &out)
{
    out << "rng " << name;
    for (uint64_t word : state.s)
        out << ' ' << word;
    out << ' ' << hexDouble(state.cachedNormal) << ' '
        << (state.hasCachedNormal ? 1 : 0) << '\n';
}

Status
loadRngState(TextCursor &cursor, std::string_view name, RngState &out)
{
    LineScanner rest;
    if (Status st = record(cursor, "rng", rest); !st.ok())
        return st;
    std::string_view streamName;
    if (!(rest >> streamName) || streamName != name)
        return Status::error("expected rng stream '", name, "'");
    int hasCached = 0;
    if (!(rest >> out.s[0] >> out.s[1] >> out.s[2] >> out.s[3] >>
          out.cachedNormal >> hasCached))
        return Status::error("bad rng state for '", name, "'");
    out.hasCachedNormal = hasCached != 0;
    return Status();
}

/** The manifest: format header plus retained snapshots, oldest first. */
struct Manifest
{
    int version = kFormatVersion;
    uint64_t configHash = 0;
    std::vector<std::pair<int, std::string>> entries;
};

Result<Manifest>
parseManifest(std::string_view text)
{
    TextCursor cursor(text);
    Manifest manifest;
    LineScanner rest;
    if (Status st = record(cursor, "e3-checkpoint-manifest", rest);
        !st.ok())
        return st;
    std::string_view hash;
    if (!(rest >> manifest.version >> hash) ||
        !parseHex64(hash, manifest.configHash))
        return Status::error("malformed manifest header");

    std::string_view tag;
    while (cursor.nextRecord(tag, rest)) {
        if (tag != "checkpoint")
            return Status::error("unknown manifest record '", tag, "'");
        int generation = 0;
        std::string_view file;
        if (!(rest >> generation >> file))
            return Status::error("malformed manifest entry");
        manifest.entries.emplace_back(generation, std::string(file));
    }
    return manifest;
}

std::string
manifestToString(const Manifest &manifest)
{
    std::ostringstream out;
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016" PRIx64,
                  manifest.configHash);
    out << "e3-checkpoint-manifest " << manifest.version << ' ' << hash
        << '\n';
    for (const auto &[generation, file] : manifest.entries)
        out << "checkpoint " << generation << ' ' << file << '\n';
    return out.str();
}

std::string
joinPath(const std::string &dir, const std::string &file)
{
    return dir + "/" + file;
}

} // namespace

uint64_t
fingerprint(const std::string &canonical)
{
    uint64_t hash = 0xCBF29CE484222325ULL;
    for (unsigned char c : canonical) {
        hash ^= c;
        hash *= 0x100000001B3ULL;
    }
    return hash;
}

std::string
checkpointFileName(int generation)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "ckpt-%06d.e3", generation);
    return buf;
}

void
saveCheckpoint(const Checkpoint &checkpoint, std::ostream &out)
{
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016" PRIx64,
                  checkpoint.configHash);
    out << "e3-checkpoint " << kFormatVersion << ' ' << hash << '\n';
    out << "generation " << checkpoint.generation << '\n';
    out << "envsteps " << checkpoint.envSteps << '\n';
    out << "best-fitness " << hexDouble(checkpoint.bestFitness) << '\n';

    const PopulationState &pop = checkpoint.population;
    out << "pop-generation " << pop.generation << '\n';
    saveRngState("population", pop.rng, out);
    saveRngState("reproduction", pop.reproductionRng, out);
    out << "genomes-created " << pop.genomesCreated << '\n';
    out << "innovation " << pop.lastNodeId << '\n';
    out << "next-species-id " << pop.nextSpeciesId << '\n';

    out << "phases " << checkpoint.phaseSeconds.size() << '\n';
    for (const auto &[name, seconds] : checkpoint.phaseSeconds)
        out << "phase " << name << ' ' << hexDouble(seconds) << '\n';

    out << "trace " << checkpoint.trace.size() << '\n';
    for (const TraceRow &row : checkpoint.trace) {
        out << "row " << row.generation << ' '
            << hexDouble(row.bestFitness) << ' '
            << hexDouble(row.meanFitness) << ' '
            << hexDouble(row.normalizedBest) << ' '
            << hexDouble(row.cumulativeSeconds) << ' '
            << hexDouble(row.meanNodes) << ' '
            << hexDouble(row.meanConnections) << ' '
            << hexDouble(row.meanDensity) << ' ' << row.numSpecies
            << '\n';
    }

    out << "champion " << (checkpoint.champion ? 1 : 0) << '\n';
    if (checkpoint.champion)
        saveGenome(*checkpoint.champion, out);

    out << "population " << pop.genomes.size() << '\n';
    for (const auto &[key, genome] : pop.genomes)
        saveGenome(genome, out);

    out << "species " << pop.species.size() << '\n';
    for (const auto &[sid, sp] : pop.species) {
        out << "species-begin " << sid << ' ' << sp.created << ' '
            << sp.lastImproved << ' ' << hexDouble(sp.adjustedFitness)
            << '\n';
        out << "members " << sp.members.size();
        for (int member : sp.members)
            out << ' ' << member;
        out << '\n';
        out << "history " << sp.fitnessHistory.size();
        for (double h : sp.fitnessHistory)
            out << ' ' << hexDouble(h);
        out << '\n';
        saveGenome(sp.representative, out);
        out << "species-end\n";
    }
    out << "end-checkpoint\n";
}

std::string
checkpointToString(const Checkpoint &checkpoint)
{
    std::ostringstream oss;
    saveCheckpoint(checkpoint, oss);
    return oss.str();
}

namespace {

/**
 * Parse a snapshot's head into @p ck: the header records, the phases,
 * the trace and the champion section, champion verified. Leaves
 * @p cursor at the population record.
 */
Status
parseHead(TextCursor &cursor, Checkpoint &ck)
{
    LineScanner rest;
    if (Status st = record(cursor, "e3-checkpoint", rest); !st.ok())
        return st;
    int version = 0;
    std::string_view hash;
    if (!(rest >> version >> hash) || !parseHex64(hash, ck.configHash))
        return Status::error("malformed checkpoint header");
    if (version != kFormatVersion)
        return Status::error("checkpoint format version ", version,
                             ", this build reads version ",
                             kFormatVersion);

    PopulationState &pop = ck.population;
    if (Status st = readRecord(cursor, "generation", ck.generation);
        !st.ok())
        return st;
    if (Status st = readRecord(cursor, "envsteps", ck.envSteps); !st.ok())
        return st;
    if (Status st = readRecord(cursor, "best-fitness", ck.bestFitness);
        !st.ok())
        return st;
    if (Status st = readRecord(cursor, "pop-generation", pop.generation);
        !st.ok())
        return st;
    if (ck.generation < 0 || pop.generation < 0)
        return Status::error("negative generation ", ck.generation,
                             " / pop-generation ", pop.generation);
    if (Status st = loadRngState(cursor, "population", pop.rng); !st.ok())
        return st;
    if (Status st = loadRngState(cursor, "reproduction",
                                 pop.reproductionRng);
        !st.ok())
        return st;
    if (Status st =
            readRecord(cursor, "genomes-created", pop.genomesCreated);
        !st.ok())
        return st;
    if (Status st = readRecord(cursor, "innovation", pop.lastNodeId);
        !st.ok())
        return st;
    if (Status st =
            readRecord(cursor, "next-species-id", pop.nextSpeciesId);
        !st.ok())
        return st;

    size_t phaseCount = 0;
    if (Status st = readRecord(cursor, "phases", phaseCount); !st.ok())
        return st;
    for (size_t i = 0; i < phaseCount; ++i) {
        std::string_view name;
        double seconds = 0.0;
        if (Status st = readRecord(cursor, "phase", name, seconds);
            !st.ok())
            return st;
        ck.phaseSeconds.emplace_back(std::string(name), seconds);
    }

    size_t rowCount = 0;
    if (Status st = readRecord(cursor, "trace", rowCount); !st.ok())
        return st;
    for (size_t i = 0; i < rowCount; ++i) {
        TraceRow row;
        if (Status st = readRecord(
                cursor, "row", row.generation, row.bestFitness,
                row.meanFitness, row.normalizedBest,
                row.cumulativeSeconds, row.meanNodes,
                row.meanConnections, row.meanDensity, row.numSpecies);
            !st.ok())
            return st;
        ck.trace.push_back(row);
    }

    int hasChampion = 0;
    if (Status st = readRecord(cursor, "champion", hasChampion); !st.ok())
        return st;
    if (hasChampion) {
        Result<Genome> champion = loadStoredGenome(cursor, "champion");
        if (!champion.ok())
            return Status::error("bad champion genome: ",
                                 champion.message());
        ck.champion = std::move(champion).value();
    }
    return Status();
}

} // namespace

Result<Checkpoint>
checkpointHeadFromString(std::string_view text)
{
    TextCursor cursor(text);
    Checkpoint ck;
    if (Status st = parseHead(cursor, ck); !st.ok())
        return st;
    return ck;
}

Result<Checkpoint>
checkpointFromString(std::string_view text)
{
    TextCursor cursor(text);
    Checkpoint ck;
    if (Status st = parseHead(cursor, ck); !st.ok())
        return st;

    PopulationState &pop = ck.population;
    LineScanner rest;

    // Restore compiles and reproduces from the stored genomes, so an
    // empty population is corrupt, not a fresh start.
    size_t genomeCount = 0;
    if (Status st = readRecord(cursor, "population", genomeCount);
        !st.ok())
        return st;
    if (genomeCount == 0)
        return Status::error("population of 0 genomes");
    for (size_t i = 0; i < genomeCount; ++i) {
        Result<Genome> genome = loadStoredGenome(cursor, "population");
        if (!genome.ok())
            return Status::error("bad population genome: ",
                                 genome.message());
        const int key = genome.value().key();
        if (!pop.genomes.emplace(key, std::move(genome).value()).second)
            return Status::error("duplicate genome key ", key);
    }

    // Reproduction looks each member up among the stored genomes and
    // expects every genome in at most one species.
    std::map<int, int> speciesOf;
    size_t speciesCount = 0;
    if (Status st = readRecord(cursor, "species", speciesCount); !st.ok())
        return st;
    for (size_t i = 0; i < speciesCount; ++i) {
        int sid = 0, created = 0, lastImproved = 0;
        double adjusted = 0.0;
        if (Status st = readRecord(cursor, "species-begin", sid, created,
                                   lastImproved, adjusted);
            !st.ok())
            return st;

        if (Status st = record(cursor, "members", rest); !st.ok())
            return st;
        size_t memberCount = 0;
        if (!(rest >> memberCount))
            return Status::error("bad species member count");
        std::vector<int> members;
        for (size_t m = 0; m < memberCount; ++m) {
            int member = 0;
            if (!(rest >> member))
                return Status::error("bad species member list");
            if (!pop.genomes.count(member))
                return Status::error("species ", sid, " member ", member,
                                     " names no stored genome");
            if (auto [it, fresh] = speciesOf.emplace(member, sid); !fresh)
                return Status::error("genome ", member,
                                     " is listed in species ",
                                     it->second, " and ", sid);
            members.push_back(member);
        }

        if (Status st = record(cursor, "history", rest); !st.ok())
            return st;
        size_t historyCount = 0;
        if (!(rest >> historyCount))
            return Status::error("bad species history count");
        std::vector<double> history;
        for (size_t h = 0; h < historyCount; ++h) {
            double value = 0.0;
            if (!(rest >> value))
                return Status::error("bad species history value");
            history.push_back(value);
        }

        Result<Genome> representative =
            loadStoredGenome(cursor, "species representative");
        if (!representative.ok())
            return Status::error("bad species representative: ",
                                 representative.message());
        if (Status st = record(cursor, "species-end", rest); !st.ok())
            return st;

        Species sp(sid, created, std::move(representative).value());
        sp.lastImproved = lastImproved;
        sp.adjustedFitness = adjusted;
        sp.members = std::move(members);
        sp.fitnessHistory = std::move(history);
        if (!pop.species.emplace(sid, std::move(sp)).second)
            return Status::error("duplicate species id ", sid);
    }

    if (Status st = record(cursor, "end-checkpoint", rest); !st.ok())
        return st;
    return ck;
}

Status
writeCheckpoint(const std::string &dir, const Checkpoint &checkpoint,
                int keep, WriteStats *stats)
{
    Stopwatch watch;
    obs::TraceSpan span("checkpoint_write");
    if (Status st = ensureDirectory(dir); !st.ok())
        return st;

    const std::string file = checkpointFileName(checkpoint.generation);
    const std::string content = checkpointToString(checkpoint);
    if (Status st = atomicWriteFile(joinPath(dir, file), content);
        !st.ok())
        return st;

    // Carry over the existing manifest only if it belongs to this run
    // configuration and format; anything else starts a fresh timeline.
    Manifest manifest;
    manifest.configHash = checkpoint.configHash;
    const std::string manifestPath = joinPath(dir, kManifestName);
    if (fileExists(manifestPath)) {
        if (Result<std::string> text = readFile(manifestPath);
            text.ok()) {
            if (Result<Manifest> old = parseManifest(text.value());
                old.ok() && old.value().version == kFormatVersion &&
                old.value().configHash == checkpoint.configHash) {
                manifest.entries = std::move(old.value().entries);
            }
        }
    }

    // Entries at or past the new generation belong to an abandoned
    // timeline (we resumed from an older snapshot); drop their files.
    for (auto it = manifest.entries.begin();
         it != manifest.entries.end();) {
        if (it->first >= checkpoint.generation && it->second != file) {
            if (Status rm = removeFile(joinPath(dir, it->second));
                !rm.ok())
                warn("checkpoint cleanup: ", rm.message());
            it = manifest.entries.erase(it);
        } else if (it->first >= checkpoint.generation) {
            it = manifest.entries.erase(it);
        } else {
            ++it;
        }
    }
    manifest.entries.emplace_back(checkpoint.generation, file);

    // Retention: keep the newest `keep` snapshots.
    const size_t retained = keep < 1 ? 1 : static_cast<size_t>(keep);
    while (manifest.entries.size() > retained) {
        if (Status rm = removeFile(
                joinPath(dir, manifest.entries.front().second));
            !rm.ok())
            warn("checkpoint retention: ", rm.message());
        manifest.entries.erase(manifest.entries.begin());
    }

    if (Status st =
            atomicWriteFile(manifestPath, manifestToString(manifest));
        !st.ok())
        return st;

    if (stats) {
        stats->seconds = watch.seconds();
        stats->bytes = content.size();
        stats->path = joinPath(dir, file);
    }
    return Status();
}

namespace {

/**
 * The newest snapshot in @p dir's MANIFEST, read up to @p stopLine
 * (readFile), that @p parse accepts and that carries the manifest's
 * fingerprint; unreadable, damaged or mismatched snapshots are skipped
 * with a warning. A manifest of another format version, or of a
 * configuration other than @p expectedConfigHash when one is given, is
 * an error.
 */
Result<Checkpoint>
loadNewest(const std::string &dir,
           std::optional<uint64_t> expectedConfigHash,
           Result<Checkpoint> (*parse)(std::string_view),
           std::string_view stopLine)
{
    const std::string manifestPath = joinPath(dir, kManifestName);
    Result<std::string> text = readFile(manifestPath);
    if (!text.ok())
        return Status::error("no checkpoint manifest in '", dir,
                             "': ", text.message());
    Result<Manifest> parsed = parseManifest(text.value());
    if (!parsed.ok())
        return Status::error("unreadable manifest '", manifestPath,
                             "': ", parsed.message());
    const Manifest &manifest = parsed.value();
    if (manifest.version != kFormatVersion)
        return Status::error("manifest format version ",
                             manifest.version,
                             ", this build reads version ",
                             kFormatVersion);
    const uint64_t configHash =
        expectedConfigHash.value_or(manifest.configHash);
    if (manifest.configHash != configHash)
        return Status::error(
            "checkpoint was written by a different run configuration "
            "(fingerprint mismatch)");
    if (manifest.entries.empty())
        return Status::error("manifest lists no checkpoints");

    // Newest first; fall back to older snapshots if one is damaged.
    for (auto it = manifest.entries.rbegin();
         it != manifest.entries.rend(); ++it) {
        const std::string path = joinPath(dir, it->second);
        Result<std::string> bytes = readFile(path, stopLine);
        if (!bytes.ok()) {
            warn("skipping checkpoint '", path,
                 "': ", bytes.message());
            continue;
        }
        Result<Checkpoint> ck = parse(bytes.value());
        if (!ck.ok()) {
            warn("skipping checkpoint '", path, "': ", ck.message());
            continue;
        }
        if (ck.value().configHash != configHash) {
            warn("skipping checkpoint '", path,
                 "': config fingerprint mismatch");
            continue;
        }
        return ck;
    }
    return Status::error("no usable checkpoint in '", dir, "'");
}

} // namespace

Result<Checkpoint>
loadLatestCheckpoint(const std::string &dir,
                     uint64_t expectedConfigHash)
{
    obs::TraceSpan span("checkpoint_load");
    return loadNewest(dir, expectedConfigHash, checkpointFromString, "");
}

Result<Checkpoint>
loadLatestChampion(const std::string &dir)
{
    obs::TraceSpan span("checkpoint_load");
    return loadNewest(dir, std::nullopt, checkpointHeadFromString,
                      "population ");
}

Result<std::vector<std::pair<int, std::string>>>
listCheckpointFiles(const std::string &dir)
{
    const std::string manifestPath = joinPath(dir, kManifestName);
    Result<std::string> text = readFile(manifestPath);
    if (!text.ok())
        return Status::error("no checkpoint manifest in '", dir,
                             "': ", text.message());
    Result<Manifest> parsed = parseManifest(text.value());
    if (!parsed.ok())
        return Status::error("unreadable manifest '", manifestPath,
                             "': ", parsed.message());
    std::vector<std::pair<int, std::string>> out;
    out.reserve(parsed.value().entries.size());
    for (const auto &[generation, file] : parsed.value().entries)
        out.emplace_back(generation, joinPath(dir, file));
    return out;
}

} // namespace persist
} // namespace e3
