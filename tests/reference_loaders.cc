#include "reference_loaders.hh"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>

#include "verify/structural.hh"

namespace e3::reference {

using persist::Checkpoint;
using persist::kFormatVersion;
using persist::TraceRow;

namespace {

/** strtod with full-token consumption; handles hex, "nan", "inf". */
bool
parseDouble(const std::string &token, double &out)
{
    if (token.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
}

bool
parseUint64(const std::string &token, uint64_t &out)
{
    if (token.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(token.c_str(), &end, 16);
    return end == token.c_str() + token.size();
}

/**
 * Advance to the next non-blank, non-comment line and split off its
 * leading tag; false at end of stream.
 */
bool
nextRecord(std::istream &in, std::string &tag, std::istringstream &rest)
{
    std::string line;
    while (std::getline(in, line)) {
        rest.clear();
        rest.str(line);
        tag.clear();
        if (!(rest >> tag) || tag[0] == '#')
            continue;
        return true;
    }
    return false;
}

/** Read one expected record; error mentions what was wanted. */
Status
record(std::istream &in, const std::string &want,
       std::istringstream &rest)
{
    std::string tag;
    if (!nextRecord(in, tag, rest))
        return Status::error("checkpoint truncated: expected '", want,
                             "' record");
    if (tag != want)
        return Status::error("expected '", want, "' record, got '", tag,
                             "'");
    return Status();
}

/** Pull one hex-float token off a record. */
Status
readDouble(std::istringstream &rest, const std::string &what,
           double &out)
{
    std::string token;
    if (!(rest >> token) || !parseDouble(token, out))
        return Status::error("bad ", what, " value");
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
loadStoredGenome(std::istream &in, const char *what)
{
    Result<Genome> genome = loadGenome(in, GenomeLoadMode::Raw);
    if (!genome.ok())
        return genome;
    if (Status st = verifyStoredGenome(genome.value(), what); !st.ok())
        return st;
    return genome;
}

/**
 * Structural audit of a parsed genome (GenomeLoadMode::Validated).
 * Defects that the line parser cannot see — endpoints referencing
 * absent node genes, connections targeting inputs, non-finite
 * parameters — reject the load with the matching verifier rule ID.
 */
Status
auditLoadedGenome(const Genome &genome)
{
    for (const auto &[id, node] : genome.nodes) {
        if (!std::isfinite(node.bias))
            return Status::error("[E3V007] non-finite bias on node ",
                                 id);
    }
    for (const auto &[key, gene] : genome.conns) {
        if (key.second < 0)
            return Status::error("[E3V002] connection ", key.first,
                                 "->", key.second,
                                 " targets input id ", key.second);
        if (!genome.nodes.count(key.second))
            return Status::error("[E3V001] connection ", key.first,
                                 "->", key.second,
                                 " targets undefined node ",
                                 key.second);
        if (key.first >= 0 && !genome.nodes.count(key.first))
            return Status::error("[E3V001] connection ", key.first,
                                 "->", key.second,
                                 " reads undefined node ", key.first);
        if (!std::isfinite(gene.weight))
            return Status::error("[E3V007] non-finite weight on "
                                 "connection ",
                                 key.first, "->", key.second);
    }
    return Status();
}

Status
loadRngState(std::istream &in, const std::string &name, RngState &out)
{
    std::istringstream rest;
    if (Status st = record(in, "rng", rest); !st.ok())
        return st;
    std::string streamName;
    if (!(rest >> streamName) || streamName != name)
        return Status::error("expected rng stream '", name, "'");
    int hasCached = 0;
    for (uint64_t &word : out.s) {
        if (!(rest >> word))
            return Status::error("bad rng state for '", name, "'");
    }
    if (Status st = readDouble(rest, "rng cached normal",
                               out.cachedNormal);
        !st.ok())
        return st;
    if (!(rest >> hasCached))
        return Status::error("bad rng state for '", name, "'");
    out.hasCachedNormal = hasCached != 0;
    return Status();
}

} // namespace

Result<Genome>
loadGenome(std::istream &in, GenomeLoadMode mode)
{
    std::string line;
    // Find the header, skipping blanks and comments.
    int key = 0;
    double fitness = std::numeric_limits<double>::quiet_NaN();
    bool haveHeader = false;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag;
        if (!(ls >> tag) || tag[0] == '#')
            continue;
        if (tag != "genome")
            return Status::error("expected 'genome' header, got '", tag,
                                 "'");
        std::string fit;
        if (!(ls >> key >> fit))
            return Status::error("malformed genome header: '", line,
                                 "'");
        if (fit != "nan" && !parseDouble(fit, fitness))
            return Status::error("bad fitness '", fit,
                                 "' in genome header");
        haveHeader = true;
        break;
    }
    if (!haveHeader)
        return Status::error("no genome found in stream");

    Genome genome(key);
    genome.fitness = fitness;

    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag;
        if (!(ls >> tag) || tag[0] == '#')
            continue;
        if (tag == "end") {
            if (mode == GenomeLoadMode::Validated) {
                if (Status audit = auditLoadedGenome(genome);
                    !audit.ok())
                    return audit;
            }
            return genome;
        }
        if (tag == "node") {
            int id;
            double bias;
            std::string biasTok, act, agg;
            // The bias goes through parseDouble, not operator>>:
            // saveGenome writes non-finite values as "inf"/"nan" and
            // they must round-trip so the verifier can report them as
            // E3V007 instead of the load failing outright.
            if (!(ls >> id >> biasTok >> act >> agg) ||
                !parseDouble(biasTok, bias))
                return Status::error("malformed node line: '", line,
                                     "'");
            NodeGene gene;
            gene.id = id;
            gene.bias = bias;
            if (!tryParseActivation(act, gene.act))
                return Status::error("unknown activation '", act,
                                     "' in node ", id);
            if (!tryParseAggregation(agg, gene.agg))
                return Status::error("unknown aggregation '", agg,
                                     "' in node ", id);
            if (!genome.nodes.emplace(id, gene).second)
                return Status::error("[E3V006] duplicate node ", id,
                                     " in genome");
        } else if (tag == "conn") {
            int from, to, enabled;
            double weight;
            std::string weightTok;
            if (!(ls >> from >> to >> weightTok >> enabled) ||
                !parseDouble(weightTok, weight))
                return Status::error("malformed conn line: '", line,
                                     "'");
            ConnGene gene;
            gene.key = {from, to};
            gene.weight = weight;
            gene.enabled = enabled != 0;
            if (!genome.conns.emplace(gene.key, gene).second)
                return Status::error("[E3V006] duplicate connection ",
                                     from, "->", to);
        } else {
            return Status::error("unknown record '", tag,
                                 "' in genome stream");
        }
    }
    return Status::error("genome stream ended before 'end'");
}

Result<Genome>
genomeFromString(const std::string &text, GenomeLoadMode mode)
{
    std::istringstream iss(text);
    return loadGenome(iss, mode);
}

Result<Checkpoint>
loadCheckpoint(std::istream &in)
{
    Checkpoint ck;
    std::istringstream rest;

    if (Status st = record(in, "e3-checkpoint", rest); !st.ok())
        return st;
    int version = 0;
    std::string hash;
    if (!(rest >> version >> hash) ||
        !parseUint64(hash, ck.configHash))
        return Status::error("malformed checkpoint header");
    if (version != kFormatVersion)
        return Status::error("checkpoint format version ", version,
                             ", this build reads version ",
                             kFormatVersion);

    if (Status st = record(in, "generation", rest); !st.ok())
        return st;
    if (!(rest >> ck.generation))
        return Status::error("bad generation");
    if (Status st = record(in, "envsteps", rest); !st.ok())
        return st;
    if (!(rest >> ck.envSteps))
        return Status::error("bad envsteps");
    if (Status st = record(in, "best-fitness", rest); !st.ok())
        return st;
    if (Status st = readDouble(rest, "best-fitness", ck.bestFitness);
        !st.ok())
        return st;

    PopulationState &pop = ck.population;
    if (Status st = record(in, "pop-generation", rest); !st.ok())
        return st;
    if (!(rest >> pop.generation))
        return Status::error("bad pop-generation");
    if (ck.generation < 0 || pop.generation < 0)
        return Status::error("negative generation");
    if (Status st = loadRngState(in, "population", pop.rng); !st.ok())
        return st;
    if (Status st = loadRngState(in, "reproduction",
                                 pop.reproductionRng);
        !st.ok())
        return st;
    if (Status st = record(in, "genomes-created", rest); !st.ok())
        return st;
    if (!(rest >> pop.genomesCreated))
        return Status::error("bad genomes-created");
    if (Status st = record(in, "innovation", rest); !st.ok())
        return st;
    if (!(rest >> pop.lastNodeId))
        return Status::error("bad innovation");
    if (Status st = record(in, "next-species-id", rest); !st.ok())
        return st;
    if (!(rest >> pop.nextSpeciesId))
        return Status::error("bad next-species-id");

    size_t phaseCount = 0;
    if (Status st = record(in, "phases", rest); !st.ok())
        return st;
    if (!(rest >> phaseCount))
        return Status::error("bad phase count");
    for (size_t i = 0; i < phaseCount; ++i) {
        if (Status st = record(in, "phase", rest); !st.ok())
            return st;
        std::string name;
        double seconds = 0.0;
        if (!(rest >> name))
            return Status::error("bad phase name");
        if (Status st = readDouble(rest, "phase seconds", seconds);
            !st.ok())
            return st;
        ck.phaseSeconds.emplace_back(name, seconds);
    }

    size_t rowCount = 0;
    if (Status st = record(in, "trace", rest); !st.ok())
        return st;
    if (!(rest >> rowCount))
        return Status::error("bad trace count");
    for (size_t i = 0; i < rowCount; ++i) {
        if (Status st = record(in, "row", rest); !st.ok())
            return st;
        TraceRow row;
        if (!(rest >> row.generation))
            return Status::error("bad trace row");
        for (double *field :
             {&row.bestFitness, &row.meanFitness, &row.normalizedBest,
              &row.cumulativeSeconds, &row.meanNodes,
              &row.meanConnections, &row.meanDensity}) {
            if (Status st = readDouble(rest, "trace row", *field);
                !st.ok())
                return st;
        }
        if (!(rest >> row.numSpecies))
            return Status::error("bad trace row");
        ck.trace.push_back(row);
    }

    int hasChampion = 0;
    if (Status st = record(in, "champion", rest); !st.ok())
        return st;
    if (!(rest >> hasChampion))
        return Status::error("bad champion flag");
    if (hasChampion) {
        Result<Genome> champion = loadStoredGenome(in, "champion");
        if (!champion.ok())
            return Status::error("bad champion genome: ",
                                 champion.message());
        ck.champion = std::move(champion).value();
    }

    size_t genomeCount = 0;
    if (Status st = record(in, "population", rest); !st.ok())
        return st;
    if (!(rest >> genomeCount))
        return Status::error("bad population count");
    if (genomeCount == 0)
        return Status::error("empty population");
    for (size_t i = 0; i < genomeCount; ++i) {
        Result<Genome> genome = loadStoredGenome(in, "population");
        if (!genome.ok())
            return Status::error("bad population genome: ",
                                 genome.message());
        const int key = genome.value().key();
        if (!pop.genomes.emplace(key, std::move(genome).value()).second)
            return Status::error("duplicate genome key ", key);
    }

    std::set<int> listed;
    size_t speciesCount = 0;
    if (Status st = record(in, "species", rest); !st.ok())
        return st;
    if (!(rest >> speciesCount))
        return Status::error("bad species count");
    for (size_t i = 0; i < speciesCount; ++i) {
        if (Status st = record(in, "species-begin", rest); !st.ok())
            return st;
        int sid = 0, created = 0, lastImproved = 0;
        double adjusted = 0.0;
        if (!(rest >> sid >> created >> lastImproved))
            return Status::error("bad species header");
        if (Status st = readDouble(rest, "species adjusted fitness",
                                   adjusted);
            !st.ok())
            return st;

        if (Status st = record(in, "members", rest); !st.ok())
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
                return Status::error("member names no stored genome");
            if (!listed.insert(member).second)
                return Status::error("genome listed twice");
            members.push_back(member);
        }

        if (Status st = record(in, "history", rest); !st.ok())
            return st;
        size_t historyCount = 0;
        if (!(rest >> historyCount))
            return Status::error("bad species history count");
        std::vector<double> history;
        for (size_t k = 0; k < historyCount; ++k) {
            std::string token;
            double h = 0.0;
            if (!(rest >> token) || !parseDouble(token, h))
                return Status::error("bad species history value");
            history.push_back(h);
        }

        Result<Genome> representative =
            loadStoredGenome(in, "species representative");
        if (!representative.ok())
            return Status::error("bad species representative: ",
                                 representative.message());
        if (Status st = record(in, "species-end", rest); !st.ok())
            return st;

        Species sp(sid, created, std::move(representative).value());
        sp.lastImproved = lastImproved;
        sp.adjustedFitness = adjusted;
        sp.members = std::move(members);
        sp.fitnessHistory = std::move(history);
        if (!pop.species.emplace(sid, std::move(sp)).second)
            return Status::error("duplicate species id ", sid);
    }

    if (Status st = record(in, "end-checkpoint", rest); !st.ok())
        return st;
    return ck;
}

Result<Checkpoint>
checkpointFromString(const std::string &text)
{
    std::istringstream iss(text);
    return loadCheckpoint(iss);
}

} // namespace e3::reference
