#include "neat/serialize.hh"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/fs.hh"
#include "common/text_scan.hh"

namespace e3 {

namespace {

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

} // namespace

void
saveGenome(const Genome &genome, std::ostream &out)
{
    out << std::setprecision(17);
    out << "genome " << genome.key() << ' ';
    if (genome.evaluated())
        out << genome.fitness << '\n';
    else
        out << "nan\n";
    for (const auto &[id, node] : genome.nodes) {
        out << "node " << id << ' ' << node.bias << ' '
            << activationName(node.act) << ' '
            << aggregationName(node.agg) << '\n';
    }
    for (const auto &[key, conn] : genome.conns) {
        out << "conn " << key.first << ' ' << key.second << ' '
            << conn.weight << ' ' << (conn.enabled ? 1 : 0) << '\n';
    }
    out << "end\n";
}

std::string
genomeToString(const Genome &genome)
{
    std::ostringstream oss;
    saveGenome(genome, oss);
    return oss.str();
}

Result<Genome>
loadGenome(TextCursor &cursor, GenomeLoadMode mode)
{
    std::string_view tag;
    LineScanner ls;
    // Find the header, skipping blanks and comments.
    if (!cursor.nextRecord(tag, ls))
        return Status::error("no genome found in stream");
    if (tag != "genome")
        return Status::error("expected 'genome' header, got '", tag, "'");
    int key = 0;
    std::string_view fit;
    if (!(ls >> key >> fit))
        return Status::error("malformed genome header: '", ls.line(),
                             "'");
    double fitness = std::numeric_limits<double>::quiet_NaN();
    if (fit != "nan" && !parseDouble(fit, fitness))
        return Status::error("bad fitness '", fit, "' in genome header");

    Genome genome(key);
    genome.fitness = fitness;

    while (cursor.nextRecord(tag, ls)) {
        if (tag == "end") {
            if (mode == GenomeLoadMode::Validated) {
                if (Status audit = auditLoadedGenome(genome);
                    !audit.ok())
                    return audit;
            }
            return genome;
        }
        if (tag == "node") {
            NodeGene gene;
            std::string_view act, agg;
            // The bias is read with parseDouble semantics:
            // saveGenome writes non-finite values as "inf"/"nan" and
            // they must round-trip so the verifier can report them as
            // E3V007 instead of the load failing outright.
            if (!(ls >> gene.id >> gene.bias >> act >> agg))
                return Status::error("malformed node line: '", ls.line(),
                                     "'");
            if (!tryParseActivation(act, gene.act))
                return Status::error("unknown activation '", act,
                                     "' in node ", gene.id);
            if (!tryParseAggregation(agg, gene.agg))
                return Status::error("unknown aggregation '", agg,
                                     "' in node ", gene.id);
            if (!genome.nodes.emplace(gene.id, gene).second)
                return Status::error("[E3V006] duplicate node ", gene.id,
                                     " in genome");
        } else if (tag == "conn") {
            ConnGene gene;
            int enabled = 0;
            if (!(ls >> gene.key.first >> gene.key.second >> gene.weight >>
                  enabled))
                return Status::error("malformed conn line: '", ls.line(),
                                     "'");
            gene.enabled = enabled != 0;
            if (!genome.conns.emplace(gene.key, gene).second)
                return Status::error("[E3V006] duplicate connection ",
                                     gene.key.first, "->",
                                     gene.key.second);
        } else {
            return Status::error("unknown record '", tag,
                                 "' in genome stream");
        }
    }
    return Status::error("genome stream ended before 'end'");
}

Result<Genome>
genomeFromString(std::string_view text, GenomeLoadMode mode)
{
    TextCursor cursor(text);
    return loadGenome(cursor, mode);
}

Status
saveGenomeFile(const Genome &genome, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return Status::error("cannot open '", path, "' for writing");
    saveGenome(genome, out);
    if (!out)
        return Status::error("write to '", path, "' failed");
    return Status();
}

Result<Genome>
loadGenomeFile(const std::string &path, GenomeLoadMode mode)
{
    Result<std::string> text = readFile(path);
    if (!text.ok())
        return Status::error("cannot open genome file '", path, "'");
    return genomeFromString(text.value(), mode);
}

} // namespace e3
