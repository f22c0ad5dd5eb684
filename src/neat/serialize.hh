/**
 * @file
 * Genome serialization: save an evolved controller to a portable text
 * format and load it back — the deployment step of the paper's
 * model-replacement story (evolve on device, persist the champion,
 * reload after power cycles).
 *
 * Format (line oriented, '#' comments allowed):
 *
 *   genome <key> <fitness|nan>
 *   node <id> <bias> <activation> <aggregation>
 *   conn <from> <to> <weight> <0|1>
 *   end
 *
 * All load paths report malformed input as an error value
 * (Result<Genome>) instead of terminating the process, so callers —
 * the checkpoint loader in particular — can degrade gracefully;
 * application code with nothing sensible to fall back to handles the
 * error at its own boundary.
 */

#ifndef E3_NEAT_SERIALIZE_HH
#define E3_NEAT_SERIALIZE_HH

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/result.hh"
#include "common/text_scan.hh"
#include "neat/genome.hh"

namespace e3 {

/**
 * How much semantic checking a load path performs. Validated (the
 * default) rejects genomes that parse but are structurally broken —
 * dangling connection endpoints, input-targeting connections,
 * non-finite parameters — with the matching verifier rule ID (E3V0xx)
 * in the error message, so a corrupt artifact cannot silently reach
 * the compiler's asserts. Raw accepts anything that parses; the
 * `e3_cli verify` front end uses it to load deliberately broken
 * genomes and report every defect as a diagnostic instead of stopping
 * at the first.
 */
enum class GenomeLoadMode
{
    Validated,
    Raw,
};

/** Write one genome in the text format. */
void saveGenome(const Genome &genome, std::ostream &out);

/** Serialize to a string. */
std::string genomeToString(const Genome &genome);

/**
 * Read one genome from the cursor's next lines, leaving the cursor
 * after its "end" line (the checkpoint loader reads several genomes
 * from one text this way); error on malformed input.
 */
Result<Genome> loadGenome(TextCursor &cursor,
                          GenomeLoadMode mode = GenomeLoadMode::Validated);

/** Parse from a string produced by genomeToString(). */
Result<Genome>
genomeFromString(std::string_view text,
                 GenomeLoadMode mode = GenomeLoadMode::Validated);

/** Save to a file (ordinary write; not atomic). */
Status saveGenomeFile(const Genome &genome, const std::string &path);

/** Load from a file; error if it cannot be opened or parsed. */
Result<Genome>
loadGenomeFile(const std::string &path,
               GenomeLoadMode mode = GenomeLoadMode::Validated);

} // namespace e3

#endif // E3_NEAT_SERIALIZE_HH
