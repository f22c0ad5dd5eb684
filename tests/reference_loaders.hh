/**
 * @file
 * The genome and checkpoint loaders as they were written over
 * iostreams (std::getline per line, an std::istringstream and
 * operator>> per field), kept as a test-only oracle for the
 * std::string_view scanner loaders in neat/serialize and
 * persist/checkpoint, the way verify::ReferenceNetwork serves the SoA
 * engine. The differential fuzz test feeds both the same mutated
 * texts: they must agree on accept/reject and on every loaded field.
 *
 * Two edits to the original code, both matched by the scanner loaders:
 * the restore-safety checks (negative generation, empty population,
 * species members that name no stored genome or are listed twice), and
 * member/history lists grown one read at a time instead of
 * pre-sized from the untrusted count.
 */

#ifndef E3_TESTS_REFERENCE_LOADERS_HH
#define E3_TESTS_REFERENCE_LOADERS_HH

#include <iosfwd>
#include <string>

#include "neat/serialize.hh"
#include "persist/checkpoint.hh"

namespace e3::reference {

/** Read one genome from a stream; error on malformed input. */
Result<Genome> loadGenome(std::istream &in, GenomeLoadMode mode);

/** genomeFromString over an std::istringstream. */
Result<Genome> genomeFromString(const std::string &text,
                                GenomeLoadMode mode);

/** Parse a checkpoint from a stream. */
Result<persist::Checkpoint> loadCheckpoint(std::istream &in);

/** checkpointFromString over an std::istringstream. */
Result<persist::Checkpoint> checkpointFromString(const std::string &text);

} // namespace e3::reference

#endif // E3_TESTS_REFERENCE_LOADERS_HH
