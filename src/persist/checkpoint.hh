/**
 * @file
 * Crash-safe, versioned checkpoints of the whole evolve loop.
 *
 * The paper's deployment story is power-cycle-tolerant edge learning:
 * evolve on device, persist, reload, continue. neat/serialize covers a
 * single champion genome; this module snapshots *everything* the loop
 * needs to continue bit-identically — population genomes, species
 * membership and stagnation history, the innovation and genome-key
 * allocators, both RNG streams, the generation counter, the fitness
 * trace and modeled phase seconds accumulated so far, and the run's
 * champion.
 *
 * Layout on disk: a checkpoint directory holds one file per retained
 * snapshot (ckpt-<generation>.e3) plus a MANIFEST listing them in
 * generation order. Both are written via atomicWriteFile(), so a crash
 * mid-write never corrupts an existing snapshot. The manifest records
 * the format version and a fingerprint of the run configuration; a
 * mismatched or unreadable checkpoint is reported as an error value —
 * never fatal() — so the platform can warn and fall back to a fresh
 * start.
 *
 * Determinism contract: restoring the latest checkpoint and continuing
 * reproduces the uninterrupted run's per-generation fitness trace
 * bit-identically, at any worker-thread count (the same guarantee the
 * parallel runtime gives for threads). Doubles are stored as C99 hex
 * floats, so every value round-trips exactly.
 */

#ifndef E3_PERSIST_CHECKPOINT_HH
#define E3_PERSIST_CHECKPOINT_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hh"
#include "neat/population.hh"

namespace e3 {
namespace persist {

/** Bump when the on-disk layout changes incompatibly. */
inline constexpr int kFormatVersion = 1;

/** One per-generation point of the run's fitness trace. */
struct TraceRow
{
    int generation = 0;
    double bestFitness = 0.0;
    double meanFitness = 0.0;
    double normalizedBest = 0.0; ///< against the env's required fitness
    double cumulativeSeconds = 0.0; ///< modeled platform time so far
    double meanNodes = 0.0;
    double meanConnections = 0.0;
    double meanDensity = 0.0;
    size_t numSpecies = 0;
};

/** Complete snapshot of one evolve loop between generations. */
struct Checkpoint
{
    /** Fingerprint of the run configuration (resume guard). */
    uint64_t configHash = 0;

    /** Next generation to run after restore. */
    int generation = 0;

    /** Functional env steps executed so far. */
    uint64_t envSteps = 0;

    /** Best fitness achieved so far across the whole run. */
    double bestFitness = 0.0;

    /** The genome that achieved bestFitness, if any generation ran. */
    std::optional<Genome> champion;

    /** Full evolve-loop state (genomes, species, RNG, allocators). */
    PopulationState population;

    /** Modeled seconds accumulated per platform phase. */
    std::vector<std::pair<std::string, double>> phaseSeconds;

    /** Per-generation fitness trace accumulated so far. */
    std::vector<TraceRow> trace;
};

/** FNV-1a over a canonical config string (the manifest fingerprint). */
uint64_t fingerprint(const std::string &canonical);

/** File name a snapshot for @p generation is stored under. */
std::string checkpointFileName(int generation);

/** Serialize to the text format. */
void saveCheckpoint(const Checkpoint &checkpoint, std::ostream &out);

/** Serialize to a string. */
std::string checkpointToString(const Checkpoint &checkpoint);

/**
 * Parse a string produced by checkpointToString(). Malformed or
 * truncated input is an error, and so is a snapshot that cannot be
 * restored: a negative generation, an empty population, or a species
 * member that names no stored genome or is listed twice.
 */
Result<Checkpoint> checkpointFromString(std::string_view text);

/**
 * Parse only a snapshot's head: the records checkpointFromString reads
 * before the population section (header, RNG and allocator state,
 * phases, trace) and the champion, which gets the same structural
 * verification. The population and species sections are not read, so
 * the result's `population.genomes` and `population.species` are
 * empty: it describes the snapshot but cannot be restored. Any text
 * checkpointFromString accepts, this accepts with the same head.
 */
Result<Checkpoint> checkpointHeadFromString(std::string_view text);

/** Instrumentation of one checkpoint write (metrics feed). */
struct WriteStats
{
    double seconds = 0.0;   ///< wall time incl. manifest update
    uint64_t bytes = 0;     ///< snapshot size on disk
    std::string path;       ///< file the snapshot landed in
};

/**
 * Atomically write a snapshot into @p dir and update MANIFEST.
 * Entries for generations >= the new one are dropped (they belong to
 * an abandoned timeline after a resume from an older snapshot), then
 * the oldest entries beyond @p keep are deleted with their files.
 */
Status writeCheckpoint(const std::string &dir,
                       const Checkpoint &checkpoint, int keep,
                       WriteStats *stats = nullptr);

/**
 * Load the newest usable checkpoint listed in @p dir's MANIFEST.
 * A missing manifest, a format-version mismatch, or a fingerprint
 * different from @p expectedConfigHash is an error (the caller's cue
 * to warn and start fresh). Unreadable or corrupt snapshot files are
 * skipped with a warning, falling back to the next-newest entry.
 */
Result<Checkpoint> loadLatestCheckpoint(const std::string &dir,
                                        uint64_t expectedConfigHash);

/**
 * Load the champion of the newest usable snapshot listed in @p dir's
 * MANIFEST, reading and parsing each snapshot only up to its population
 * record (checkpointHeadFromString). The walk and its skip rules are
 * loadLatestCheckpoint's, with the manifest's own fingerprint as the
 * expected one. The result's `configHash` is that fingerprint, the
 * stable identity of the run that produced the champion — the serving
 * layer keys its compiled-network cache on it. A snapshot whose head
 * is intact is used even if its population section is damaged.
 */
Result<Checkpoint> loadLatestChampion(const std::string &dir);

/**
 * Enumerate the snapshot files @p dir's MANIFEST lists, oldest first,
 * as (generation, full path) pairs. Unlike loadLatestCheckpoint this
 * performs no fingerprint or version check — it is the audit-tool
 * entry point (`e3_cli verify --checkpoint-dir` walks every listed
 * snapshot regardless of which run configuration wrote it).
 */
Result<std::vector<std::pair<int, std::string>>>
listCheckpointFiles(const std::string &dir);

} // namespace persist
} // namespace e3

#endif // E3_PERSIST_CHECKPOINT_HH
