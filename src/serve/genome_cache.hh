/**
 * @file
 * LRU cache of compiled champion networks, keyed by the checkpoint
 * manifest fingerprint.
 *
 * The server retains every loaded champion's *definition* (a NetworkDef
 * is a few KB), but a compiled, executable Network carries layer
 * structure and a value array, and an edge box serving many champions
 * cannot keep them all resident. The cache compiles on first use and
 * evicts least-recently-used entries beyond its capacity; hit/miss/
 * eviction counters feed the serve metrics.
 *
 * Entries are handed out as shared_ptr, so an eviction never pulls a
 * network out from under a batch that is mid-inference — the batch
 * keeps its reference and the entry is destroyed when the last user
 * drops it. Each champion compiles to a replicated BatchNetwork
 * (compileReplicated) with one lane per batch slot, so the
 * same-champion requests of one TCP read are answered by ONE
 * activateBatch() call. Each entry carries its own eval mutex:
 * activation mutates the engine's value arena, so concurrent batches
 * for the same champion serialize on it (and, activation being a pure
 * function of (definition, observation), responses stay bit-identical
 * at any batch size or connection count).
 */

#ifndef E3_SERVE_GENOME_CACHE_HH
#define E3_SERVE_GENOME_CACHE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hh"
#include "nn/batch_eval.hh"

namespace e3::serve {

/** A compiled champion ready to answer observation batches. */
struct CompiledChampion
{
    uint64_t fingerprint = 0;
    /**
     * Activation mutates the engine's value arena, so every
     * reset()/activateBatch() call happens under evalMutex; the
     * metadata accessors (lanes, arity) are immutable after compile
     * and stay lock-free.
     */
    std::unique_ptr<BatchNetwork> batch;
    Mutex evalMutex;
    /**
     * Staging buffers for one batch, sized once in acquire() to
     * lanes x numInputs / lanes x numOutputs, so activation itself
     * allocates nothing per batch. evaluateBatch still allocates per
     * request: each response's action vector, and the latency
     * recorder's sample vector as it grows.
     */
    std::vector<double> inScratch E3_GUARDED_BY(evalMutex);
    std::vector<double> outScratch E3_GUARDED_BY(evalMutex);
};

/** Thread-safe LRU cache of compiled networks. */
class GenomeCache
{
  public:
    /**
     * @param capacity resident compiled champions (at least 1)
     * @param batchLanes value lanes per champion — size this to the
     *        server's maximum batch so one batch is one
     *        activateBatch() call (at least 1)
     */
    explicit GenomeCache(size_t capacity, size_t batchLanes = 1);

    /**
     * Fetch the compiled network for @p fingerprint, compiling
     * @p def on a miss (an error Status if it does not compile). The
     * returned entry stays valid even if a later insertion evicts it
     * from the cache.
     */
    Result<std::shared_ptr<CompiledChampion>>
    acquire(uint64_t fingerprint, const NetworkDef &def,
            const NetworkCompileOptions &options);

    size_t batchLanes() const { return batchLanes_; }

    size_t size() const;
    size_t capacity() const { return capacity_; }
    uint64_t hits() const;
    uint64_t misses() const;
    uint64_t evictions() const;

    /** True if @p fingerprint is currently resident (no LRU touch). */
    [[nodiscard]] bool contains(uint64_t fingerprint) const;

    /** Drop everything (entries in use stay alive via shared_ptr). */
    void clear();

  private:
    mutable Mutex mutex_;
    size_t capacity_;
    size_t batchLanes_;
    /** Most-recently-used at the front. */
    std::list<uint64_t> order_ E3_GUARDED_BY(mutex_);
    struct Slot
    {
        std::shared_ptr<CompiledChampion> entry;
        std::list<uint64_t>::iterator pos;
    };
    std::unordered_map<uint64_t, Slot> slots_ E3_GUARDED_BY(mutex_);
    uint64_t hits_ E3_GUARDED_BY(mutex_) = 0;
    uint64_t misses_ E3_GUARDED_BY(mutex_) = 0;
    uint64_t evictions_ E3_GUARDED_BY(mutex_) = 0;
};

} // namespace e3::serve

#endif // E3_SERVE_GENOME_CACHE_HH
