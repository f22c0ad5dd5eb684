#include "serve/genome_cache.hh"

#include "common/logging.hh"

namespace e3::serve {

GenomeCache::GenomeCache(size_t capacity, size_t batchLanes)
    : capacity_(capacity), batchLanes_(batchLanes)
{
    e3_assert(capacity_ > 0, "genome cache needs capacity >= 1");
    e3_assert(batchLanes_ > 0, "genome cache needs batchLanes >= 1");
}

Result<std::shared_ptr<CompiledChampion>>
GenomeCache::acquire(uint64_t fingerprint, const NetworkDef &def,
                     const NetworkCompileOptions &options)
{
    {
        MutexLock lock(mutex_);
        auto it = slots_.find(fingerprint);
        if (it != slots_.end()) {
            ++hits_;
            order_.erase(it->second.pos);
            order_.push_front(fingerprint);
            it->second.pos = order_.begin();
            return it->second.entry;
        }
        ++misses_;
    }

    // Compile outside the cache lock: a large champion's compile must
    // not stall hits for other champions. A concurrent miss on the
    // same fingerprint may compile twice; the second insert wins the
    // slot and the first compilation dies with its batch's reference.
    Result<std::unique_ptr<BatchNetwork>> compiled =
        compileReplicated(def, batchLanes_, options);
    if (!compiled.ok())
        return compiled.status();
    auto entry = std::make_shared<CompiledChampion>();
    entry->fingerprint = fingerprint;
    entry->batch = std::move(compiled).value();
    {
        // The entry is not shared yet; the lock just satisfies the
        // guard annotation on the scratch buffers.
        MutexLock init(entry->evalMutex);
        entry->inScratch.resize(entry->batch->lanes() *
                                entry->batch->numInputs());
        entry->outScratch.resize(entry->batch->lanes() *
                                 entry->batch->numOutputs());
    }

    MutexLock lock(mutex_);
    auto it = slots_.find(fingerprint);
    if (it != slots_.end()) {
        order_.erase(it->second.pos);
        order_.push_front(fingerprint);
        it->second.pos = order_.begin();
        return it->second.entry;
    }
    order_.push_front(fingerprint);
    slots_[fingerprint] = Slot{entry, order_.begin()};
    while (slots_.size() > capacity_) {
        const uint64_t victim = order_.back();
        order_.pop_back();
        slots_.erase(victim);
        ++evictions_;
    }
    return entry;
}

size_t
GenomeCache::size() const
{
    MutexLock lock(mutex_);
    return slots_.size();
}

uint64_t
GenomeCache::hits() const
{
    MutexLock lock(mutex_);
    return hits_;
}

uint64_t
GenomeCache::misses() const
{
    MutexLock lock(mutex_);
    return misses_;
}

uint64_t
GenomeCache::evictions() const
{
    MutexLock lock(mutex_);
    return evictions_;
}

bool
GenomeCache::contains(uint64_t fingerprint) const
{
    MutexLock lock(mutex_);
    return slots_.count(fingerprint) > 0;
}

void
GenomeCache::clear()
{
    MutexLock lock(mutex_);
    slots_.clear();
    order_.clear();
}

} // namespace e3::serve
