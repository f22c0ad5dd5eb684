#include "neat/distance_cache.hh"

#include <gtest/gtest.h>

#include "neat/population.hh"

namespace e3 {
namespace {

NeatConfig
smallConfig()
{
    auto cfg = NeatConfig::forTask(2, 1, 1e18);
    cfg.populationSize = 20;
    return cfg;
}

TEST(DistanceCache, HitsOnRepeatedPairs)
{
    const NeatConfig cfg = smallConfig();
    Rng rng(5);
    Genome a(1), b(2);
    a.configureNew(cfg, rng);
    b.configureNew(cfg, rng);

    DistanceCache cache(cfg);
    const double d1 = cache.distance(a, b);
    const double d2 = cache.distance(b, a); // symmetric key
    EXPECT_DOUBLE_EQ(d1, d2);
    EXPECT_DOUBLE_EQ(d1, a.distance(b, cfg));
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(DistanceCache, DistinctPairsMiss)
{
    const NeatConfig cfg = smallConfig();
    Rng rng(6);
    Genome a(1), b(2), c(3);
    a.configureNew(cfg, rng);
    b.configureNew(cfg, rng);
    c.configureNew(cfg, rng);

    DistanceCache cache(cfg);
    cache.distance(a, b);
    cache.distance(a, c);
    cache.distance(b, c);
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(DistanceCache, SpeciationResultsUnchanged)
{
    // The cache is an optimization: speciation must partition exactly
    // as before (checked indirectly via determinism across runs, which
    // would break if cached distances differed from direct ones).
    const NeatConfig cfg = smallConfig();
    Population a(cfg, 7), b(cfg, 7);
    for (int gen = 0; gen < 3; ++gen) {
        auto fit = [](const Genome &g) {
            return static_cast<double>(g.size().second);
        };
        a.evaluateAll(fit);
        b.evaluateAll(fit);
        EXPECT_EQ(a.speciesSet().count(), b.speciesSet().count());
        a.advance();
        b.advance();
    }
}

} // namespace
} // namespace e3
