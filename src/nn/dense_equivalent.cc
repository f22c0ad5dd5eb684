#include "nn/dense_equivalent.hh"

#include <cstdint>

#include "common/logging.hh"
#include "nn/layering.hh"

namespace e3 {

uint64_t
DenseEquivalent::denseConnections() const
{
    uint64_t total = 0;
    for (size_t i = 0; i + 1 < layerSizes.size(); ++i) {
        total += static_cast<uint64_t>(layerSizes[i]) *
                 static_cast<uint64_t>(layerSizes[i + 1]);
    }
    return total;
}

DenseEquivalent
denseEquivalent(const NetworkDef &def)
{
    const DefAnalysis &a = analyzeDef(def);
    a.assertAcyclic();

    // Layer index per node: inputs at 0, dependency layers at 1..k.
    DenseEquivalent eq;
    std::vector<size_t> layerOf(a.ids.size(), 0);
    eq.layerSizes.assign(a.layerCount() + 1, 0);
    eq.layerSizes[0] = def.inputIds.size();
    for (size_t l = 0; l < a.layerCount(); ++l) {
        for (uint32_t p = a.layerBegin(l); p != a.layerEnd[l]; ++p)
            layerOf[a.order[p]] = l + 1;
        eq.layerSizes[l + 1] = a.layerEnd[l] - a.layerBegin(l);
    }
    eq.realNodes = a.order.size();

    // A value produced in layer L(u) and consumed in layer L(v) > L(u)+1
    // must be relayed by a dummy node in every intermediate layer. Each
    // producer needs at most one relay per layer, up to its furthest
    // consumer.
    constexpr size_t kNoConsumer = SIZE_MAX;
    std::vector<size_t> furthestConsumer(a.ids.size(), kNoConsumer);
    for (size_t c = 0; c < def.conns.size(); ++c) {
        if (!a.activeConn(c))
            continue;
        size_t &far = furthestConsumer[a.connFrom[c]];
        const size_t lv = layerOf[a.connTo[c]];
        if (far == kNoConsumer || lv > far)
            far = lv;
    }

    for (size_t u = 0; u < a.ids.size(); ++u) {
        const size_t far = furthestConsumer[u];
        if (far == kNoConsumer)
            continue;
        e3_assert(far > layerOf[u], "connection does not point forward");
        for (size_t l = layerOf[u] + 1; l < far; ++l) {
            ++eq.layerSizes[l];
            ++eq.dummyNodes;
        }
    }
    return eq;
}

} // namespace e3
