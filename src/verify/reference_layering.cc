#include "verify/reference_layering.hh"

#include <algorithm>
#include <map>

namespace e3::verify {

std::set<int>
referenceRequiredNodes(const NetworkDef &def)
{
    // Backward reachability from the outputs: walk connections in
    // reverse until no new node is discovered. Inputs are never
    // "required" (they are sources, not computed nodes).
    const std::set<int> inputs(def.inputIds.begin(), def.inputIds.end());
    std::set<int> required(def.outputIds.begin(), def.outputIds.end());
    bool grew = true;
    while (grew) {
        grew = false;
        for (const auto &c : def.conns) {
            if (required.count(c.to) && !required.count(c.from) &&
                !inputs.count(c.from)) {
                required.insert(c.from);
                grew = true;
            }
        }
    }
    return required;
}

std::vector<std::vector<int>>
referenceLayers(const NetworkDef &def)
{
    const std::set<int> required = referenceRequiredNodes(def);
    const std::set<int> inputs(def.inputIds.begin(), def.inputIds.end());

    // Ingress lists restricted to required nodes; connections from
    // unrequired nodes can never fire and are ignored.
    std::map<int, std::vector<int>> ingress;
    for (int id : required)
        ingress[id];
    for (const auto &c : def.conns) {
        if (!required.count(c.to))
            continue;
        if (inputs.count(c.from) || required.count(c.from))
            ingress[c.to].push_back(c.from);
    }

    std::set<int> placed(inputs); // inputs are available from the start
    std::vector<std::vector<int>> layers;
    while (true) {
        std::vector<int> layer;
        for (const auto &[id, sources] : ingress) {
            if (placed.count(id))
                continue;
            // Vacuously ready when ingress-free.
            if (std::all_of(sources.begin(), sources.end(),
                            [&](int src) { return placed.count(src) > 0; }))
                layer.push_back(id);
        }
        if (layer.empty())
            break;
        placed.insert(layer.begin(), layer.end());
        layers.push_back(std::move(layer));
    }
    return layers;
}

bool
referenceIsAcyclic(const NetworkDef &def)
{
    const std::set<int> inputs(def.inputIds.begin(), def.inputIds.end());
    size_t computed = 0;
    for (int id : referenceRequiredNodes(def))
        computed += inputs.count(id) ? 0 : 1;
    size_t placed = 0;
    for (const auto &layer : referenceLayers(def))
        placed += layer.size();
    return placed == computed;
}

} // namespace e3::verify
