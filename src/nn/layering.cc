#include "nn/layering.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace e3 {

size_t
DefAnalysis::indexOf(int id) const
{
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    return it != ids.end() && *it == id
               ? static_cast<size_t>(it - ids.begin())
               : ids.size();
}

void
DefAnalysis::assertAcyclic() const
{
    for (uint32_t i = 0; !acyclic && i < ids.size(); ++i) {
        e3_assert(!has(i, kRequired) || has(i, kInput) || slot[i] != kNone,
                  "unplaceable node ", ids[i], " implies a cycle");
    }
}

void
DefAnalysis::assertBuildable(const NetworkDef &def) const
{
    e3_assert(!def.inputIds.empty(), "network needs at least one input");
    e3_assert(!def.outputIds.empty(),
              "network needs at least one output");
    for (size_t p = 0; p < def.nodes.size(); ++p) {
        e3_assert(nodeAt[indexOf(def.nodes[p].id)] == p,
                  "duplicate node id ", def.nodes[p].id);
    }
    for (int id : def.outputIds) {
        e3_assert(has(static_cast<uint32_t>(indexOf(id)), kNode),
                  "output node ", id, " missing");
    }
}

namespace {

/** Group connection positions by @p key index, def order in a group. */
void
bucketConns(const std::vector<uint32_t> &key, size_t indices,
            std::vector<uint32_t> &begin, std::vector<uint32_t> &items)
{
    // Count, prefix-sum to each group's end, then fill from the back:
    // the cursors walk down to each group's start, and def order holds.
    begin.assign(indices + 1, 0);
    for (uint32_t k : key)
        ++begin[k];
    for (size_t i = 1; i < indices; ++i)
        begin[i] += begin[i - 1];
    begin[indices] = static_cast<uint32_t>(key.size());
    items.resize(key.size());
    for (size_t c = key.size(); c-- > 0;)
        items[--begin[key[c]]] = static_cast<uint32_t>(c);
}

} // namespace

void
analyzeDef(const NetworkDef &def, DefAnalysis &a)
{
    using A = DefAnalysis;
    a.ids.assign(def.inputIds.begin(), def.inputIds.end());
    a.ids.insert(a.ids.end(), def.outputIds.begin(), def.outputIds.end());
    for (const auto &node : def.nodes)
        a.ids.push_back(node.id);
    for (const auto &conn : def.conns) {
        a.ids.push_back(conn.from);
        a.ids.push_back(conn.to);
    }
    std::sort(a.ids.begin(), a.ids.end());
    a.ids.erase(std::unique(a.ids.begin(), a.ids.end()), a.ids.end());
    const size_t n = a.ids.size();
    const auto index = [&](int id) {
        return static_cast<uint32_t>(a.indexOf(id));
    };

    // Defects are recorded in checkDefInvariants' order: inputs, nodes,
    // outputs, then connections; the first one wins.
    a.defect = Status();
    const auto defect = [&](const auto &...parts) {
        if (a.defect.ok())
            a.defect = Status::error(parts...);
    };
    a.flags.assign(n, 0);
    a.nodeAt.assign(n, A::kNone);
    a.slot.assign(n, A::kNone);
    for (uint32_t p = 0; p < def.inputIds.size(); ++p) {
        const uint32_t i = index(def.inputIds[p]);
        if (a.has(i, A::kInput))
            defect("duplicate input id ", def.inputIds[p]);
        a.flags[i] |= A::kInput;
        a.slot[i] = p;
    }
    for (uint32_t p = 0; p < def.nodes.size(); ++p) {
        const NetworkDef::Node &node = def.nodes[p];
        const uint32_t i = index(node.id);
        if (a.has(i, A::kNode))
            defect("duplicate node id ", node.id);
        else if (a.has(i, A::kInput))
            defect("input id ", node.id, " declared as a computed node");
        else if (!std::isfinite(node.bias))
            defect("non-finite bias on node ", node.id);
        a.flags[i] |= A::kNode;
        a.nodeAt[i] = std::min(a.nodeAt[i], p);
    }
    a.connFrom.resize(def.conns.size());
    a.connTo.resize(def.conns.size());
    for (size_t c = 0; c < def.conns.size(); ++c) {
        a.connFrom[c] = index(def.conns[c].from);
        a.connTo[c] = index(def.conns[c].to);
    }
    bucketConns(a.connTo, n, a.ingressBegin, a.ingress);
    bucketConns(a.connFrom, n, a.egressBegin_, a.egress_);

    // Required nodes: walk ingress backwards from the outputs, stopping
    // at inputs (sources, never computed). order doubles as the stack.
    a.order.clear();
    for (int id : def.outputIds) {
        const uint32_t i = index(id);
        if (!a.has(i, A::kNode))
            defect("output node ", id, " is not defined");
        if (!a.has(i, A::kRequired)) {
            a.flags[i] |= A::kRequired;
            a.order.push_back(i);
        }
    }
    while (!a.order.empty()) {
        const uint32_t v = a.order.back();
        a.order.pop_back();
        for (uint32_t k = a.ingressBegin[v]; k != a.ingressBegin[v + 1];
             ++k) {
            const uint32_t u = a.connFrom[a.ingress[k]];
            if (!a.has(u, A::kRequired | A::kInput)) {
                a.flags[u] |= A::kRequired;
                a.order.push_back(u);
            }
        }
    }

    // Connection defects; active ingress per node; and per required
    // non-input node the links still waiting on a required non-input
    // producer.
    const auto computed = [&](uint32_t i) {
        return a.has(i, A::kRequired) && !a.has(i, A::kInput);
    };
    a.activeIn.assign(n, 0);
    a.pending_.assign(n, 0);
    for (uint32_t c = 0; c < def.conns.size(); ++c) {
        const NetworkDef::Conn &conn = def.conns[c];
        const uint32_t from = a.connFrom[c];
        const uint32_t to = a.connTo[c];
        // An earlier copy sits before c in its target's ingress group.
        for (uint32_t k = a.ingressBegin[to]; a.ingress[k] != c; ++k) {
            if (a.connFrom[a.ingress[k]] == from)
                defect("duplicate connection ", conn.from, "->", conn.to);
        }
        if (a.has(to, A::kInput) || conn.to < 0)
            defect("connection ", conn.from, "->", conn.to,
                   " targets an input id");
        else if (!a.has(to, A::kNode))
            defect("connection ", conn.from, "->", conn.to,
                   " targets undefined node ", conn.to);
        if (!a.has(from, A::kInput | A::kNode))
            defect("connection ", conn.from, "->", conn.to,
                   " reads undefined node ", conn.from);
        if (!std::isfinite(conn.weight))
            defect("non-finite weight on connection ", conn.from, "->",
                   conn.to);
        if (!a.activeConn(c))
            continue;
        ++a.activeIn[to];
        if (computed(from) && computed(to))
            ++a.pending_[to];
    }

    // Level-by-level Kahn pass: a layer is every node whose producers
    // are all placed, ids ascending; ingress-free nodes open layer 0.
    size_t computedCount = 0;
    for (uint32_t i = 0; i < n; ++i) {
        if (!computed(i))
            continue;
        ++computedCount;
        if (a.pending_[i] == 0)
            a.order.push_back(i);
    }
    a.layerEnd.clear();
    const auto numInputs = static_cast<uint32_t>(def.inputIds.size());
    for (uint32_t begin = 0; begin != a.order.size();) {
        const auto end = static_cast<uint32_t>(a.order.size());
        a.layerEnd.push_back(end);
        for (uint32_t p = begin; p != end; ++p) {
            const uint32_t v = a.order[p];
            a.slot[v] = numInputs + p;
            for (uint32_t k = a.egressBegin_[v];
                 k != a.egressBegin_[v + 1]; ++k) {
                const uint32_t t = a.connTo[a.egress_[k]];
                if (computed(t) && --a.pending_[t] == 0)
                    a.order.push_back(t);
            }
        }
        std::sort(a.order.begin() + end, a.order.end());
        begin = end;
    }
    a.acyclic = a.order.size() == computedCount;
}

const DefAnalysis &
analyzeDef(const NetworkDef &def)
{
    thread_local DefAnalysis analysis;
    analyzeDef(def, analysis);
    return analysis;
}

std::vector<std::vector<int>>
feedForwardLayers(const NetworkDef &def)
{
    const DefAnalysis &a = analyzeDef(def);
    a.assertAcyclic();
    std::vector<std::vector<int>> layers(a.layerCount());
    for (size_t l = 0; l < layers.size(); ++l) {
        for (uint32_t p = a.layerBegin(l); p != a.layerEnd[l]; ++p)
            layers[l].push_back(a.ids[a.order[p]]);
    }
    return layers;
}

bool
isAcyclic(const NetworkDef &def)
{
    return analyzeDef(def).acyclic;
}

} // namespace e3
