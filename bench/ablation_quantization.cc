/**
 * @file
 * Ablation: fixed-point precision of the deployed accelerator.
 *
 * INAX computes on DSP-slice fixed-point MACs; evolution runs in
 * double. How many bits does an evolved controller need before its
 * behaviour degrades? We evolve champions for three environments and
 * re-evaluate each at a ladder of Qm.n formats. Expected shape: wide
 * formats (>= 16 bits) are behaviour-preserving; very narrow formats
 * collapse — justifying 16-bit PE datapaths for this workload.
 */

#include <cstdio>
#include <iostream>

#include "common/table.hh"
#include "e3/experiment.hh"
#include "nn/quantize.hh"

using namespace e3;

namespace {

/** Mean episode reward of a network over a few fresh episodes. */
template <typename Net>
double
score(Net &net, const EnvSpec &spec, size_t episodes, uint64_t seed)
{
    Rng rng(seed);
    double total = 0.0;
    for (size_t e = 0; e < episodes; ++e) {
        auto env = spec.make();
        Observation obs = env->reset(rng);
        for (int t = 0; t < env->maxEpisodeSteps(); ++t) {
            const StepResult r =
                env->step(decodeAction(spec, net.activate(obs)));
            obs = r.observation;
            total += r.reward;
            if (r.done)
                break;
        }
    }
    return total / static_cast<double>(episodes);
}

} // namespace

int
main()
{
    std::cout << "Ablation: evolved-controller fitness vs fixed-point "
                 "precision (evaluation over 5 fresh episodes)\n\n";

    const struct
    {
        int totalBits, fracBits;
    } formats[] = {{32, 16}, {16, 8}, {12, 6}, {8, 4}, {6, 3}, {4, 2}};

    TextTable table("Fitness under quantization");
    std::vector<std::string> header{"env", "float64"};
    for (const auto &f : formats) {
        FixedPointFormat fmt{f.totalBits, f.fracBits};
        header.push_back(fmt.describe());
    }
    table.header(header);

    bool wideOk = true;
    bool narrowHurts = false;
    for (const char *envName :
         {"cartpole", "acrobot", "lunar_lander"}) {
        const EnvSpec &spec = envSpec(envName);
        const Genome champion =
            evolvedChampion(envName, 60, 150, 77);
        const NeatConfig cfg = NeatConfig::forTask(
            spec.numInputs, spec.numOutputs, spec.requiredFitness);
        const NetworkDef def = champion.toNetworkDef(cfg);

        auto floatNet = Network::create(def);
        const double floatScore = score(floatNet, spec, 5, 999);

        std::vector<std::string> row{envName,
                                     TextTable::num(floatScore, 1)};
        for (const auto &f : formats) {
            const FixedPointFormat fmt{f.totalBits, f.fracBits};
            auto qnet = Network::create(def, {.quantization = fmt});
            const double qScore = score(qnet, spec, 5, 999);
            row.push_back(TextTable::num(qScore, 1));
            if (f.totalBits >= 16 &&
                std::abs(qScore - floatScore) >
                    0.15 * std::max(std::abs(floatScore), 10.0))
                wideOk = false;
            if (f.totalBits <= 4 && qScore < floatScore - 1e-9)
                narrowHurts = true;
        }
        table.row(row);
    }
    std::cout << table << '\n';

    std::printf("Shape check: >=16-bit formats preserve behaviour "
                "(within 15%%): %s; <=4-bit formats degrade at least "
                "one task: %s\n",
                wideOk ? "PASS" : "DIVERGES",
                narrowHurts ? "PASS" : "(no degradation observed)");
    return 0;
}
