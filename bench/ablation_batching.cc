/**
 * @file
 * Ablation: batching — the software SoA engine and the PU dispatcher.
 *
 * Part 1: population inference on the host. The SoA batch engine
 * (nn/batch_eval.hh) compiles the whole population once and folds it
 * with zero per-step allocation; the per-genome baseline is the
 * pre-batching platform shape (one layered network per genome — the
 * verifier's verify::ReferenceNetwork — and the allocating activate()
 * wrapper). The ReLU kernel workload isolates
 * the execution substrate the engine replaces; the sigmoid workload is
 * the paper-default end-to-end number (libm exp dominates and is
 * identical scalar math in both paths).
 *
 * Part 2: PU batch-assignment policy. Within a batch, every step's
 * window closes on the slowest live PU (network-size variance) and a
 * batch only retires when its longest episode ends (env variance) —
 * the two U(PU) killers of Sec. V-B. Dispatching individuals grouped
 * by inference cost or by episode length concentrates the variance
 * inside fewer batches. Expected shape: sorted policies improve U(PU)
 * and total cycles over in-order dispatch whenever the population
 * spans multiple batches.
 */

#include <chrono>
#include <cstdio>
#include <iostream>

#include "common/float_eq.hh"
#include "common/table.hh"
#include "e3/synthetic.hh"
#include "inax/inax.hh"
#include "nn/batch_eval.hh"
#include "verify/reference_layering.hh"

using namespace e3;

namespace {

/**
 * Best-of-N wall time for one full-population inference pass.
 * Best-of (not mean) deliberately: on the 1-CPU CI VM, scheduler
 * interference only ever adds time, so the minimum is the least
 * contaminated estimate of the code's own cost.
 */
template <typename Fn>
double
bestPassSeconds(Fn &&pass, int rounds, int passesPerRound)
{
    using Clock = std::chrono::steady_clock;
    double best = 1e300;
    for (int r = 0; r < rounds; ++r) {
        const auto t0 = Clock::now();
        for (int i = 0; i < passesPerRound; ++i)
            pass();
        const double s =
            std::chrono::duration<double>(Clock::now() - t0).count() /
            passesPerRound;
        best = std::min(best, s);
    }
    return best;
}

/** One row of the SoA-vs-per-genome comparison; returns the speedup. */
double
soaRow(TextTable &table, const char *name,
       const std::vector<NetworkDef> &defs)
{
    std::vector<verify::ReferenceNetwork> nets;
    for (const auto &def : defs)
        nets.push_back(verify::ReferenceNetwork::create(def));
    std::vector<double> input(nets[0].numInputs(), 0.5);

    auto batch = compilePopulation(defs).value();
    const size_t lanes = batch->lanes();
    std::vector<double> in(lanes * batch->numInputs(), 0.5);
    std::vector<double> out(lanes * batch->numOutputs());

    // Equivalence first: the ablation only compares costs of paths
    // that produce bit-identical outputs.
    batch->activateBatch(lanes, in.data(), batch->numInputs(),
                         out.data(), batch->numOutputs());
    bool identical = true;
    for (size_t i = 0; i < lanes; ++i) {
        const auto ref = nets[i].activate(input);
        for (size_t o = 0; o < ref.size(); ++o)
            identical &= bitEqual(ref[o], out[i * batch->numOutputs() + o]);
    }

    const double perGenome = bestPassSeconds(
        [&] {
            for (auto &net : nets) {
                volatile double sink = net.activate(input)[0];
                (void)sink;
            }
        },
        5, 20);
    const double batched = bestPassSeconds(
        [&] {
            batch->activateBatch(lanes, in.data(), batch->numInputs(),
                                 out.data(), batch->numOutputs());
        },
        5, 20);

    const double speedup = perGenome / batched;
    table.row({name, TextTable::num(perGenome * 1e9 / lanes, 0),
               TextTable::num(batched * 1e9 / lanes, 0),
               TextTable::num(speedup, 2) + "x",
               identical ? "yes" : "NO"});
    return speedup;
}

void
soaSection()
{
    std::cout << "Ablation: SoA population inference vs per-genome "
                 "(pop 128, 30 hidden, best-of-5 timing)\n\n";

    SyntheticParams p;
    p.numIndividuals = 128;
    p.numHidden = 30;
    const auto sigmoid = syntheticPopulation(p, 11);
    auto relu = sigmoid;
    for (auto &def : relu)
        for (auto &node : def.nodes)
            node.act = Activation::ReLU;

    TextTable table("Population inference");
    table.header({"workload", "per-genome ns/ind", "SoA ns/ind",
                  "speedup", "bit-identical"});
    const double kernelSpeedup = soaRow(table, "ReLU (kernel)", relu);
    soaRow(table, "sigmoid (end-to-end)", sigmoid);
    std::cout << table << '\n';

    std::printf("Shape check: SoA engine >=5x per-genome population "
                "inference (ReLU kernel, pop 128): %s\n\n",
                kernelSpeedup >= 5.0 ? "PASS" : "DIVERGES");
}

} // namespace

int
main()
{
    soaSection();

    std::cout << "Ablation: PU batch-assignment policy (200 synthetic "
                 "individuals, episode lengths 20-400, PU=50, "
                 "PE=4)\n\n";

    SyntheticParams params;
    params.numOutputs = 4;
    const auto population = syntheticPopulation(params, 99);
    Rng rng(17);
    const auto lengths =
        syntheticEpisodeLengths(population.size(), 20, 400, rng);

    InaxConfig cfg;
    cfg.numPUs = 50;
    cfg.numPEs = 4;

    std::vector<IndividualCost> costs;
    for (const auto &def : population)
        costs.push_back(puIndividualCost(def, cfg));

    TextTable table("Batching policies");
    table.header({"policy", "total Mcycles", "U(PU)", "U(PE)",
                  "vs in-order"});

    const struct
    {
        const char *name;
        BatchPolicy policy;
    } policies[] = {
        {"in-order (paper)", BatchPolicy::InOrder},
        {"sorted by cost", BatchPolicy::SortedByCost},
        {"sorted by episode length", BatchPolicy::SortedByLength},
    };

    double baseline = 0.0;
    double bestSorted = 1e300;
    for (const auto &p : policies) {
        const InaxReport report =
            runAccelerator(costs, lengths, cfg, p.policy);
        const double mcycles =
            static_cast<double>(report.totalCycles()) / 1e6;
        if (p.policy == BatchPolicy::InOrder)
            baseline = mcycles;
        else
            bestSorted = std::min(bestSorted, mcycles);
        table.row({p.name, TextTable::num(mcycles, 3),
                   TextTable::num(report.pu.rate(), 3),
                   TextTable::num(report.pe.rate(), 3),
                   TextTable::num(baseline > 0 ? baseline / mcycles
                                               : 1.0,
                                  3) +
                       "x"});
    }
    std::cout << table << '\n';

    std::printf("Shape check: at least one sorted policy beats "
                "in-order dispatch: %s\n",
                bestSorted < baseline ? "PASS" : "DIVERGES");
    return 0;
}
