/**
 * @file
 * Fig. 9(b)-(d): runtime of the three platform variants across the
 * suite, normalized breakdowns, and the rebalanced E3 timing profile.
 *
 * Paper references — Fig. 9(b): E3-CPU {0.3, 43.3, 115.4, 164.9,
 * 220.1, 527.0} s for Env1..Env6, E3-GPU far slower than CPU, E3-INAX
 * ~30x faster on average. Fig. 9(c): the "evaluate" bar shrinks to the
 * scale of evolve's sub-functions. Fig. 9(d): E3's time distribution is
 * balanced across functions.
 *
 * The functional evolution run is identical (same seed) for all three
 * variants; only the evaluate execution model differs — the paper's
 * controlled comparison.
 */

#include <cstdio>
#include <iostream>
#include <thread>

#include "bench_obs.hh"
#include "common/table.hh"
#include "common/timing.hh"
#include "e3/experiment.hh"
#include "obs/metrics.hh"

using namespace e3;

namespace {

/**
 * Wall-clock scaling of the src/runtime parallel evaluator: the same
 * CartPole pop=200 run (bit-identical traces by construction) at
 * 1/2/4/... worker threads.
 */
void
runtimeScalingSection()
{
    TextTable table("Parallel evaluation runtime (real wall-clock, "
                    "cartpole pop=200)");
    table.header({"threads", "wall(s)", "speedup", "best",
                  "tasks stolen"});

    ExperimentOptions base;
    base.populationSize = 200;
    base.episodesPerEval = 3;
    base.maxGenerations = 8;

    auto cell = [&](size_t threads, double baseline) {
        ExperimentOptions o = base;
        o.threads = threads;
        Stopwatch watch;
        const RunResult r =
            runExperiment("cartpole", BackendKind::Cpu, o);
        const double wall = watch.seconds();
        table.row({TextTable::num(static_cast<long long>(threads)),
                   TextTable::num(wall, 3),
                   baseline > 0.0
                       ? TextTable::num(baseline / wall, 2) + "x"
                       : "1.00x",
                   TextTable::num(r.bestFitness, 2),
                   TextTable::num(r.runtimeCounters.get(
                       "runtime.tasks_stolen"), 0)});
        return wall;
    };

    const double serialWall = cell(1, 0.0);
    const size_t hw =
        std::max<size_t>(std::thread::hardware_concurrency(), 1);
    for (size_t threads = 2; threads <= 8 && threads <= 2 * hw;
         threads *= 2)
        cell(threads, serialWall);
    std::cout << table << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchObs bo(argc, argv);
    bo.start();

    std::cout
        << "Fig. 9(b-d) reproduction: platform runtimes across the "
           "suite (modeled seconds; see EXPERIMENTS.md calibration "
           "note)\n\n";

    ExperimentOptions opt;
    opt.episodesPerEval = 3;

    TextTable runtime("Fig. 9(b): experiment runtime results");
    runtime.header({"env", "E3-CPU(s)", "E3-GPU(s)", "E3-INAX(s)",
                    "INAX speedup", "GPU slowdown"});

    TextTable breakdown(
        "Fig. 9(c): normalized runtime and function breakdown "
        "(per env, E3-CPU = 1.0)");
    breakdown.header({"env", "platform", "norm total", "evaluate",
                      "evolve", "createnet", "env(sim)"});

    TextTable profile(
        "Fig. 9(d): E3-INAX timing profile (per-function share)");
    profile.header({"env", "evaluate", "evolve", "createnet",
                    "env(sim)"});

    double speedupSum = 0.0;
    size_t count = 0;
    std::vector<std::pair<std::string, obs::MetricsRegistry>> perCell;
    std::string jsonRows;
    for (const auto &spec : envSuite()) {
        ExperimentOptions o = opt;
        o.maxGenerations = suiteGenerationBudget(spec.name);
        const RunResult cpu =
            runExperiment(spec.name, BackendKind::Cpu, o);
        const RunResult gpu =
            runExperiment(spec.name, BackendKind::Gpu, o);
        const RunResult inax =
            runExperiment(spec.name, BackendKind::Inax, o);
        if (bo.wantMetrics()) {
            perCell.emplace_back(spec.name + "/cpu", cpu.metrics);
            perCell.emplace_back(spec.name + "/gpu", gpu.metrics);
            perCell.emplace_back(spec.name + "/inax", inax.metrics);
        }

        const double speedup =
            cpu.totalSeconds() / inax.totalSeconds();
        const double slowdown =
            gpu.totalSeconds() / cpu.totalSeconds();
        speedupSum += speedup;
        ++count;

        runtime.row({spec.name, TextTable::num(cpu.totalSeconds(), 2),
                     TextTable::num(gpu.totalSeconds(), 1),
                     TextTable::num(inax.totalSeconds(), 3),
                     TextTable::num(speedup, 1) + "x",
                     TextTable::num(slowdown, 1) + "x"});
        if (bo.wantJson()) {
            char row[256];
            std::snprintf(
                row, sizeof row,
                "%s    {\"env\": \"%s\", \"cpu_s\": %.3f, "
                "\"gpu_s\": %.3f, \"inax_s\": %.4f, "
                "\"inax_speedup\": %.2f}",
                jsonRows.empty() ? "" : ",\n", spec.name.c_str(),
                cpu.totalSeconds(), gpu.totalSeconds(),
                inax.totalSeconds(), speedup);
            jsonRows += row;
        }

        // Fig. 9(c): absolute per-function seconds normalized to the
        // CPU baseline's total, so the INAX rows show the "evaluate"
        // bar collapsing to the scale of evolve's sub-functions.
        auto breakdownRow = [&](const RunResult &r) {
            const double base = cpu.totalSeconds();
            breakdown.row(
                {spec.name, r.backendName,
                 TextTable::num(r.totalSeconds() / base, 4),
                 TextTable::num(
                     r.modeled.seconds(e3_phase::evaluate) / base, 4),
                 TextTable::num(
                     r.modeled.seconds(e3_phase::evolve) / base, 4),
                 TextTable::num(
                     r.modeled.seconds(e3_phase::createNet) / base,
                     4),
                 TextTable::num(r.modeled.seconds(e3_phase::env) /
                                    base,
                                4)});
        };
        breakdownRow(cpu);
        breakdownRow(inax);

        profile.row(
            {spec.name,
             TextTable::pct(inax.modeled.fraction(e3_phase::evaluate)),
             TextTable::pct(inax.modeled.fraction(e3_phase::evolve)),
             TextTable::pct(
                 inax.modeled.fraction(e3_phase::createNet)),
             TextTable::pct(inax.modeled.fraction(e3_phase::env))});
    }
    std::cout << runtime << '\n';

    const double avgSpeedup = speedupSum / static_cast<double>(count);
    std::printf("Average E3-INAX speedup over E3-CPU: %.1fx "
                "(paper: ~30x)\n\n",
                avgSpeedup);

    std::cout << breakdown << '\n';
    std::cout << profile << '\n';
    std::printf("Shape check: average speedup in the paper's regime "
                "(>15x): %s\n",
                avgSpeedup > 15.0 ? "PASS" : "DIVERGES");

    runtimeScalingSection();

    bo.finishTrace();
    if (bo.wantJson()) {
        char summary[128];
        std::snprintf(summary, sizeof summary,
                      "  \"average_inax_speedup\": %.2f,\n"
                      "  \"paper_speedup\": 30.0,\n",
                      avgSpeedup);
        bo.writeJson(std::string("{\n  \"bench\": "
                                 "\"fig9_platform_runtime\",\n") +
                     summary + "  \"envs\": [\n" + jsonRows +
                     "\n  ]\n}\n");
    }
    if (bo.wantMetrics()) {
        std::vector<std::pair<std::string, const obs::MetricsRegistry *>>
            labeled;
        for (const auto &[label, reg] : perCell)
            labeled.emplace_back(label, &reg);
        bo.writeMetrics(obs::combinedMetricsCsv(labeled));
    }
    return 0;
}
