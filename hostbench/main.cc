/**
 * @file
 * e3_hostbench: host-time benchmark of the two product surfaces,
 * `runExperiment` (evolve) and `ChampionServer` (serve).
 *
 *   e3_hostbench --workload NAME --seed N --seconds S --trace 0|1
 *                --scratch DIR --golden FILE [--write-golden]
 *   e3_hostbench --self-test
 *
 * Prints progress to stderr and, as the last stdout line, one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
 * when a correctness check fails, 2 on a usage error (no result line).
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.hh"
#include "common/logging.hh"

using namespace e3::hostbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "e3_hostbench: %s\n"
                 "usage: e3_hostbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --scratch DIR --golden FILE "
                 "[--write-golden]\n"
                 "       e3_hostbench --self-test\n",
                 why);
    return 2;
}

bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && end && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool selfTestOnly = false;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--self-test") {
            selfTestOnly = true;
            continue;
        }
        if (key == "--write-golden") {
            options.writeGolden = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        double number = 0.0;
        if (key == "--workload") {
            options.workload = value;
            haveWorkload = true;
        } else if (key == "--seed") {
            char *end = nullptr;
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || value[0] == '-' || *end != '\0')
                return usage("--seed needs a non-negative integer");
        } else if (key == "--seconds") {
            if (!parseNumber(value, number) || number <= 0 || number > 600)
                return usage("--seconds needs a number in (0, 600]");
            options.seconds = number;
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace needs 0 or 1");
            options.trace = value == "1";
        } else if (key == "--scratch") {
            options.scratchDir = value;
        } else if (key == "--golden") {
            options.goldenPath = value;
        } else {
            return usage(("unknown option " + key).c_str());
        }
    }

    const std::vector<std::string> selfTestFailures = selfTest();
    for (const std::string &failure : selfTestFailures)
        std::fprintf(stderr, "self-test failed: %s\n", failure.c_str());
    if (selfTestOnly) {
        if (selfTestFailures.empty())
            std::fprintf(stderr, "self-test: ok\n");
        return selfTestFailures.empty() ? 0 : 1;
    }
    if (!haveWorkload || options.scratchDir.empty() ||
        options.goldenPath.empty())
        return usage("--workload, --scratch and --golden are required");

    e3::setLogLevel(e3::LogLevel::Warn);
    std::error_code ec;
    std::filesystem::create_directories(options.scratchDir, ec);
    if (ec)
        return usage(("cannot create " + options.scratchDir).c_str());

    Report report;
    for (const std::string &failure : selfTestFailures)
        report.fail("self-test: " + failure);
    const bool known = options.workload.rfind("evolve.", 0) == 0
                           ? runEvolve(options, report)
                           : runServe(options, report);
    std::filesystem::remove_all(options.scratchDir, ec);
    if (!known)
        return usage(("unknown workload " + options.workload).c_str());
    if (options.writeGolden)
        return report.correct ? 0 : 1;
    for (const std::string &problem : report.problems)
        std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
    std::printf("%s\n", report.json().c_str());
    std::fflush(stdout);
    return report.correct ? 0 : 1;
}
