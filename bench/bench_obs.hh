/**
 * @file
 * Shared --trace/--trace-detail/--metrics plumbing for the fig*
 * benches. Header-only so each bench stays one translation unit.
 *
 *   BenchObs bo(argc, argv);      // usage error (exit 64) on a bad option
 *   bo.start();                   // arm tracing if --trace was given
 *   ...run the bench...
 *   bo.finishTrace();             // write the trace file
 *   bo.writeMetrics(csvText);     // write --metrics if requested
 */

#ifndef E3_BENCH_BENCH_OBS_HH
#define E3_BENCH_BENCH_OBS_HH

#include <cstdio>
#include <fstream>
#include <string>

#include "bench_args.hh"
#include "common/logging.hh"
#include "obs/trace.hh"

namespace e3 {

class BenchObs
{
  public:
    BenchObs(int argc, char **argv)
    {
        ArgReader args(argc, argv,
                       "[--trace f.json] [--trace-detail phase|task|hw] "
                       "[--metrics f.csv] [--json f.json]");
        while (args.next()) {
            const std::string &key = args.key();
            if (key == "--trace") {
                tracePath_ = args.value();
            } else if (key == "--trace-detail") {
                const std::string name = args.value();
                if (!obs::parseTraceDetail(name, detail_))
                    args.fail("unknown trace detail '", name, "'");
            } else if (key == "--metrics") {
                metricsPath_ = args.value();
            } else if (key == "--json") {
                jsonPath_ = args.value();
            } else {
                args.unknown();
            }
        }
    }

    void
    start() const
    {
        if (!tracePath_.empty())
            obs::traceStart(detail_);
    }

    void
    finishTrace() const
    {
        if (tracePath_.empty())
            return;
        if (obs::traceStop(tracePath_))
            std::printf("trace written to %s\n", tracePath_.c_str());
    }

    bool
    wantMetrics() const
    {
        return !metricsPath_.empty();
    }

    void
    writeMetrics(const std::string &csvText) const
    {
        if (metricsPath_.empty())
            return;
        std::ofstream out(metricsPath_);
        if (!out) {
            warn("cannot open metrics file '", metricsPath_,
                 "' for writing");
            return;
        }
        out << csvText;
        std::printf("metrics written to %s\n", metricsPath_.c_str());
    }

    bool
    wantJson() const
    {
        return !jsonPath_.empty();
    }

    /** Write a bench-assembled JSON summary if --json was given. */
    void
    writeJson(const std::string &jsonText) const
    {
        if (jsonPath_.empty())
            return;
        std::ofstream out(jsonPath_);
        if (!out) {
            warn("cannot open json file '", jsonPath_,
                 "' for writing");
            return;
        }
        out << jsonText;
        std::printf("json written to %s\n", jsonPath_.c_str());
    }

  private:
    std::string tracePath_;
    std::string metricsPath_;
    std::string jsonPath_;
    obs::TraceDetail detail_ = obs::TraceDetail::Phase;
};

} // namespace e3

#endif // E3_BENCH_BENCH_OBS_HH
