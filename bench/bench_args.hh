/**
 * @file
 * Command-line parsing for the benches, on e3_cli's scheme: a number
 * goes through std::from_chars and must fill its whole token and lie in
 * the flag's range, and a bad value, a missing value or an unknown
 * option prints the usage text to stderr and exits 64 (BSD sysexits
 * EX_USAGE). Header-only so each bench stays one translation unit.
 *
 *   ArgReader args(argc, argv, "[--seconds s] [--out f]");
 *   while (args.next()) {
 *       if (args.key() == "--seconds")
 *           seconds = args.number(0.001, 3600.0);
 *       else if (args.key() == "--out")
 *           out = args.value();
 *       else
 *           args.unknown();
 *   }
 */

#ifndef E3_BENCH_BENCH_ARGS_HH
#define E3_BENCH_BENCH_ARGS_HH

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <system_error>
#include <utility>

#include "common/logging.hh"

namespace e3 {

/** Walks `--key value` pairs; every error is a usage error. */
class ArgReader
{
  public:
    /** Exit code of a command-line usage error. */
    static constexpr int kExitUsage = 64;

    /** @param synopsis the options part of the usage line */
    ArgReader(int argc, char **argv, std::string synopsis)
        : argc_(argc), argv_(argv), synopsis_(std::move(synopsis))
    {
    }

    /** Advance to the next option; false after the last one. */
    bool
    next()
    {
        if (++i_ >= argc_)
            return false;
        key_ = argv_[i_];
        return true;
    }

    const std::string &key() const { return key_; }

    /** The current option's value token. */
    std::string
    value()
    {
        if (i_ + 1 >= argc_)
            fail(key_, " needs a value");
        return argv_[++i_];
    }

    /**
     * The current option's value as a number in [lo, hi]: integral
     * types take a whole decimal integer, floating types a finite
     * decimal number.
     */
    template <typename T>
    T
    number(T lo, T hi)
    {
        const std::string text = value();
        const char *const end = text.data() + text.size();
        T parsed{};
        const auto [stop, error] =
            std::from_chars(text.data(), end, parsed);
        // The negated comparison also rejects NaN.
        if (error != std::errc() || stop != end ||
            !(parsed >= lo && parsed <= hi))
            fail(key_, " expects a number in [", lo, ", ", hi, "], got '",
                 text, "'");
        return parsed;
    }

    /** Refuse the current option. */
    [[noreturn]] void unknown() { fail("unknown option ", key_); }

    /** Print @p parts and the usage text to stderr, exit 64. */
    template <typename... Parts>
    [[noreturn]] void
    fail(const Parts &...parts) const
    {
        std::fprintf(stderr, "%s: %s\nusage: %s %s\n", argv_[0],
                     detail::format(parts...).c_str(), argv_[0],
                     synopsis_.c_str());
        std::exit(kExitUsage);
    }

  private:
    int argc_;
    char **argv_;
    std::string synopsis_;
    int i_ = 0;
    std::string key_;
};

} // namespace e3

#endif // E3_BENCH_BENCH_ARGS_HH
