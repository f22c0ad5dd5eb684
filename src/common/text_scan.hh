/**
 * @file
 * Allocation-free scanning of line-oriented text over std::string_view:
 * the reader behind the genome and checkpoint loaders.
 *
 * The formats were first parsed with std::getline and istream `>>`, and
 * these readers keep exactly those semantics (C locale), so every text
 * the stream parsers accepted is accepted with the same values and
 * every text they rejected is rejected:
 *
 *  - TextCursor::nextLine splits on '\n' like std::getline: a '\r'
 *    stays in the line, and a final line without '\n' is returned.
 *  - LineScanner reads whitespace-separated words and integers like
 *    istream `>>`: skip C-locale whitespace, then for an integer an
 *    optional sign and decimal digits (reading stops at the first
 *    non-digit, which starts the next token). Overflow fails; an
 *    unsigned read accepts '-' and wraps, as num_get and strtoull do.
 *    A failed read fails every later read on the same line.
 *  - Doubles are one whole token through parseDouble() (strtod
 *    semantics), not num_get: hex floats, "inf" and "nan" round-trip.
 *
 * Views returned by these readers point into the caller's buffer, which
 * must outlive them.
 */

#ifndef E3_COMMON_TEXT_SCAN_HH
#define E3_COMMON_TEXT_SCAN_HH

#include <cstdint>
#include <limits>
#include <string_view>
#include <type_traits>

namespace e3 {

/**
 * Parse one whole token as a double with strtod semantics: the token
 * must be consumed entirely; hex floats, "inf"/"nan" and out-of-range
 * values (which become ±inf or a rounded subnormal/zero) are accepted.
 * Plain decimal tokens take a std::from_chars fast path that yields the
 * same correctly rounded value.
 */
bool parseDouble(std::string_view token, double &out);

/** C-locale isspace: ' ', '\t', '\n', '\v', '\f', '\r'. */
constexpr bool
isSpaceC(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/** Tokens of one line, read with istream `>>` semantics. */
class LineScanner
{
  public:
    LineScanner() = default;
    explicit LineScanner(std::string_view line) : line_(line) {}

    /** The whole line, for error messages. */
    std::string_view line() const { return line_; }

    /** False once any read has failed. */
    explicit operator bool() const { return ok_; }

    /** One whitespace-delimited word (`>> std::string`). */
    LineScanner &
    operator>>(std::string_view &word)
    {
        skipSpace();
        const size_t start = pos_;
        while (pos_ < line_.size() && !isSpaceC(line_[pos_]))
            ++pos_;
        if (pos_ == start)
            ok_ = false;
        else if (ok_)
            word = line_.substr(start, pos_ - start);
        return *this;
    }

    /** One token through parseDouble(). */
    LineScanner &
    operator>>(double &value)
    {
        std::string_view token;
        if (*this >> token && !parseDouble(token, value))
            ok_ = false;
        return *this;
    }

    /** A decimal integer (`>> int`, `>> size_t`, `>> uint64_t`, ...). */
    template <typename T,
              typename = std::enable_if_t<std::is_integral_v<T> &&
                                          !std::is_same_v<T, bool> &&
                                          sizeof(T) <= sizeof(uint64_t) &&
                                          sizeof(T) >= sizeof(int)>>
    LineScanner &
    operator>>(T &value)
    {
        uint64_t magnitude = 0;
        bool negative = false;
        if (readMagnitude(magnitude, negative) &&
            !fitInto(magnitude, negative, value))
            ok_ = false;
        return *this;
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < line_.size() && isSpaceC(line_[pos_]))
            ++pos_;
    }

    /** Sign and digits; false (sticky) on no digits or u64 overflow. */
    bool readMagnitude(uint64_t &magnitude, bool &negative);

    template <typename T>
    static bool
    fitInto(uint64_t magnitude, bool negative, T &value)
    {
        using U = std::make_unsigned_t<T>;
        if constexpr (std::is_signed_v<T>) {
            const uint64_t limit =
                static_cast<uint64_t>(std::numeric_limits<T>::max()) +
                (negative ? 1u : 0u);
            if (magnitude > limit)
                return false;
            const U bits = static_cast<U>(magnitude);
            value = static_cast<T>(negative ? U(0) - bits : bits);
        } else {
            if (magnitude > std::numeric_limits<T>::max())
                return false;
            const T bits = static_cast<T>(magnitude);
            value = negative ? T(0) - bits : bits;
        }
        return true;
    }

    std::string_view line_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/** Successive lines of a borrowed buffer (std::getline semantics). */
class TextCursor
{
  public:
    explicit TextCursor(std::string_view text) : rest_(text) {}

    /** Next line without its '\n'; false once the text is used up. */
    bool nextLine(std::string_view &line);

    /**
     * Skip blank and '#'-comment lines; split the next line into its
     * leading word @p tag and the scanner @p rest positioned after it.
     * False at end of text.
     */
    bool nextRecord(std::string_view &tag, LineScanner &rest);

  private:
    std::string_view rest_;
};

} // namespace e3

#endif // E3_COMMON_TEXT_SCAN_HH
