#include "common/text_scan.hh"

#include <charconv>
#include <cstdlib>
#include <string>

namespace e3 {

namespace {

/** Characters of a plain decimal token: sign, digits, point, exponent. */
bool
isPlainDecimal(std::string_view token)
{
    for (char c : token) {
        if (!((c >= '0' && c <= '9') || c == '.' || c == '-' ||
              c == '+' || c == 'e' || c == 'E'))
            return false;
    }
    return true;
}

} // namespace

bool
parseDouble(std::string_view token, double &out)
{
    if (token.empty())
        return false;
    if (isPlainDecimal(token)) {
        // Both from_chars and strtod round correctly, so a token
        // from_chars consumes whole has the value strtod would give.
        // Anything else (a leading '+', a range error, a partial
        // match) takes strtod's verdict below.
        double value = 0.0;
        const char *end = token.data() + token.size();
        const std::from_chars_result r =
            std::from_chars(token.data(), end, value);
        if (r.ec == std::errc() && r.ptr == end) {
            out = value;
            return true;
        }
    }
    // strtod needs a terminated copy; tokens are short, so the stack
    // buffer covers every token a writer produces.
    char buf[64];
    std::string heap;
    const char *text = buf;
    if (token.size() < sizeof(buf)) {
        token.copy(buf, token.size());
        buf[token.size()] = '\0';
    } else {
        heap.assign(token);
        text = heap.c_str();
    }
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end == text + token.size();
}

bool
LineScanner::readMagnitude(uint64_t &magnitude, bool &negative)
{
    if (!ok_)
        return false;
    skipSpace();
    if (pos_ < line_.size() && (line_[pos_] == '-' || line_[pos_] == '+')) {
        negative = line_[pos_] == '-';
        ++pos_;
    }
    const size_t start = pos_;
    uint64_t value = 0;
    bool overflow = false;
    for (; pos_ < line_.size() && line_[pos_] >= '0' && line_[pos_] <= '9';
         ++pos_) {
        const uint64_t digit = static_cast<uint64_t>(line_[pos_] - '0');
        if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10)
            overflow = true;
        else
            value = value * 10 + digit;
    }
    if (pos_ == start || overflow) {
        ok_ = false;
        return false;
    }
    magnitude = value;
    return true;
}

bool
TextCursor::nextLine(std::string_view &line)
{
    if (rest_.empty())
        return false;
    const size_t newline = rest_.find('\n');
    if (newline == std::string_view::npos) {
        line = rest_;
        rest_ = std::string_view();
    } else {
        line = rest_.substr(0, newline);
        rest_.remove_prefix(newline + 1);
    }
    return true;
}

bool
TextCursor::nextRecord(std::string_view &tag, LineScanner &rest)
{
    std::string_view line;
    while (nextLine(line)) {
        rest = LineScanner(line);
        if ((rest >> tag) && tag[0] != '#')
            return true;
    }
    return false;
}

} // namespace e3
