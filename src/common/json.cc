#include "common/json.hh"

#include <cstdio>

namespace e3 {

std::string
jsonQuote(const std::string &text)
{
    std::string out = "\"";
    out.reserve(text.size() + 8);
    for (char ch : text) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned char>(ch));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    out += "\"";
    return out;
}

} // namespace e3
