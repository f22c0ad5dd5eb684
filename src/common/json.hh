/**
 * @file
 * JSON string quoting, shared by every JSON writer in the project (the
 * trace and metrics exports, verifier reports, the linter's --json).
 */

#ifndef E3_COMMON_JSON_HH
#define E3_COMMON_JSON_HH

#include <string>

namespace e3 {

/**
 * @p text as a JSON string literal: surrounding quotes, with '"', '\',
 * newline, carriage return and tab escaped and other control bytes
 * written as \u00XX. Other bytes pass through unchanged.
 */
std::string jsonQuote(const std::string &text);

} // namespace e3

#endif // E3_COMMON_JSON_HH
