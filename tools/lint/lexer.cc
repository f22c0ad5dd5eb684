/**
 * @file
 * The e3_lint tokenizer.
 *
 * Deliberately simpler than a real C++ lexer — rules only need to tell
 * identifiers, literals, comments, preprocessor directives and a few
 * multi-char operators apart. It is exact about the things that would
 * otherwise cause false positives: string and character literals
 * (including raw strings with encoding prefixes, and escapes) are
 * swallowed whole so a banned identifier inside a string never fires,
 * comments are kept as tokens so the waiver scanner can see them, and
 * line splices (backslash-newline, with or without a carriage return)
 * are honoured at top level, inside // comments, and inside string
 * literals so line numbers stay exact across them.
 */

#include "lint/lint.hh"

#include <cctype>

namespace e3::lint {

namespace {

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
numberChar(char c)
{
    // Permissive: covers digits, hex, binary, exponents, digit
    // separators, and the f/l/u/z suffixes. pp-number style.
    return std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
           c == '\'';
}

/** Multi-char operators emitted as single Punct tokens. */
const char *const kOperators[] = {
    "==", "!=", "<=", ">=", "&&", "||", "::", "->", "++", "--",
    "+=", "-=", "*=", "/=",
};

/**
 * Length of the line splice at @p i (backslash + optional CR +
 * newline), or 0 when there is none.
 */
size_t
spliceLen(const std::string &src, size_t i)
{
    if (src[i] != '\\')
        return 0;
    if (i + 1 < src.size() && src[i + 1] == '\n')
        return 2;
    if (i + 2 < src.size() && src[i + 1] == '\r' && src[i + 2] == '\n')
        return 3;
    return 0;
}

/**
 * Does a raw string literal start at @p i? Returns the length of the
 * part before the opening '"' — 1 for R", 2 for uR"/UR"/LR",
 * 3 for u8R" — or 0 when this is not a raw string.
 */
size_t
rawPrefixLen(const std::string &src, size_t i)
{
    const size_t n = src.size();
    if (src[i] == 'R' && i + 1 < n && src[i + 1] == '"')
        return 1;
    if ((src[i] == 'u' || src[i] == 'U' || src[i] == 'L') && i + 2 < n &&
        src[i + 1] == 'R' && src[i + 2] == '"')
        return 2;
    if (src[i] == 'u' && i + 3 < n && src[i + 1] == '8' &&
        src[i + 2] == 'R' && src[i + 3] == '"')
        return 3;
    return 0;
}

} // namespace

std::vector<Token>
tokenize(const std::string &src)
{
    std::vector<Token> out;
    const size_t n = src.size();
    size_t i = 0;
    int line = 1;
    bool lineStart = true; // only whitespace seen since the newline

    auto push = [&](TokKind kind, std::string text, int tokLine) {
        out.push_back(Token{kind, std::move(text), tokLine});
    };

    while (i < n) {
        const char c = src[i];
        if (c == '\n') {
            ++line;
            ++i;
            lineStart = true;
            continue;
        }
        // A line splice joins physical lines into one logical line,
        // so the lineStart state carries across it.
        if (const size_t splice = spliceLen(src, i)) {
            ++line;
            i += splice;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }

        // Comments (kept: the waiver scanner reads them). A splice at
        // the end of a // comment continues the comment itself.
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            const int tokLine = line;
            size_t j = i;
            while (j < n && src[j] != '\n') {
                if (const size_t splice = spliceLen(src, j)) {
                    ++line;
                    j += splice;
                    continue;
                }
                ++j;
            }
            push(TokKind::Comment, src.substr(i, j - i), tokLine);
            i = j;
            lineStart = false;
            continue;
        }
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            const int tokLine = line;
            size_t j = i + 2;
            while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) {
                if (src[j] == '\n')
                    ++line;
                ++j;
            }
            j = j + 1 < n ? j + 2 : n;
            push(TokKind::Comment, src.substr(i, j - i), tokLine);
            i = j;
            lineStart = false;
            continue;
        }

        // Preprocessor directive: '#' first on its line becomes a
        // Directive token carrying the keyword; the rest of the line
        // lexes normally (so `#ifndef GUARD` yields the guard name).
        if (c == '#' && lineStart) {
            size_t j = i + 1;
            while (j < n && (src[j] == ' ' || src[j] == '\t'))
                ++j;
            size_t k = j;
            while (k < n && identChar(src[k]))
                ++k;
            push(TokKind::Directive, src.substr(j, k - j), line);
            i = k;
            lineStart = false;
            continue;
        }

        // Raw string literal: R"delim( ... )delim", with an optional
        // u8/u/U/L encoding prefix. Contents are verbatim — a
        // backslash-newline inside is literal text, not a splice.
        if (const size_t prefix = rawPrefixLen(src, i)) {
            size_t j = i + prefix + 1;
            std::string delim;
            while (j < n && src[j] != '(' && src[j] != '\n')
                delim += src[j++];
            const std::string close = ")" + delim + "\"";
            const size_t end = src.find(close, j);
            const int tokLine = line;
            const size_t stop =
                end == std::string::npos ? n : end + close.size();
            for (size_t p = i; p < stop; ++p) {
                if (src[p] == '\n')
                    ++line;
            }
            push(TokKind::String, "<raw-string>", tokLine);
            i = stop;
            lineStart = false;
            continue;
        }

        // String / char literals with escapes. String tokens keep
        // their (un-unescaped) contents — the module-dependency rule
        // reads #include paths from them; char literals stay
        // collapsed. Rules match on TokKind, so a banned identifier
        // inside a string still never fires. An escaped newline (a
        // splice) still advances the line counter.
        if (c == '"' || c == '\'') {
            const char quote = c;
            const int tokLine = line;
            size_t j = i + 1;
            while (j < n && src[j] != quote) {
                if (src[j] == '\\' && j + 1 < n) {
                    if (const size_t splice = spliceLen(src, j)) {
                        ++line;
                        j += splice;
                        continue;
                    }
                    ++j;
                } else if (src[j] == '\n') {
                    ++line; // tolerate unterminated literals
                }
                ++j;
            }
            const size_t contentEnd = j; // closing quote (or n)
            j = j < n ? j + 1 : n;
            push(quote == '"' ? TokKind::String : TokKind::Char,
                 quote == '"'
                     ? src.substr(i + 1, contentEnd - (i + 1))
                     : std::string("<literal>"),
                 tokLine);
            i = j;
            lineStart = false;
            continue;
        }

        if (identStart(c)) {
            size_t j = i;
            while (j < n && identChar(src[j]))
                ++j;
            push(TokKind::Identifier, src.substr(i, j - i), line);
            i = j;
            lineStart = false;
            continue;
        }

        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && i + 1 < n &&
             std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
            size_t j = i;
            while (j < n && numberChar(src[j])) {
                // An exponent sign belongs to the number: 1.5e-3.
                if ((src[j] == 'e' || src[j] == 'E' || src[j] == 'p' ||
                     src[j] == 'P') &&
                    j + 1 < n && (src[j + 1] == '+' || src[j + 1] == '-'))
                    ++j;
                ++j;
            }
            push(TokKind::Number, src.substr(i, j - i), line);
            i = j;
            lineStart = false;
            continue;
        }

        // Multi-char operators, longest match first.
        bool matched = false;
        for (const char *op : kOperators) {
            const size_t len = 2;
            if (i + len <= n && src.compare(i, len, op) == 0) {
                push(TokKind::Punct, op, line);
                i += len;
                matched = true;
                break;
            }
        }
        if (matched) {
            lineStart = false;
            continue;
        }

        push(TokKind::Punct, std::string(1, c), line);
        ++i;
        lineStart = false;
    }
    return out;
}

} // namespace e3::lint
