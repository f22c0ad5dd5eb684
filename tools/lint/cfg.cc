/**
 * @file
 * Function recovery and the per-function statement walk.
 *
 * The parser is deliberately lighter than a C++ front end: it scans
 * the code-token stream for `name ( params ) ... {` definition shapes
 * (skipping ctor-init lists, trailing cv/ref/noexcept/attribute
 * clutter and declarations), then walks each body with a
 * recursive-descent statement grammar that understands if/else,
 * while/for/do, switch/case, try/catch, return/throw/break/continue
 * and nested compounds. Everything else — expression statements,
 * declarations, lambdas, brace initializers — is consumed as one
 * opaque statement, which is exactly the granularity the flow rules
 * need: liveness of lock scopes and try coverage of throws.
 * Preprocessor-conditional arms are walked as one linear sequence
 * (the union of both sides).
 */

#include "lint/lint.hh"

namespace e3::lint {

namespace {

/** Names that look like `name (` but never open a function. */
bool
reservedName(const std::string &s)
{
    static const char *const kReserved[] = {
        "if",       "for",      "while",    "switch",   "catch",
        "return",   "new",      "delete",   "sizeof",   "alignof",
        "decltype", "throw",    "operator", "constexpr", "noexcept",
        "alignas",  "defined",  "template", "requires", "static_assert",
        "case",     "do",       "else",     "goto",
    };
    for (const char *r : kReserved) {
        if (s == r)
            return true;
    }
    return false;
}

bool
ppTok(const FileContext &ctx, size_t i)
{
    const Token &t = ctx.codeTok(i);
    return t.pp || t.kind == TokKind::Directive;
}

/**
 * From the token after a ctor's `:`, skip the member-init list
 * (`name(args), base<T>{args}, ...`) and return the code index of the
 * body '{', or n when the shape is not an init list after all.
 */
size_t
skipCtorInit(const FileContext &ctx, size_t i, size_t n)
{
    while (i < n) {
        const Token &t = ctx.codeTok(i);
        if (t.kind == TokKind::Identifier || isPunctTok(t, "::") ||
            isPunctTok(t, "<") || isPunctTok(t, ">") ||
            isPunctTok(t, ",")) {
            ++i;
            continue;
        }
        if (isPunctTok(t, "(")) {
            const size_t c = matchClose(ctx, i);
            if (c >= n)
                return n;
            i = c + 1;
            continue;
        }
        if (isPunctTok(t, "{")) {
            // Brace-init of a member when the previous token names
            // one; otherwise this is the constructor body.
            if (i >= 1 && (ctx.codeTok(i - 1).kind ==
                               TokKind::Identifier ||
                           isPunctTok(ctx.codeTok(i - 1), ">"))) {
                const size_t c = matchClose(ctx, i);
                if (c >= n)
                    return n;
                i = c + 1;
                continue;
            }
            return i;
        }
        return n;
    }
    return n;
}

/**
 * Record e3::MutexLock/MutexLockPair declarations at statement level
 * in [stmtBegin, stmtEnd) as lock regions living to @p scopeEnd. The
 * body walk calls this with real statement boundaries, so a guard
 * inside a lambda body never leaks a region into the enclosing scope.
 */
void
recordLockDecls(const FileContext &ctx, FlowFunction &fn,
                size_t stmtBegin, size_t stmtEnd, size_t scopeEnd)
{
    // Only depth-zero declarations count: a guard inside a lambda or
    // brace initializer within this statement locks some other scope,
    // not this one.
    int pd = 0, bd = 0, sd = 0;
    for (size_t i = stmtBegin; i < stmtEnd; ++i) {
        const Token &t = ctx.codeTok(i);
        if (t.kind == TokKind::Punct) {
            if (t.text == "(")
                ++pd;
            else if (t.text == ")")
                --pd;
            else if (t.text == "{")
                ++bd;
            else if (t.text == "}")
                --bd;
            else if (t.text == "[")
                ++sd;
            else if (t.text == "]")
                --sd;
            continue;
        }
        if (pd != 0 || bd != 0 || sd != 0)
            continue;
        const bool isLock = isIdentTok(t, "MutexLock");
        const bool isPair = isIdentTok(t, "MutexLockPair");
        if (!isLock && !isPair)
            continue;
        if (i + 2 >= stmtEnd ||
            ctx.codeTok(i + 1).kind != TokKind::Identifier ||
            !isPunctTok(ctx.codeTok(i + 2), "("))
            continue;
        LockRegion region;
        region.begin = stmtEnd; // live from the statement's end
        region.end = scopeEnd;  // to the enclosing scope's close
        region.pair = isPair;
        region.name = ctx.codeTok(i + 1).text;
        region.line = t.line;
        fn.locks.push_back(std::move(region));
    }
}

/**
 * Statement walk over one function body. Each statement is parsed
 * against the close of the scope it sits in, which is where a lock
 * declared by it dies.
 */
struct BodyWalker
{
    const FileContext &ctx;
    FlowFunction &fn;

    bool
    at(size_t i, size_t end, const char *p) const
    {
        return i < end && isPunctTok(ctx.codeTok(i), p);
    }

    bool
    kw(size_t i, size_t end, const char *k) const
    {
        return i < end && isIdentTok(ctx.codeTok(i), k);
    }

    /**
     * Code index just past the `;` that ends the statement starting at
     * @p i, at nesting depth zero. Lambdas, initializer lists and
     * parenthesized subexpressions (which may contain their own `;`,
     * as in a lambda body) nest; a `}` at depth zero means the
     * statement ran into the enclosing scope and is left unconsumed,
     * and so is a `)` at depth zero when @p stopAtParen.
     */
    size_t
    stmtEnd(size_t i, size_t end, bool stopAtParen) const
    {
        size_t j = i;
        int pd = 0, bd = 0, sd = 0;
        while (j < end) {
            const Token &t = ctx.codeTok(j);
            if (t.kind == TokKind::Punct) {
                if (t.text == "(") {
                    ++pd;
                } else if (t.text == ")") {
                    if (pd == 0 && stopAtParen)
                        break;
                    if (pd > 0)
                        --pd;
                } else if (t.text == "{") {
                    ++bd;
                } else if (t.text == "}") {
                    if (bd == 0)
                        break;
                    --bd;
                } else if (t.text == "[") {
                    ++sd;
                } else if (t.text == "]") {
                    if (sd > 0)
                        --sd;
                } else if (t.text == ";" && pd == 0 && bd == 0 &&
                           sd == 0) {
                    ++j;
                    break;
                }
            }
            ++j;
        }
        return j == i ? j + 1 : j; // never stall on a stray close
    }

    /**
     * Expression statements, declarations, lambdas and brace
     * initializers are one opaque statement; only their depth-zero
     * lock declarations matter.
     */
    size_t
    opaqueStmt(size_t i, size_t end, size_t scopeEnd)
    {
        const size_t j = stmtEnd(i, end, true);
        recordLockDecls(ctx, fn, i, j, scopeEnd);
        return j;
    }

    size_t
    parseSeq(size_t i, size_t end, size_t scopeEnd)
    {
        while (i < end && !at(i, end, "}"))
            i = parseStmt(i, end, scopeEnd);
        return i;
    }

    size_t
    parseStmt(size_t i, size_t end, size_t scopeEnd)
    {
        // Preprocessor lines are not statements; both arms of an
        // #if/#else parse as one linear union.
        if (ppTok(ctx, i)) {
            size_t j = i + 1;
            while (j < end && ppTok(ctx, j))
                ++j;
            return j;
        }
        if (at(i, end, "{")) {
            const size_t close = matchClose(ctx, i);
            parseSeq(i + 1, close < end ? close : end, close);
            return close < end ? close + 1 : end;
        }
        if (at(i, end, ";"))
            return i + 1;
        if (kw(i, end, "if"))
            return parseIf(i, end, scopeEnd);
        if (kw(i, end, "while") || kw(i, end, "for"))
            return parseLoop(i, end, scopeEnd);
        if (kw(i, end, "do"))
            return parseDo(i, end, scopeEnd);
        if (kw(i, end, "switch"))
            return parseSwitch(i, end, scopeEnd);
        if (kw(i, end, "try"))
            return parseTry(i, end, scopeEnd);
        if (kw(i, end, "throw"))
            fn.throwSites.push_back(i);
        if (kw(i, end, "return") || kw(i, end, "throw") ||
            kw(i, end, "goto"))
            return stmtEnd(i, end, false);
        if (kw(i, end, "break") || kw(i, end, "continue"))
            return at(i + 1, end, ";") ? i + 2 : i + 1;
        return opaqueStmt(i, end, scopeEnd);
    }

    size_t
    parseIf(size_t i, size_t end, size_t scopeEnd)
    {
        size_t p = i + 1;
        if (kw(p, end, "constexpr"))
            ++p;
        if (!at(p, end, "("))
            return opaqueStmt(i, end, scopeEnd);
        const size_t close = matchClose(ctx, p);
        if (close >= end)
            return opaqueStmt(i, end, scopeEnd);
        const size_t k = parseStmt(close + 1, end, scopeEnd);
        return kw(k, end, "else") ? parseStmt(k + 1, end, scopeEnd) : k;
    }

    /** `while (...) stmt` and `for (...) stmt`. */
    size_t
    parseLoop(size_t i, size_t end, size_t scopeEnd)
    {
        if (!at(i + 1, end, "("))
            return opaqueStmt(i, end, scopeEnd);
        const size_t close = matchClose(ctx, i + 1);
        if (close >= end)
            return opaqueStmt(i, end, scopeEnd);
        return parseStmt(close + 1, end, scopeEnd);
    }

    size_t
    parseDo(size_t i, size_t end, size_t scopeEnd)
    {
        size_t k = parseStmt(i + 1, end, scopeEnd);
        if (kw(k, end, "while") && at(k + 1, end, "(")) {
            const size_t close = matchClose(ctx, k + 1);
            if (close < end) {
                k = close + 1;
                if (at(k, end, ";"))
                    ++k;
            }
        }
        return k;
    }

    size_t
    parseSwitch(size_t i, size_t end, size_t scopeEnd)
    {
        if (!at(i + 1, end, "("))
            return opaqueStmt(i, end, scopeEnd);
        const size_t close = matchClose(ctx, i + 1);
        if (close >= end || !at(close + 1, end, "{"))
            return opaqueStmt(i, end, scopeEnd);
        const size_t bodyClose = matchClose(ctx, close + 1);
        const size_t bend = bodyClose < end ? bodyClose : end;
        size_t k = close + 2;
        while (k < bend) {
            if (kw(k, bend, "case") ||
                (kw(k, bend, "default") && at(k + 1, bend, ":"))) {
                while (k < bend && !isPunctTok(ctx.codeTok(k), ":"))
                    ++k;
                ++k; // past the label's ':'
                continue;
            }
            k = parseStmt(k, bend, bend);
        }
        return bodyClose < end ? bodyClose + 1 : end;
    }

    size_t
    parseTry(size_t i, size_t end, size_t scopeEnd)
    {
        if (!at(i + 1, end, "{"))
            return opaqueStmt(i, end, scopeEnd);
        const size_t open = i + 1;
        const size_t close = matchClose(ctx, open);
        if (close >= end)
            return opaqueStmt(i, end, scopeEnd);
        fn.tryRanges.emplace_back(open, close);
        parseSeq(open + 1, close, close);
        size_t k = close + 1;
        while (kw(k, end, "catch") && at(k + 1, end, "(")) {
            const size_t pclose = matchClose(ctx, k + 1);
            if (pclose >= end || !at(pclose + 1, end, "{"))
                break;
            const size_t bclose = matchClose(ctx, pclose + 1);
            if (bclose >= end)
                break;
            parseSeq(pclose + 2, bclose, bclose);
            k = bclose + 1;
        }
        return k;
    }
};

} // namespace

size_t
matchClose(const FileContext &ctx, size_t openIdx)
{
    const std::string &open = ctx.codeTok(openIdx).text;
    const std::string close =
        open == "(" ? ")" : open == "{" ? "}" : "]";
    int depth = 0;
    for (size_t j = openIdx; j < ctx.code.size(); ++j) {
        const Token &t = ctx.codeTok(j);
        if (t.kind != TokKind::Punct)
            continue;
        if (t.text == open)
            ++depth;
        else if (t.text == close && --depth == 0)
            return j;
    }
    return ctx.code.size();
}

std::vector<FlowFunction>
parseFunctions(const FileContext &ctx)
{
    std::vector<FlowFunction> out;
    const size_t n = ctx.code.size();
    size_t i = 0;
    while (i < n) {
        const Token &t = ctx.codeTok(i);
        if (ppTok(ctx, i) || t.kind != TokKind::Identifier ||
            reservedName(t.text) || i + 1 >= n ||
            !isPunctTok(ctx.codeTok(i + 1), "(")) {
            ++i;
            continue;
        }
        const size_t parClose = matchClose(ctx, i + 1);
        if (parClose >= n) {
            ++i;
            continue;
        }

        // Post-parameter scan: cv/ref/noexcept/override/attribute
        // clutter until the body '{', a ctor-init ':', or evidence
        // this is a declaration/call after all.
        size_t bodyOpen = n;
        size_t j = parClose + 1;
        while (j < n) {
            const Token &h = ctx.codeTok(j);
            if (isPunctTok(h, "{")) {
                bodyOpen = j;
                break;
            }
            if (h.kind == TokKind::Identifier) {
                if (j + 1 < n && isPunctTok(ctx.codeTok(j + 1), "(")) {
                    const size_t c = matchClose(ctx, j + 1);
                    if (c >= n)
                        break;
                    j = c + 1; // noexcept(...) / E3_REQUIRES(...)
                    continue;
                }
                ++j;
                continue;
            }
            if (isPunctTok(h, "->") || isPunctTok(h, "&") ||
                isPunctTok(h, "&&") || isPunctTok(h, "*") ||
                isPunctTok(h, "::") || isPunctTok(h, "<") ||
                isPunctTok(h, ">") || isPunctTok(h, "[") ||
                isPunctTok(h, "]")) {
                ++j;
                continue;
            }
            if (isPunctTok(h, ":")) {
                bodyOpen = skipCtorInit(ctx, j + 1, n);
                break;
            }
            break;
        }
        if (bodyOpen >= n) {
            ++i;
            continue;
        }
        const size_t bodyClose = matchClose(ctx, bodyOpen);
        if (bodyClose >= n) {
            ++i;
            continue;
        }

        FlowFunction fn;
        fn.name = t.text;
        fn.line = t.line;
        if (i >= 2 && isPunctTok(ctx.codeTok(i - 1), "::") &&
            ctx.codeTok(i - 2).kind == TokKind::Identifier)
            fn.qualifier = ctx.codeTok(i - 2).text;

        // Header: walk back to the previous statement/scope boundary;
        // what lies between is the return type, specifiers, template
        // header and attributes.
        size_t hb = i;
        while (hb > 0) {
            const Token &p = ctx.codeTok(hb - 1);
            if (ppTok(ctx, hb - 1) || isPunctTok(p, ";") ||
                isPunctTok(p, "{") || isPunctTok(p, "}") ||
                isPunctTok(p, ":") || isPunctTok(p, ",") ||
                isPunctTok(p, "(") || isPunctTok(p, ")"))
                break;
            --hb;
        }
        for (size_t h = hb; h < i; ++h)
            fn.hot = fn.hot || isIdentTok(ctx.codeTok(h), "E3_HOT");
        fn.bodyBegin = bodyOpen + 1;
        fn.bodyEnd = bodyClose;

        BodyWalker{ctx, fn}.parseSeq(fn.bodyBegin, fn.bodyEnd,
                                     fn.bodyEnd);
        out.push_back(std::move(fn));
        i = bodyClose + 1;
    }
    return out;
}

} // namespace e3::lint
