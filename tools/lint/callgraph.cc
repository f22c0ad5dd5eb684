/**
 * @file
 * The cross-TU call summary: pass one over the tree harvests one
 * FunctionSummary per recovered definition ({blocks, allocates,
 * callees}); pass two hands the merged CallSummary to every file's
 * flow rules. Names are unqualified — overloads and same-name members
 * of different classes merge conservatively (see CallSummary::add).
 *
 * `blocks` is transitively closed over repo-local calls in
 * finalize(); `allocates` stays direct-only by design (see lint.hh).
 */

#include "lint/lint.hh"

#include <algorithm>
#include <set>

namespace e3::lint {

namespace {

bool
memberAccessBefore(const FileContext &ctx, size_t i)
{
    return i >= 1 && (isPunctTok(ctx.codeTok(i - 1), ".") ||
                      isPunctTok(ctx.codeTok(i - 1), "->"));
}

bool
callAt(const FileContext &ctx, size_t i)
{
    return i + 1 < ctx.code.size() &&
           ctx.codeTok(i).kind == TokKind::Identifier &&
           isPunctTok(ctx.codeTok(i + 1), "(");
}

bool
inList(const std::string &s, const char *const *names, size_t count)
{
    for (size_t k = 0; k < count; ++k) {
        if (s == names[k])
            return true;
    }
    return false;
}

/** Keywords that look like calls when followed by '('. */
bool
controlName(const std::string &s)
{
    static const char *const kControl[] = {
        "if",     "for",      "while",    "switch", "catch",
        "return", "sizeof",   "alignof",  "decltype", "new",
        "delete", "constexpr", "noexcept", "static_assert",
        "defined", "alignas",
    };
    return inList(s, kControl, sizeof kControl / sizeof *kControl);
}

} // namespace

std::vector<std::pair<size_t, size_t>>
lambdaBodies(const FileContext &ctx, const FlowFunction &fn)
{
    std::vector<std::pair<size_t, size_t>> out;
    for (size_t i = fn.bodyBegin; i < fn.bodyEnd; ++i) {
        if (!isPunctTok(ctx.codeTok(i), "["))
            continue;
        const size_t captureClose = matchClose(ctx, i);
        if (captureClose >= fn.bodyEnd)
            continue;
        size_t j = captureClose + 1;
        // Right after the capture list: a parameter list, the body
        // itself, or a specifier. Anything else (an attribute before a
        // type, an array subscript in an expression) is not a lambda.
        if (j >= fn.bodyEnd)
            break;
        const Token &next = ctx.codeTok(j);
        const bool lambdaish =
            isPunctTok(next, "(") || isPunctTok(next, "{") ||
            isIdentTok(next, "mutable") ||
            isIdentTok(next, "noexcept") || isPunctTok(next, "->");
        if (!lambdaish)
            continue;
        if (isPunctTok(next, "(")) {
            j = matchClose(ctx, j);
            if (j >= fn.bodyEnd)
                break;
            ++j;
        }
        // Skip specifiers / a trailing return type to the body brace —
        // but only over tokens a lambda header can contain, so a plain
        // subscript-then-call (`table[i](x); ...`) never swallows a
        // later unrelated brace.
        size_t limit = 0;
        bool headerish = true;
        while (j < fn.bodyEnd && headerish &&
               !isPunctTok(ctx.codeTok(j), "{") && limit++ < 16) {
            const Token &h = ctx.codeTok(j);
            headerish = h.kind == TokKind::Identifier ||
                        isPunctTok(h, "->") || isPunctTok(h, "::") ||
                        isPunctTok(h, "<") || isPunctTok(h, ">") ||
                        isPunctTok(h, "*") || isPunctTok(h, "&");
            if (headerish)
                ++j;
        }
        if (j >= fn.bodyEnd || !isPunctTok(ctx.codeTok(j), "{"))
            continue;
        const size_t close = matchClose(ctx, j);
        if (close >= fn.bodyEnd)
            break;
        out.emplace_back(j, close);
        i = j; // nested lambdas inside still get their own entries
    }
    return out;
}

bool
directAllocationAt(const FileContext &ctx, size_t i)
{
    const Token &t = ctx.codeTok(i);
    if (t.kind != TokKind::Identifier)
        return false;
    if (t.text == "new") {
        // `operator new` declarations and member accesses named `new`
        // are not allocation expressions.
        return !(i >= 1 && (memberAccessBefore(ctx, i) ||
                            isIdentTok(ctx.codeTok(i - 1),
                                       "operator")));
    }
    if (!callAt(ctx, i))
        return false;
    static const char *const kAllocFns[] = {
        "malloc",      "calloc",      "realloc", "strdup",
        "aligned_alloc", "make_unique", "make_shared",
    };
    if (inList(t.text, kAllocFns, sizeof kAllocFns / sizeof *kAllocFns))
        return true;
    static const char *const kGrowth[] = {
        "push_back", "emplace_back", "emplace", "push_front",
        "resize",    "reserve",      "insert",  "append",
    };
    return memberAccessBefore(ctx, i) &&
           inList(t.text, kGrowth, sizeof kGrowth / sizeof *kGrowth);
}

bool
directBlockingAt(const FileContext &ctx, size_t i)
{
    const Token &t = ctx.codeTok(i);
    if (!callAt(ctx, i))
        return false;
    if (memberAccessBefore(ctx, i) &&
        (t.text == "wait" || t.text == "wait_for" ||
         t.text == "wait_until" || t.text == "join"))
        return true;
    static const char *const kBlocking[] = {
        "sleep_for", "sleep_until", "nanosleep", "usleep",
        "fopen",     "fread",       "fwrite",    "fflush",
        "fsync",     "fclose",      "fgets",     "system",
        "recv",      "send",        "accept",    "connect",
        "poll",      "select",
    };
    return inList(t.text, kBlocking,
                  sizeof kBlocking / sizeof *kBlocking);
}

std::vector<FunctionSummary>
summarizeSource(const std::string &path, const std::string &source)
{
    const FileContext ctx = buildFileContext(path, source, nullptr);
    std::vector<FunctionSummary> out;
    out.reserve(ctx.functions.size());
    for (const FlowFunction &fn : ctx.functions) {
        FunctionSummary s;
        s.name = fn.name;
        std::set<std::string> callees;
        for (size_t i = fn.bodyBegin; i < fn.bodyEnd; ++i) {
            if (directBlockingAt(ctx, i))
                s.blocks = true;
            if (directAllocationAt(ctx, i))
                s.allocates = true;
            if (callAt(ctx, i) && !controlName(ctx.codeTok(i).text))
                callees.insert(ctx.codeTok(i).text);
        }
        s.calls.assign(callees.begin(), callees.end());
        out.push_back(std::move(s));
    }
    return out;
}

void
CallSummary::add(const FunctionSummary &fn)
{
    auto it = byName_.find(fn.name);
    if (it == byName_.end()) {
        byName_.emplace(fn.name, fn);
        return;
    }
    FunctionSummary &merged = it->second;
    merged.blocks = merged.blocks || fn.blocks;
    // `allocates` merges all-of, unlike any-of `blocks`: E3L015 fires
    // on a callee only when EVERY definition of that name allocates.
    // Common member names (add, record) collide across classes, and
    // any-of would flag every innocent `agg.add(...)` on the hot path;
    // a collision voids the signal instead of flooding it.
    merged.allocates = merged.allocates && fn.allocates;
    std::set<std::string> callees(merged.calls.begin(),
                                  merged.calls.end());
    callees.insert(fn.calls.begin(), fn.calls.end());
    merged.calls.assign(callees.begin(), callees.end());
}

void
CallSummary::finalize()
{
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto &entry : byName_) {
            FunctionSummary &fn = entry.second;
            if (fn.blocks)
                continue;
            for (const std::string &callee : fn.calls) {
                const auto it = byName_.find(callee);
                if (it != byName_.end() && it->second.blocks) {
                    fn.blocks = true;
                    changed = true;
                    break;
                }
            }
        }
    }
}

bool
CallSummary::blocks(const std::string &name) const
{
    const auto it = byName_.find(name);
    return it != byName_.end() && it->second.blocks;
}

bool
CallSummary::allocates(const std::string &name) const
{
    const auto it = byName_.find(name);
    return it != byName_.end() && it->second.allocates;
}

} // namespace e3::lint
