/**
 * @file
 * e3_lint driver: policy evaluation, waiver filtering, file
 * collection, and output formatting. The linter core is kept free of
 * process concerns (no exit(), no stdout) so tests can drive it on
 * in-memory snippets; tools/e3_lint.cc owns the CLI.
 */

#include "lint/lint.hh"

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>

#include "common/json.hh"

namespace e3::lint {

namespace {

bool
hasPrefix(const std::string &path, const std::string &prefix)
{
    if (prefix.empty())
        return true;
    if (path.rfind(prefix, 0) != 0)
        return false;
    // "src/nn" must not match "src/nn_extras/foo.cc".
    return path.size() == prefix.size() ||
           path[prefix.size()] == '/' || prefix.back() == '/';
}

bool
lintableExtension(const std::string &path)
{
    static const char *const kExts[] = {".cc", ".hh", ".cpp", ".hpp",
                                        ".h"};
    for (const char *ext : kExts) {
        const size_t len = std::string(ext).size();
        if (path.size() > len &&
            path.compare(path.size() - len, len, ext) == 0)
            return true;
    }
    return false;
}

/**
 * The waiver tokens of a `//` comment that opens with "e3-lint:": the
 * first word after the marker, then each following word that ends in
 * "-ok" (`// e3-lint: rand-ok stale-waiver-ok -- why`). Empty for any
 * other comment, such as prose that mentions the marker.
 */
std::vector<std::string>
waiverTokens(const std::string &comment)
{
    static const std::string kMarker = "e3-lint:";
    if (comment.rfind("//", 0) != 0)
        return {};
    const size_t start = comment.find_first_not_of(" \t", 2);
    if (start == std::string::npos ||
        comment.compare(start, kMarker.size(), kMarker) != 0)
        return {};
    std::istringstream words(comment.substr(start + kMarker.size()));
    std::vector<std::string> out;
    std::string word;
    while (words >> word) {
        const bool okSuffix =
            word.size() > 3 &&
            word.compare(word.size() - 3, 3, "-ok") == 0;
        if (!out.empty() && !okSuffix)
            break;
        out.push_back(word);
    }
    return out;
}

} // namespace

std::set<int>
FileContext::waivedLines(const std::string &waiverToken) const
{
    std::set<int> lines;
    int prevCodeLine = 0; // last line holding a code token so far
    size_t codeIdx = 0;
    for (size_t i = 0; i < tokens.size(); ++i) {
        while (codeIdx < code.size() && code[codeIdx] < i) {
            prevCodeLine = tokens[code[codeIdx]].line;
            ++codeIdx;
        }
        const Token &t = tokens[i];
        if (t.kind != TokKind::Comment)
            continue;
        const std::vector<std::string> named = waiverTokens(t.text);
        if (std::find(named.begin(), named.end(), waiverToken) ==
            named.end())
            continue;
        lines.insert(t.line);
        // A standalone waiver comment (no code before it on its own
        // line) also covers the line that follows.
        if (prevCodeLine != t.line)
            lines.insert(t.line + 1);
    }
    return lines;
}

void
Policy::add(const std::string &pathPrefix, const std::string &ruleId,
            bool enabled)
{
    directives_.push_back(Directive{pathPrefix, ruleId, enabled});
}

void
Policy::skipTree(const std::string &pathPrefix)
{
    skips_.push_back(pathPrefix);
}

bool
Policy::enabled(const std::string &ruleId,
                const std::string &path) const
{
    bool on = true;
    for (const Directive &d : directives_) {
        if (!d.ruleId.empty() && d.ruleId != ruleId)
            continue;
        if (hasPrefix(path, d.prefix))
            on = d.enabled;
    }
    return on;
}

bool
Policy::skipped(const std::string &path) const
{
    return std::any_of(skips_.begin(), skips_.end(),
                       [&](const std::string &prefix) {
                           return hasPrefix(path, prefix);
                       });
}

Policy
defaultPolicy()
{
    Policy p;
    // Determinism-scoped rules are off by default and switched on for
    // the evolve/evaluate path. src/env joins the issue's five: lane
    // episode dynamics feed fitness directly.
    static const char *const kDeterminismDirs[] = {
        "src/neat", "src/nn", "src/e3", "src/runtime", "src/persist",
        "src/env"};
    p.add("", "E3L002", false);
    p.add("", "E3L004", false);
    for (const char *dir : kDeterminismDirs) {
        p.add(dir, "E3L002", true);
        p.add(dir, "E3L004", true);
    }

    // random_device: the rng module is its one sanctioned home.
    p.add("src/common/rng.hh", "E3L003", false);
    p.add("src/common/rng.cc", "E3L003", false);

    // Library-exit rule (e3_fatal, throw): src/ only — tools,
    // benches, examples and tests are application code where fatal()
    // or an escaping exception is the right call.
    p.add("", "E3L008", false);
    p.add("src", "E3L008", true);
    p.add("src/common/logging.hh", "E3L008", false); // defines it

    // Lock discipline: the annotated wrappers are mandatory
    // everywhere except src/common, where they are implemented.
    p.add("src/common", "E3L010", false);

    // Thread spawning is concentrated in the pool and the server.
    p.add("src/runtime", "E3L011", false);
    p.add("src/serve", "E3L011", false);

    // Explicit memory orders: determinism dirs plus the concurrent
    // observability/common layers, where orderings carry real intent.
    p.add("", "E3L012", false);
    for (const char *dir : kDeterminismDirs)
        p.add(dir, "E3L012", true);
    p.add("src/obs", "E3L012", true);
    p.add("src/common", "E3L012", true);

    // Deliberately-broken lint fixtures live here.
    p.skipTree("tests/fixtures");
    return p;
}

FileContext
buildFileContext(const std::string &path, const std::string &source)
{
    FileContext ctx;
    ctx.path = path;
    ctx.tokens = tokenize(source);
    ctx.code.reserve(ctx.tokens.size());
    for (size_t i = 0; i < ctx.tokens.size(); ++i) {
        if (ctx.tokens[i].kind != TokKind::Comment)
            ctx.code.push_back(i);
    }
    return ctx;
}

std::vector<Diagnostic>
lintSource(const std::string &path, const std::string &source,
           const Policy &policy)
{
    const FileContext ctx = buildFileContext(path, source);

    std::vector<Diagnostic> out;
    // Pre-waiver fired lines per waiver token: the stale-waiver rule
    // needs to know what each rule found before waivers filtered it.
    std::map<std::string, std::set<int>> firedByToken;
    const Rule *staleRule = nullptr;
    for (const auto &rule : allRules()) {
        if (!policy.enabled(rule->id(), path))
            continue;
        if (rule->id() == "E3L018") {
            staleRule = rule.get();
            continue;
        }
        std::vector<Diagnostic> found;
        rule->check(ctx, found);
        std::set<int> &fired = firedByToken[rule->waiver()];
        for (const Diagnostic &d : found)
            fired.insert(d.line);
        if (found.empty())
            continue;
        const std::set<int> waived = ctx.waivedLines(rule->waiver());
        for (Diagnostic &d : found) {
            if (!waived.count(d.line))
                out.push_back(std::move(d));
        }
    }

    // E3L018: an e3-lint waiver naming an enabled rule's token must
    // suppress at least one of that rule's pre-waiver findings on a
    // line it covers; otherwise the waiver is stale. Tokens of rules
    // disabled at this path are left alone — their waivers document
    // intent for paths where the rule does apply. A waiver token that
    // names no rule at all (a typo, or a retired rule's) is reported
    // wherever it stands: it silences nothing. waiverTokens() decides
    // what a waiver is, here and in waivedLines().
    if (staleRule != nullptr) {
        const std::set<int> staleWaived =
            ctx.waivedLines(staleRule->waiver());
        int prevCodeLine = 0;
        size_t codeIdx = 0;
        for (size_t i = 0; i < ctx.tokens.size(); ++i) {
            while (codeIdx < ctx.code.size() && ctx.code[codeIdx] < i) {
                prevCodeLine = ctx.tokens[ctx.code[codeIdx]].line;
                ++codeIdx;
            }
            const Token &t = ctx.tokens[i];
            if (t.kind != TokKind::Comment ||
                staleWaived.count(t.line) != 0)
                continue;
            const bool standalone = prevCodeLine != t.line;
            for (const std::string &token : waiverTokens(t.text)) {
                const auto rule = std::find_if(
                    allRules().begin(), allRules().end(),
                    [&](const std::unique_ptr<Rule> &r) {
                        return r->waiver() == token;
                    });
                if (rule == allRules().end()) {
                    out.push_back(Diagnostic{
                        ctx.path, t.line, staleRule->id(),
                        staleRule->name(),
                        "waiver token '" + token +
                            "' names no e3-lint rule"});
                    continue;
                }
                // Only rules checked at this path have an entry.
                const auto fired = firedByToken.find(token);
                if (fired == firedByToken.end())
                    continue;
                const bool live =
                    fired->second.count(t.line) != 0 ||
                    (standalone && fired->second.count(t.line + 1) != 0);
                if (!live) {
                    out.push_back(Diagnostic{
                        ctx.path, t.line, staleRule->id(),
                        staleRule->name(),
                        "waiver '" + token +
                            "' no longer suppresses any " +
                            (*rule)->id() + " finding on the lines "
                            "it covers"});
                }
            }
        }
    }
    std::sort(out.begin(), out.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.ruleId < b.ruleId;
              });
    return out;
}

std::vector<std::string>
collectSources(const std::string &rootDir,
               const std::vector<std::string> &roots,
               const Policy &policy)
{
    namespace fs = std::filesystem;
    std::vector<std::string> out;
    const fs::path base(rootDir);
    for (const std::string &root : roots) {
        const fs::path abs = base / root;
        std::error_code ec;
        if (fs::is_directory(abs, ec)) {
            for (fs::recursive_directory_iterator
                     it(abs, fs::directory_options::skip_permission_denied,
                        ec),
                 end;
                 it != end; it.increment(ec)) {
                if (ec)
                    break;
                if (!it->is_regular_file(ec))
                    continue;
                const std::string rel =
                    fs::relative(it->path(), base, ec).generic_string();
                if (lintableExtension(rel) && !policy.skipped(rel))
                    out.push_back(rel);
            }
        } else if (fs::is_regular_file(abs, ec)) {
            // Explicitly named files are always linted, even inside
            // skipped trees (the fixture process test relies on this).
            out.push_back(fs::path(root).generic_string());
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::string
toJson(const std::vector<Diagnostic> &diags)
{
    std::ostringstream oss;
    oss << "{\"diagnostics\":[";
    for (size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &d = diags[i];
        if (i)
            oss << ',';
        oss << "{\"file\":" << jsonQuote(d.file)
            << ",\"line\":" << d.line << ",\"rule\":\"" << d.ruleId
            << "\"" << ",\"name\":\"" << d.ruleName << "\""
            << ",\"message\":" << jsonQuote(d.message) << "}";
    }
    oss << "],\"count\":" << diags.size() << "}\n";
    return oss.str();
}

std::string
ruleCatalog()
{
    std::ostringstream oss;
    for (const auto &rule : allRules()) {
        oss << rule->id() << "  " << rule->name() << "\n"
            << "    waiver: // e3-lint: " << rule->waiver() << "\n"
            << "    " << rule->summary() << "\n";
    }
    return oss.str();
}

} // namespace e3::lint
