/**
 * @file
 * The e3_lint rule registry.
 *
 * Every rule is a small pass over one file's token stream. Rules are
 * conservative approximations by design — a linter without semantic
 * analysis cannot prove "this loop iterates an unordered container",
 * so E3L004 flags any unordered-container use in determinism-critical
 * directories and lets an audited `// e3-lint: ordered-ok` waiver
 * record why a specific use is safe. The full catalog, the waiver
 * policy and each rule's rationale live in DESIGN.md §10.
 */

#include "lint/lint.hh"

#include <algorithm>

namespace e3::lint {

namespace {

bool
isIdent(const Token &t, const char *text)
{
    return t.kind == TokKind::Identifier && t.text == text;
}

bool
isPunct(const Token &t, const char *text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

/** Is code token i preceded by `std ::` (or just `::`)? */
bool
stdQualified(const FileContext &ctx, size_t i)
{
    if (i < 1 || !isPunct(ctx.codeTok(i - 1), "::"))
        return false;
    return i < 2 || isIdent(ctx.codeTok(i - 2), "std");
}

/**
 * E3L001 — libc random number generators.
 *
 * rand()/srand() share hidden global state, have terrible statistical
 * quality, and (worse, here) seed from whatever the call site felt
 * like. Every draw in this codebase must come from an explicit
 * e3::Rng so streams are a pure function of the experiment seed.
 */
class NoStdRand : public Rule
{
  public:
    NoStdRand()
        : Rule("E3L001", "no-std-rand", "rand-ok",
               "libc rand/srand/rand_r/drand48 are banned; draw from "
               "an explicit e3::Rng stream instead")
    {
    }

    void
    check(const FileContext &ctx, std::vector<Diagnostic> &out) const
        override
    {
        static const char *const kBanned[] = {"rand", "srand", "rand_r",
                                              "drand48", "lrand48"};
        for (size_t i = 0; i < ctx.code.size(); ++i) {
            const Token &t = ctx.codeTok(i);
            if (t.kind != TokKind::Identifier)
                continue;
            const bool banned =
                std::any_of(std::begin(kBanned), std::end(kBanned),
                            [&](const char *b) { return t.text == b; });
            if (!banned)
                continue;
            // Require a call or std:: qualification so a local
            // variable named `rand` does not fire.
            const bool call = i + 1 < ctx.code.size() &&
                              isPunct(ctx.codeTok(i + 1), "(");
            if (call || stdQualified(ctx, i)) {
                out.push_back(diag(ctx, t.line,
                                   "'" + t.text +
                                       "' draws from hidden global "
                                       "state; use e3::Rng"));
            }
        }
    }
};

/**
 * E3L002 — wall-clock reads in determinism-critical code.
 *
 * time(nullptr) seeding and chrono ::now() reads are how runs become
 * irreproducible. In the evolve/evaluate path the only sanctioned
 * clock is the modeled timing layer; real-time measurement belongs in
 * common/timing and src/obs. Measurement-only sites (e.g. the thread
 * pool's idle accounting) carry a wall-clock-ok waiver.
 */
class NoWallClock : public Rule
{
  public:
    NoWallClock()
        : Rule("E3L002", "no-wall-clock", "wall-clock-ok",
               "wall-clock reads (time(), clock(), chrono ::now(), "
               "gettimeofday) are banned in determinism-critical "
               "directories")
    {
    }

    void
    check(const FileContext &ctx, std::vector<Diagnostic> &out) const
        override
    {
        for (size_t i = 0; i < ctx.code.size(); ++i) {
            const Token &t = ctx.codeTok(i);
            if (t.kind != TokKind::Identifier)
                continue;
            const bool call = i + 1 < ctx.code.size() &&
                              isPunct(ctx.codeTok(i + 1), "(");
            const bool clockFn =
                call && (t.text == "time" || t.text == "clock" ||
                         t.text == "gettimeofday" ||
                         t.text == "localtime" || t.text == "mktime");
            const bool chronoNow =
                call && t.text == "now" && i >= 1 &&
                isPunct(ctx.codeTok(i - 1), "::");
            if (clockFn || chronoNow) {
                out.push_back(
                    diag(ctx, t.line,
                         "wall-clock read '" + t.text +
                             "' in a determinism-critical path"));
            }
        }
    }
};

/**
 * E3L003 — std::random_device outside common/rng.
 *
 * random_device is the canonical "seed from entropy" footgun: one call
 * and the run is unreproducible. Only the rng module may ever touch
 * it (it currently does not — seeds always come from configuration).
 */
class NoRandomDevice : public Rule
{
  public:
    NoRandomDevice()
        : Rule("E3L003", "no-random-device", "random-device-ok",
               "std::random_device is banned outside common/rng; "
               "seeds come from configuration")
    {
    }

    void
    check(const FileContext &ctx, std::vector<Diagnostic> &out) const
        override
    {
        for (size_t i = 0; i < ctx.code.size(); ++i) {
            const Token &t = ctx.codeTok(i);
            if (isIdent(t, "random_device")) {
                out.push_back(diag(
                    ctx, t.line,
                    "std::random_device makes runs unreproducible"));
            }
        }
    }
};

/**
 * E3L004 — unordered containers in determinism-critical directories.
 *
 * unordered_map/unordered_set iteration order depends on the standard
 * library, the hash seed and the insertion history; one range-for in
 * the evolve path and reproduce() draws RNG in a different order on a
 * different libstdc++. Without semantic analysis "declares" is the
 * conservative proxy for "iterates": any unordered-container use in
 * these directories needs an ordered-ok waiver stating why its
 * iteration order can never reach an RNG draw or an output.
 */
class NoUnorderedIter : public Rule
{
  public:
    NoUnorderedIter()
        : Rule("E3L004", "no-unordered-iter", "ordered-ok",
               "unordered_map/unordered_set are banned in "
               "determinism-critical directories (iteration order is "
               "implementation-defined)")
    {
    }

    void
    check(const FileContext &ctx, std::vector<Diagnostic> &out) const
        override
    {
        static const char *const kBanned[] = {
            "unordered_map", "unordered_set", "unordered_multimap",
            "unordered_multiset"};
        for (size_t i = 0; i < ctx.code.size(); ++i) {
            const Token &t = ctx.codeTok(i);
            if (t.kind != TokKind::Identifier)
                continue;
            for (const char *b : kBanned) {
                if (t.text == b) {
                    out.push_back(
                        diag(ctx, t.line,
                             "'" + t.text +
                                 "' in a determinism-critical "
                                 "directory; use std::map or a "
                                 "sorted vector"));
                    break;
                }
            }
        }
    }
};

/**
 * E3L005 — ordered containers keyed by pointer.
 *
 * std::map<T*, ...> iterates in address order, and addresses change
 * run to run (ASLR, allocation history). Key by a stable id — genome
 * key, species id, name — never by pointer.
 */
class NoPointerKey : public Rule
{
  public:
    NoPointerKey()
        : Rule("E3L005", "no-pointer-key", "pointer-key-ok",
               "std::map/std::set keyed by a pointer iterate in "
               "address order, which differs run to run; key by a "
               "stable id")
    {
    }

    void
    check(const FileContext &ctx, std::vector<Diagnostic> &out) const
        override
    {
        static const char *const kContainers[] = {"map", "set",
                                                  "multimap",
                                                  "multiset"};
        for (size_t i = 0; i + 1 < ctx.code.size(); ++i) {
            const Token &t = ctx.codeTok(i);
            if (t.kind != TokKind::Identifier ||
                !isPunct(ctx.codeTok(i + 1), "<"))
                continue;
            const bool container = std::any_of(
                std::begin(kContainers), std::end(kContainers),
                [&](const char *c) { return t.text == c; });
            if (!container)
                continue;
            // Scan the first template argument (up to a ',' or the
            // matching '>' at depth 1) for a raw pointer declarator.
            int depth = 1;
            for (size_t j = i + 2;
                 j < ctx.code.size() && depth > 0; ++j) {
                const Token &a = ctx.codeTok(j);
                if (isPunct(a, "<"))
                    ++depth;
                else if (isPunct(a, ">"))
                    --depth;
                else if (depth == 1 && isPunct(a, ","))
                    break;
                else if (depth == 1 && isPunct(a, "*")) {
                    out.push_back(
                        diag(ctx, t.line,
                             "'" + t.text +
                                 "' keyed by a pointer iterates in "
                                 "address order"));
                    break;
                }
                else if (isPunct(a, ";") || isPunct(a, "{"))
                    break; // not a template argument list after all
            }
        }
    }
};

/**
 * E3L007 — headers must open with an include guard.
 *
 * Accepts either `#pragma once` or a classic `#ifndef X` / `#define X`
 * pair as the first preprocessor business of the file (this repo uses
 * the classic style; both are machine-checkable).
 */
class HeaderGuard : public Rule
{
  public:
    HeaderGuard()
        : Rule("E3L007", "header-guard", "header-guard-ok",
               "headers must open with #pragma once or a matching "
               "#ifndef/#define guard")
    {
    }

    void
    check(const FileContext &ctx, std::vector<Diagnostic> &out) const
        override
    {
        const bool header =
            ctx.path.size() > 3 &&
            (ctx.path.rfind(".hh") == ctx.path.size() - 3 ||
             ctx.path.rfind(".hpp") == ctx.path.size() - 4 ||
             ctx.path.rfind(".h") == ctx.path.size() - 2);
        if (!header || ctx.code.empty())
            return;
        const auto &c = ctx.code;
        const Token &first = ctx.tokens[c[0]];
        if (first.kind == TokKind::Directive) {
            if (first.text == "pragma" && c.size() > 1 &&
                isIdent(ctx.tokens[c[1]], "once"))
                return;
            if (first.text == "ifndef" && c.size() > 3 &&
                ctx.tokens[c[1]].kind == TokKind::Identifier &&
                ctx.tokens[c[2]].kind == TokKind::Directive &&
                ctx.tokens[c[2]].text == "define" &&
                ctx.tokens[c[3]].text == ctx.tokens[c[1]].text)
                return;
        }
        out.push_back(diag(ctx, 1,
                           "header is not guarded (#pragma once or "
                           "#ifndef/#define pair)"));
    }
};

/**
 * E3L008 — e3_fatal or throw in library code.
 *
 * Library code (src/) has no business calling exit() or throwing: a
 * user-caused error must surface as Result<T>/Status so embedding
 * applications (and the checkpoint-resume path, which degrades errors
 * to warnings) can decide. An exception rides a control path no caller
 * handles. e3_panic/e3_assert stay legal — an internal invariant
 * violation has no meaningful recovery. Pre-existing app-boundary
 * sites carry audited fatal-ok waivers until they are ported.
 */
class NoFatalInLib : public Rule
{
  public:
    NoFatalInLib()
        : Rule("E3L008", "no-fatal-in-lib", "fatal-ok",
               "e3_fatal (exit(1)) or throw in library code; return "
               "Result<T>/Status and keep process exit at the app "
               "boundary")
    {
    }

    void
    check(const FileContext &ctx, std::vector<Diagnostic> &out) const
        override
    {
        for (size_t i = 0; i < ctx.code.size(); ++i) {
            const Token &t = ctx.codeTok(i);
            if (isIdent(t, "e3_fatal")) {
                out.push_back(diag(ctx, t.line,
                                   "library code exits the process; "
                                   "return Result<T> instead"));
            } else if (isIdent(t, "throw")) {
                out.push_back(diag(ctx, t.line,
                                   "library code throws; return "
                                   "Status/Result instead"));
            }
        }
    }
};

/**
 * E3L009 — module dependency layering under src/.
 *
 * The build encodes a strict module DAG (common at the bottom, the e3
 * platform at the top); one stray `#include "e3/..."` from a leaf
 * module and the layering — and with it, what the verifier may verify
 * and what neat/nn may know about — silently erodes. The rule reads
 * every quoted #include in files under src/<module>/ and checks the
 * included module against an allow-list mirroring the CMake link
 * graph. Genuinely sanctioned exceptions carry a layering-ok waiver.
 */
class ModuleDeps : public Rule
{
  public:
    ModuleDeps()
        : Rule("E3L009", "module-deps", "layering-ok",
               "#include crossing the src/ module DAG (e.g. nn "
               "including e3); depend only on lower layers")
    {
    }

    /** Allowed quoted-include targets per src module (self implied). */
    struct ModuleRule
    {
        const char *module;
        std::vector<const char *> allowed;
    };

    static const std::vector<ModuleRule> &
    table()
    {
        // Keep in sync with target_link_libraries in src/CMakeLists.txt
        // and the DAG documented in DESIGN.md §11.
        static const std::vector<ModuleRule> t = {
            {"common", {}},
            {"obs", {"common"}},
            {"env", {"common", "obs"}},
            {"nn", {"common"}},
            {"mlp", {"common"}},
            {"neat", {"common", "nn", "obs"}},
            {"rl", {"common", "env", "mlp", "obs"}},
            {"inax", {"common", "nn", "obs"}},
            {"runtime", {"common", "env", "obs"}},
            {"verify", {"common", "env", "inax", "neat", "nn", "obs"}},
            {"persist", {"common", "neat", "nn", "obs", "verify"}},
            {"serve",
             {"common", "env", "neat", "nn", "obs", "persist",
              "verify"}},
            {"e3",
             {"common", "env", "inax", "mlp", "neat", "nn", "obs",
              "persist", "rl", "runtime", "verify"}},
        };
        return t;
    }

    static const ModuleRule *
    findModule(const std::string &name)
    {
        for (const ModuleRule &m : table()) {
            if (name == m.module)
                return &m;
        }
        return nullptr;
    }

    void
    check(const FileContext &ctx, std::vector<Diagnostic> &out) const
        override
    {
        // Only files under src/<module>/ participate; tools, tests,
        // benches and examples may include anything.
        if (ctx.path.rfind("src/", 0) != 0)
            return;
        const size_t slash = ctx.path.find('/', 4);
        if (slash == std::string::npos)
            return;
        const std::string own = ctx.path.substr(4, slash - 4);
        const ModuleRule *rule = findModule(own);
        if (!rule)
            return; // unknown module: nothing to enforce yet

        for (size_t i = 0; i + 1 < ctx.code.size(); ++i) {
            const Token &t = ctx.codeTok(i);
            if (t.kind != TokKind::Directive || t.text != "include")
                continue;
            const Token &path = ctx.codeTok(i + 1);
            if (path.kind != TokKind::String)
                continue; // <system> includes are not module paths
            const size_t sep = path.text.find('/');
            if (sep == std::string::npos)
                continue;
            const std::string target = path.text.substr(0, sep);
            if (target == own || !findModule(target))
                continue;
            const bool allowed = std::any_of(
                rule->allowed.begin(), rule->allowed.end(),
                [&](const char *a) { return target == a; });
            if (!allowed) {
                out.push_back(
                    diag(ctx, path.line,
                         "src/" + own + " must not include \"" +
                             path.text + "\": '" + target +
                             "' is not among its allowed "
                             "dependencies"));
            }
        }
    }
};

/**
 * E3L010 — raw standard mutex primitives.
 *
 * std::mutex/std::lock_guard/std::unique_lock carry no thread-safety
 * annotations, so clang's -Wthread-safety analysis cannot see which
 * data they guard. All locking goes through the annotated e3::Mutex /
 * e3::MutexLock wrappers (common/thread_annotations.hh); only
 * src/common may touch the raw primitives, because that is where the
 * wrappers are built.
 */
class NoRawMutex : public Rule
{
  public:
    NoRawMutex()
        : Rule("E3L010", "no-raw-mutex", "raw-mutex-ok",
               "raw std::mutex/std::lock_guard/std::unique_lock are "
               "banned outside src/common; use the annotated "
               "e3::Mutex/e3::MutexLock wrappers")
    {
    }

    void
    check(const FileContext &ctx, std::vector<Diagnostic> &out) const
        override
    {
        static const char *const kBanned[] = {
            "mutex",           "timed_mutex",
            "recursive_mutex", "shared_mutex",
            "lock_guard",      "unique_lock",
            "scoped_lock",     "condition_variable",
            "condition_variable_any"};
        for (size_t i = 0; i < ctx.code.size(); ++i) {
            const Token &t = ctx.codeTok(i);
            if (t.kind != TokKind::Identifier)
                continue;
            const bool banned =
                std::any_of(std::begin(kBanned), std::end(kBanned),
                            [&](const char *b) { return t.text == b; });
            // `::`-qualification keeps `#include <mutex>` and member
            // names like `mutex_` from firing.
            if (banned && stdQualified(ctx, i)) {
                out.push_back(
                    diag(ctx, t.line,
                         "raw 'std::" + t.text +
                             "' is invisible to -Wthread-safety; use "
                             "e3::Mutex/e3::MutexLock"));
            }
        }
    }
};

/**
 * E3L011 — raw std::thread outside the sanctioned spawners.
 *
 * Thread lifetime is a correctness liability (detached threads, joins
 * forgotten on early return), so spawning is concentrated in
 * src/runtime (the pool) and src/serve (the network front end).
 * Everything else submits work to the pool; genuinely standalone
 * threads (test race drivers, the bench load generator) carry an
 * audited raw-thread-ok waiver. `std::thread::hardware_concurrency()`
 * stays legal — the rule skips `std::thread` followed by `::`.
 */
class NoRawThread : public Rule
{
  public:
    NoRawThread()
        : Rule("E3L011", "no-raw-thread", "raw-thread-ok",
               "raw std::thread is banned outside src/runtime and "
               "src/serve; submit work to the runtime pool instead")
    {
    }

    void
    check(const FileContext &ctx, std::vector<Diagnostic> &out) const
        override
    {
        for (size_t i = 0; i < ctx.code.size(); ++i) {
            const Token &t = ctx.codeTok(i);
            if (t.kind != TokKind::Identifier ||
                (t.text != "thread" && t.text != "jthread"))
                continue;
            if (!stdQualified(ctx, i))
                continue;
            // std::thread::hardware_concurrency() and friends are
            // queries, not spawns.
            if (i + 1 < ctx.code.size() &&
                isPunct(ctx.codeTok(i + 1), "::"))
                continue;
            out.push_back(diag(ctx, t.line,
                               "raw 'std::" + t.text +
                                   "' outside the sanctioned "
                                   "spawners; use the runtime pool"));
        }
    }
};

/**
 * E3L012 — atomic accesses without an explicit memory order.
 *
 * `.load()` / `.store(x)` / `fetch_add(1)` default to seq_cst, which
 * both hides the author's intent (was seq_cst required, or just the
 * default?) and invites silent weakening during refactors. In
 * determinism-critical directories every atomic access spells its
 * ordering out. The check is a conservative token approximation: a
 * `.load(`/`.store(`/`.fetch_*(` call whose argument list contains no
 * `memory_order` identifier.
 */
class ExplicitMemoryOrder : public Rule
{
  public:
    ExplicitMemoryOrder()
        : Rule("E3L012", "explicit-memory-order", "memory-order-ok",
               "atomic .load()/.store()/fetch_*() without an explicit "
               "std::memory_order argument in a determinism-critical "
               "directory")
    {
    }

    static bool
    isAtomicAccessName(const std::string &text)
    {
        return text == "load" || text == "store" ||
               text.rfind("fetch_", 0) == 0;
    }

    void
    check(const FileContext &ctx, std::vector<Diagnostic> &out) const
        override
    {
        for (size_t i = 1; i + 1 < ctx.code.size(); ++i) {
            const Token &t = ctx.codeTok(i);
            if (t.kind != TokKind::Identifier ||
                !isAtomicAccessName(t.text))
                continue;
            // Member call syntax only: `x.load(` or `p->load(`.
            const Token &prev = ctx.codeTok(i - 1);
            if (!isPunct(prev, ".") && !isPunct(prev, "->"))
                continue;
            if (!isPunct(ctx.codeTok(i + 1), "("))
                continue;
            // Scan the argument list (to the matching close paren)
            // for a memory_order mention.
            bool ordered = false;
            int depth = 0;
            for (size_t j = i + 1; j < ctx.code.size(); ++j) {
                const Token &a = ctx.codeTok(j);
                if (isPunct(a, "("))
                    ++depth;
                else if (isPunct(a, ")")) {
                    if (--depth == 0)
                        break;
                } else if (a.kind == TokKind::Identifier &&
                           a.text.rfind("memory_order", 0) == 0) {
                    ordered = true;
                    break;
                }
            }
            if (!ordered) {
                out.push_back(
                    diag(ctx, t.line,
                         "atomic '" + t.text +
                             "' relies on the implicit seq_cst "
                             "default; spell the memory order out"));
            }
        }
    }
};

/**
 * E3L018 — stale waivers.
 *
 * A waiver that no longer suppresses anything is worse than dead code:
 * it documents a hazard that moved, and it will silently swallow the
 * next real finding that lands on its line. A waiver token that names
 * no rule (a typo, or the token of a retired rule) suppresses nothing
 * from the start and is reported the same way. The check itself lives
 * in the lint driver (lintSource), which is the only place that sees
 * every rule's pre-waiver findings; this registry entry carries the
 * ID, the catalog text and the waiver token.
 */
class StaleWaiver : public Rule
{
  public:
    StaleWaiver()
        : Rule("E3L018", "stale-waiver", "stale-waiver-ok",
               "an e3-lint waiver comment whose rule produces no "
               "finding on the lines it covers, or whose token names "
               "no rule")
    {
    }

    void
    check(const FileContext &, std::vector<Diagnostic> &) const
        override
    {
        // Implemented by the driver; see lintSource().
    }
};

} // namespace

const std::vector<std::unique_ptr<Rule>> &
allRules()
{
    static const std::vector<std::unique_ptr<Rule>> rules = [] {
        std::vector<std::unique_ptr<Rule>> r;
        r.push_back(std::make_unique<NoStdRand>());
        r.push_back(std::make_unique<NoWallClock>());
        r.push_back(std::make_unique<NoRandomDevice>());
        r.push_back(std::make_unique<NoUnorderedIter>());
        r.push_back(std::make_unique<NoPointerKey>());
        r.push_back(std::make_unique<HeaderGuard>());
        r.push_back(std::make_unique<NoFatalInLib>());
        r.push_back(std::make_unique<ModuleDeps>());
        r.push_back(std::make_unique<NoRawMutex>());
        r.push_back(std::make_unique<NoRawThread>());
        r.push_back(std::make_unique<ExplicitMemoryOrder>());
        r.push_back(std::make_unique<StaleWaiver>());
        return r;
    }();
    return rules;
}

} // namespace e3::lint
