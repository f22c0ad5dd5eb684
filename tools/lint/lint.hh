/**
 * @file
 * e3_lint — a fast, dependency-free determinism linter for this repo.
 *
 * The platform's headline invariant is that a NEAT run is bit-identical
 * across thread counts, async overlap, and checkpoint/resume. End-to-end
 * trace-equality tests guard the invariant after the fact; this linter
 * guards it at the source: it statically bans the classic ways
 * nondeterminism sneaks into a codebase (wall-clock seeding, libc rand,
 * unordered-container iteration in the evolve path, pointer-keyed
 * ordered containers) plus a handful of general correctness rules
 * (header guards, float equality, library code exiting the process).
 *
 * Design: a lightweight C++ tokenizer (comments, strings — including
 * raw strings — numbers, identifiers, preprocessor directives,
 * multi-char operators) feeds a registry of token-stream rules. A
 * per-directory policy decides which rules apply where (e.g. the
 * unordered-iteration ban only covers determinism-critical
 * directories). Individual
 * lines are waived with an audited comment:
 *
 *     // e3-lint: ordered-ok — insertion order is rebuilt by key below
 *
 * Only a `//` comment that opens with the marker is a waiver. It
 * covers its own line and, when it stands alone, the line that
 * follows. Every rule has its own waiver token so a waiver never
 * silences more than it names.
 */

#ifndef E3_TOOLS_LINT_LINT_HH
#define E3_TOOLS_LINT_LINT_HH

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace e3::lint {

/** Token categories the rules dispatch on. */
enum class TokKind {
    Identifier, ///< [A-Za-z_][A-Za-z0-9_]*
    Number,     ///< integer or floating literal (suffixes included)
    String,     ///< "..." (verbatim contents) or R"(...)" (collapsed)
    Char,       ///< '...'
    Punct,      ///< single punctuation or multi-char operator
    Directive,  ///< preprocessor keyword: text is e.g. "pragma"
    Comment,    ///< // or block comment, text includes full body
};

/** One lexed token with its 1-based source line. */
struct Token
{
    TokKind kind = TokKind::Punct;
    std::string text;
    int line = 0;
    /**
     * Token belongs to a preprocessor directive line (the keyword
     * itself or anything after it up to the unspliced end of line).
     * The flow passes skip these: a macro body is not a statement.
     */
    bool pp = false;
};

/** Token text tests shared by the rules and the flow passes. */
inline bool
isIdentTok(const Token &t, const char *text)
{
    return t.kind == TokKind::Identifier && t.text == text;
}

inline bool
isPunctTok(const Token &t, const char *text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

/** Tokenize C++ source; never fails (unknown bytes become Punct). */
std::vector<Token> tokenize(const std::string &source);

/** One rule violation, pointing at a file:line. */
struct Diagnostic
{
    std::string file;
    int line = 0;
    std::string ruleId;   ///< e.g. "E3L004"
    std::string ruleName; ///< e.g. "no-unordered-iter"
    std::string message;
};

// ---------------------------------------------------------------------------
// Flow-sensitive core (cfg.cc, callgraph.cc)
//
// A lightweight recursive-descent pass recovers function definitions
// from the token stream and walks each body statement by statement,
// recording what the flow rules (E3L014–E3L017) read: live lock
// regions, try bodies, throw sites. Beside it sits a cross-TU call
// summary built in a first pass over the tree and consumed by those
// rules in the second.
// ---------------------------------------------------------------------------

/**
 * A live e3::MutexLock / e3::MutexLockPair region: from just past the
 * guard's declaration statement to the close of the lexical scope the
 * guard was declared in (its destructor point).
 */
struct LockRegion
{
    size_t begin = 0; ///< code index just past the declaration
    size_t end = 0;   ///< code index of the enclosing scope's '}'
    bool pair = false;
    std::string name; ///< declared guard variable
    int line = 0;
};

/** One recovered function definition and its statement-walk facts. */
struct FlowFunction
{
    std::string name;
    std::string qualifier; ///< class name for out-of-line members
    int line = 0;          ///< line of the function name
    size_t bodyBegin = 0;  ///< code index just inside the body '{'
    size_t bodyEnd = 0;    ///< code index of the body's closing '}'
    bool hot = false;      ///< E3_HOT in the header
    /** (open, close) code-index pairs of try-statement bodies. */
    std::vector<std::pair<size_t, size_t>> tryRanges;
    std::vector<size_t> throwSites; ///< code indices of `throw`
    std::vector<LockRegion> locks;
};

/**
 * What the cross-TU pass knows about one function, keyed by unqualified
 * name. Same-name functions (overloads, same-name members of different
 * classes) are merged conservatively (see CallSummary::add).
 */
struct FunctionSummary
{
    std::string name;
    bool blocks = false;    ///< condvar wait, file/socket I/O, join
    bool allocates = false; ///< new/malloc/container growth directly
    std::vector<std::string> calls; ///< unqualified callee names
};

/**
 * Merged per-tree call summaries. `blocks` is closed transitively over
 * repo-local calls in finalize(); `allocates` deliberately stays
 * direct-only — a transitive closure would mark nearly every function
 * (anything reaching a compile or setup path) and drown E3L015 in
 * noise, while the hot functions' own direct callees are exactly the
 * steady-state surface the rule is guarding.
 */
class CallSummary
{
  public:
    /** Merge one function's summary (any-of blocks, all-of allocates). */
    void add(const FunctionSummary &fn);

    /** Close `blocks` over repo-local calls (fixpoint). */
    void finalize();

    bool blocks(const std::string &name) const;
    bool allocates(const std::string &name) const;

  private:
    std::map<std::string, FunctionSummary> byName_;
};

struct FileContext;

/** Recover function definitions and walk their bodies. */
std::vector<FlowFunction> parseFunctions(const FileContext &ctx);

/**
 * Code index of the close matching the open paren/brace/bracket at
 * @p openIdx, or ctx.code.size() when unbalanced.
 */
size_t matchClose(const FileContext &ctx, size_t openIdx);

/**
 * Half-open (bodyBegin, bodyEnd) code-index ranges of lambda bodies in
 * @p fn. Lock-scope reasoning treats these as deferred: a call written
 * inside a lambda under a live guard usually runs on another thread
 * (or after the guard died), so E3L014 skips them.
 */
std::vector<std::pair<size_t, size_t>>
lambdaBodies(const FileContext &ctx, const FlowFunction &fn);

/** True when code token @p i directly allocates (new/malloc/growth). */
bool directAllocationAt(const FileContext &ctx, size_t i);

/** True when code token @p i is a directly blocking call. */
bool directBlockingAt(const FileContext &ctx, size_t i);

/** First-pass harvest: one FunctionSummary per definition in @p source. */
std::vector<FunctionSummary>
summarizeSource(const std::string &path, const std::string &source);

/** Everything a rule sees about one file. */
struct FileContext
{
    std::string path; ///< repo-relative, '/'-separated
    /** Full token stream, comments included (for waiver scans). */
    std::vector<Token> tokens;
    /** Indices into tokens with comments filtered out. */
    std::vector<size_t> code;
    /** Recovered function definitions. */
    std::vector<FlowFunction> functions;
    /** Cross-TU call summary; never null inside rule checks. */
    const CallSummary *summary = nullptr;

    const Token &codeTok(size_t i) const { return tokens[code[i]]; }

    /**
     * Lines covered by an `// e3-lint: <token>` waiver comment: the
     * comment's own line, plus the next line when the comment stands
     * alone (so long diagnostics can carry the audit note above them).
     */
    std::set<int> waivedLines(const std::string &waiverToken) const;
};

/** Tokenize + parse @p source into a rule-ready context. */
FileContext buildFileContext(const std::string &path,
                             const std::string &source,
                             const CallSummary *summary);

/** A single lint rule over one file's token stream. */
class Rule
{
  public:
    Rule(std::string id, std::string name, std::string waiver,
         std::string summary)
        : id_(std::move(id)), name_(std::move(name)),
          waiver_(std::move(waiver)), summary_(std::move(summary))
    {
    }
    virtual ~Rule() = default;

    const std::string &id() const { return id_; }
    const std::string &name() const { return name_; }
    /** Waiver token accepted after "e3-lint:". */
    const std::string &waiver() const { return waiver_; }
    const std::string &summary() const { return summary_; }

    /** Append diagnostics; waived lines are filtered by the driver. */
    virtual void check(const FileContext &ctx,
                       std::vector<Diagnostic> &out) const = 0;

  protected:
    Diagnostic
    diag(const FileContext &ctx, int line, std::string message) const
    {
        return Diagnostic{ctx.path, line, id_, name_,
                          std::move(message)};
    }

  private:
    std::string id_, name_, waiver_, summary_;
};

/** All built-in rules, in rule-ID order. */
const std::vector<std::unique_ptr<Rule>> &allRules();

/**
 * Which rules apply to which repo-relative paths. Directives are
 * evaluated in order; the last match wins, so narrow overrides follow
 * broad defaults.
 */
class Policy
{
  public:
    /** Enable/disable @p ruleId under @p pathPrefix ("" = everywhere). */
    void add(const std::string &pathPrefix, const std::string &ruleId,
             bool enabled);

    /** Exclude an entire subtree from linting (e.g. test fixtures). */
    void skipTree(const std::string &pathPrefix);

    bool enabled(const std::string &ruleId,
                 const std::string &path) const;
    bool skipped(const std::string &path) const;

  private:
    struct Directive
    {
        std::string prefix;
        std::string ruleId; ///< empty = every rule
        bool enabled = true;
    };
    std::vector<Directive> directives_;
    std::vector<std::string> skips_;
};

/**
 * The repo's policy: determinism rules scoped to the evolve path
 * (src/neat, src/nn, src/e3, src/runtime, src/persist, src/env),
 * library-exit rule scoped to src/, and the sanctioned homes of rng
 * primitives exempted.
 */
Policy defaultPolicy();

/**
 * Lint one in-memory source against the policy. When @p summary is
 * null a single-TU summary is built from the file itself — unit tests
 * stay self-contained; the CLI passes the merged two-pass summary.
 */
std::vector<Diagnostic> lintSource(const std::string &path,
                                   const std::string &source,
                                   const Policy &policy,
                                   const CallSummary *summary = nullptr);

/**
 * Lintable files under @p roots (files or directories), as paths
 * relative to @p rootDir, sorted for deterministic output.
 * Directory walks honour Policy::skipTree; explicitly named files are
 * always included.
 */
std::vector<std::string>
collectSources(const std::string &rootDir,
               const std::vector<std::string> &roots,
               const Policy &policy);

/** Diagnostics as a JSON document for CI annotation. */
std::string toJson(const std::vector<Diagnostic> &diags);

/** Human-readable rule catalog (the --list-rules output). */
std::string ruleCatalog();

} // namespace e3::lint

#endif // E3_TOOLS_LINT_LINT_HH
