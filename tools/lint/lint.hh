/**
 * @file
 * e3_lint — a fast, dependency-free determinism linter for this repo.
 *
 * The platform's headline invariant is that a NEAT run is bit-identical
 * across thread counts and checkpoint/resume. End-to-end
 * trace-equality tests guard the invariant after the fact; this linter
 * guards it at the source: it statically bans the classic ways
 * nondeterminism sneaks into a codebase (wall-clock seeding, libc rand,
 * unordered-container iteration in the evolve path, pointer-keyed
 * ordered containers) plus a handful of general correctness rules
 * (header guards, library code exiting or throwing, module layering,
 * lock and thread primitives, memory orders, stale waivers).
 *
 * Design: a lightweight C++ tokenizer (comments, strings — including
 * raw strings — numbers, identifiers, preprocessor directives,
 * multi-char operators) feeds a registry of token-stream rules, each
 * reading one file in a single pass. Nothing parses functions or
 * follows calls: hazards that need that — blocking under a lock,
 * allocation on the per-step path, a phase without a trace span — are
 * guarded by runtime tests instead (DESIGN.md §10). A per-directory
 * policy decides which rules apply where (e.g. the unordered-iteration
 * ban only covers determinism-critical directories). Individual lines
 * are waived with an audited comment:
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
};

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

/** Everything a rule sees about one file. */
struct FileContext
{
    std::string path; ///< repo-relative, '/'-separated
    /** Full token stream, comments included (for waiver scans). */
    std::vector<Token> tokens;
    /** Indices into tokens with comments filtered out. */
    std::vector<size_t> code;

    const Token &codeTok(size_t i) const { return tokens[code[i]]; }

    /**
     * Lines covered by an `// e3-lint: <token>` waiver comment: the
     * comment's own line, plus the next line when the comment stands
     * alone (so long diagnostics can carry the audit note above them).
     */
    std::set<int> waivedLines(const std::string &waiverToken) const;
};

/** Tokenize @p source into a rule-ready context. */
FileContext buildFileContext(const std::string &path,
                             const std::string &source);

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
 * library exit/throw rule scoped to src/, and the sanctioned homes of rng
 * primitives exempted.
 */
Policy defaultPolicy();

/** Lint one in-memory source against the policy. */
std::vector<Diagnostic> lintSource(const std::string &path,
                                   const std::string &source,
                                   const Policy &policy);

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
