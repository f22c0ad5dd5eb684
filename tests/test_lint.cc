/**
 * @file
 * Unit tests for the e3_lint rule engine: every rule gets a violating
 * and a clean inline fixture, waivers are honoured (same-line and
 * standalone-line form), the per-directory policy scopes rules to the
 * right trees, and the JSON output is well-formed per the mini JSON
 * parser. Process-level behaviour (exit codes on the seeded bad
 * fixture, repo-wide cleanliness) is covered by ctest entries in
 * tests/CMakeLists.txt.
 */

#include "lint/lint.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>

#include "mini_json.hh"

namespace e3::lint {
namespace {

std::vector<Diagnostic>
lint(const std::string &path, const std::string &src)
{
    return lintSource(path, src, defaultPolicy());
}

bool
hasRule(const std::vector<Diagnostic> &diags, const std::string &id)
{
    return std::any_of(diags.begin(), diags.end(),
                       [&](const Diagnostic &d) {
                           return d.ruleId == id;
                       });
}

// --- tokenizer ---

TEST(LintLexer, ClassifiesBasicTokens)
{
    const auto toks = tokenize("int x = 42; // note\nfoo(1.5e-3);");
    ASSERT_GE(toks.size(), 10u);
    EXPECT_EQ(toks[0].kind, TokKind::Identifier);
    EXPECT_EQ(toks[0].text, "int");
    EXPECT_EQ(toks[3].kind, TokKind::Number);
    EXPECT_EQ(toks[3].text, "42");
    EXPECT_EQ(toks[5].kind, TokKind::Comment);
    EXPECT_EQ(toks[5].line, 1);
    // Second line: foo ( 1.5e-3 ) ;
    EXPECT_EQ(toks[6].text, "foo");
    EXPECT_EQ(toks[6].line, 2);
    EXPECT_EQ(toks[8].kind, TokKind::Number);
    EXPECT_EQ(toks[8].text, "1.5e-3");
}

TEST(LintLexer, BannedNamesInsideStringsAreNotIdentifiers)
{
    const auto diags =
        lint("src/neat/x.cc", "const char *s = \"std::rand()\";\n");
    EXPECT_TRUE(diags.empty());
}

TEST(LintLexer, RawStringsAreSwallowedWhole)
{
    const auto diags = lint(
        "src/neat/x.cc",
        "const char *s = R\"(srand(time(nullptr)))\";\nint y = 0;\n");
    EXPECT_TRUE(diags.empty());
}

TEST(LintLexer, BlockCommentsTrackLines)
{
    const auto toks = tokenize("/* a\nb\nc */ x");
    ASSERT_EQ(toks.size(), 2u);
    EXPECT_EQ(toks[0].kind, TokKind::Comment);
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[1].text, "x");
    EXPECT_EQ(toks[1].line, 3);
}

// --- E3L001 no-std-rand ---

TEST(LintRules, StdRandViolates)
{
    const auto diags =
        lint("src/nn/x.cc", "int v = std::rand();\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].ruleId, "E3L001");
    EXPECT_EQ(diags[0].line, 1);
}

TEST(LintRules, SrandViolatesAnywhere)
{
    EXPECT_TRUE(hasRule(lint("bench/x.cc", "srand(42);\n"), "E3L001"));
    EXPECT_TRUE(
        hasRule(lint("tools/x.cc", "drand48();\n"), "E3L001"));
}

TEST(LintRules, VariableNamedRandIsClean)
{
    const auto diags =
        lint("src/nn/x.cc", "int rand = 3; use(rand);\n");
    EXPECT_TRUE(diags.empty());
}

// --- E3L002 no-wall-clock ---

TEST(LintRules, WallClockSeedViolatesInDeterminismDirs)
{
    const auto diags = lint("src/neat/x.cc",
                            "auto seed = time(nullptr);\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].ruleId, "E3L002");
}

TEST(LintRules, ChronoNowViolatesInDeterminismDirs)
{
    EXPECT_TRUE(hasRule(
        lint("src/runtime/x.cc",
             "auto t = std::chrono::steady_clock::now();\n"),
        "E3L002"));
}

TEST(LintRules, WallClockIsFineOutsideDeterminismDirs)
{
    EXPECT_TRUE(lint("src/obs/x.cc",
                     "auto t = std::chrono::steady_clock::now();\n")
                    .empty());
    EXPECT_TRUE(
        lint("src/common/timing.cc", "auto t = Clock::now();\n")
            .empty());
}

// --- E3L003 no-random-device ---

TEST(LintRules, RandomDeviceViolatesEverywhereButRng)
{
    EXPECT_TRUE(hasRule(
        lint("tests/x.cc", "std::random_device rd;\n"), "E3L003"));
    EXPECT_TRUE(
        lint("src/common/rng.cc", "std::random_device rd;\n")
            .empty());
}

// --- E3L004 no-unordered-iter ---

TEST(LintRules, UnorderedMapViolatesInDeterminismDirs)
{
    const auto diags = lint(
        "src/e3/x.cc", "std::unordered_map<int, double> fitness;\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].ruleId, "E3L004");
    EXPECT_EQ(diags[0].ruleName, "no-unordered-iter");
}

TEST(LintRules, UnorderedMapIsFineOutsideDeterminismDirs)
{
    EXPECT_TRUE(
        lint("src/obs/x.cc", "std::unordered_map<int, int> m;\n")
            .empty());
    EXPECT_TRUE(
        lint("tools/x.cc", "std::unordered_set<int> s;\n").empty());
}

TEST(LintRules, OrderedOkWaiverOnSameLineHonoured)
{
    const auto diags = lint(
        "src/neat/x.cc",
        "std::unordered_map<int, int> m; // e3-lint: ordered-ok\n");
    EXPECT_TRUE(diags.empty());
}

TEST(LintRules, StandaloneWaiverCoversNextLine)
{
    const auto diags =
        lint("src/neat/x.cc",
             "// e3-lint: ordered-ok — never iterated, key lookups "
             "only\nstd::unordered_map<int, int> m;\n");
    EXPECT_TRUE(diags.empty());
}

TEST(LintRules, WaiverForOneRuleDoesNotSilenceAnother)
{
    // ordered-ok must not waive the wall-clock diagnostic — and since
    // it suppresses nothing here, E3L018 flags the waiver as stale.
    const auto diags =
        lint("src/neat/x.cc",
             "auto t = time(nullptr); // e3-lint: ordered-ok\n");
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].ruleId, "E3L002");
    EXPECT_EQ(diags[1].ruleId, "E3L018");
}

// --- E3L005 no-pointer-key ---

TEST(LintRules, PointerKeyedMapViolates)
{
    const auto diags = lint(
        "src/neat/x.cc", "std::map<Genome *, double> scores;\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].ruleId, "E3L005");
}

TEST(LintRules, PointerKeyedSetViolatesOutsideDeterminismDirsToo)
{
    EXPECT_TRUE(hasRule(
        lint("tools/x.cc", "std::set<const Node *> seen;\n"),
        "E3L005"));
}

TEST(LintRules, ValueKeyedMapWithPointerValueIsClean)
{
    // The pointer is in the mapped type, not the key: ordering is
    // still by the stable int key.
    const auto diags = lint(
        "src/neat/x.cc", "std::map<int, Genome *> byKey;\n");
    EXPECT_TRUE(diags.empty());
}

TEST(LintRules, NestedTemplateKeyIsScannedAtDepthOne)
{
    // The pointer sits inside the nested pair, not at key depth.
    EXPECT_TRUE(
        lint("src/neat/x.cc",
             "std::map<std::pair<int, Genome *>, int> m;\n")
            .empty());
}

// --- E3L007 header-guard ---

TEST(LintRules, UnguardedHeaderViolates)
{
    const auto diags =
        lint("src/nn/x.hh", "int f();\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].ruleId, "E3L007");
    EXPECT_EQ(diags[0].line, 1);
}

TEST(LintRules, IfndefGuardIsClean)
{
    EXPECT_TRUE(lint("src/nn/x.hh",
                     "// comment first is fine\n#ifndef A_HH\n"
                     "#define A_HH\nint f();\n#endif\n")
                    .empty());
}

TEST(LintRules, PragmaOnceIsClean)
{
    EXPECT_TRUE(
        lint("src/nn/x.hh", "#pragma once\nint f();\n").empty());
}

TEST(LintRules, MismatchedGuardNamesViolate)
{
    EXPECT_TRUE(hasRule(lint("src/nn/x.hh",
                             "#ifndef A_HH\n#define B_HH\nint f();\n"
                             "#endif\n"),
                        "E3L007"));
}

TEST(LintRules, SourceFilesNeedNoGuard)
{
    EXPECT_TRUE(lint("src/nn/x.cc", "int f() { return 1; }\n")
                    .empty());
}

// --- E3L008 no-fatal-in-lib ---

TEST(LintRules, FatalInLibraryViolates)
{
    const auto diags = lint(
        "src/neat/x.cc", "if (bad) e3_fatal(\"bad input\");\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].ruleId, "E3L008");
}

TEST(LintRules, FatalInToolsAndTestsIsFine)
{
    EXPECT_TRUE(
        lint("tools/x.cc", "e3_fatal(\"usage\");\n").empty());
    EXPECT_TRUE(
        lint("tests/x.cc", "e3_fatal(\"fixture\");\n").empty());
}

TEST(LintRules, ThrowInLibraryViolates)
{
    // Any throw in src/, caught locally or not: library errors are
    // Status/Result values.
    const std::string src = "int f(int v) {\n"
                            "    try {\n"
                            "        if (v < 0) { throw Bad(); }\n"
                            "    } catch (const Bad &) {\n"
                            "        return -1;\n"
                            "    }\n"
                            "    return v;\n"
                            "}\n";
    const auto diags = lint("src/nn/x.cc", src);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].ruleId, "E3L008");
    EXPECT_EQ(diags[0].line, 3);
    EXPECT_TRUE(lint("tools/bench.cc", src).empty());
    EXPECT_TRUE(lint("tests/x.cc", src).empty());
}

TEST(LintRules, PanicAndAssertStayLegalInLibraries)
{
    EXPECT_TRUE(lint("src/neat/x.cc",
                     "e3_assert(n > 0, \"n\"); e3_panic(\"bug\");\n")
                    .empty());
}

// --- E3L009 module-deps ---

TEST(LintLexer, StringTokensKeepTheirText)
{
    const auto toks = tokenize("#include \"common/result.hh\"\n");
    ASSERT_EQ(toks.size(), 2u);
    EXPECT_EQ(toks[0].kind, TokKind::Directive);
    EXPECT_EQ(toks[0].text, "include");
    EXPECT_EQ(toks[1].kind, TokKind::String);
    EXPECT_EQ(toks[1].text, "common/result.hh");
}

TEST(LintRules, UpwardModuleIncludeViolates)
{
    const auto diags = lint("src/nn/x.cc",
                            "#include \"e3/platform.hh\"\nint x;\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].ruleId, "E3L009");
    EXPECT_EQ(diags[0].line, 1);
}

TEST(LintRules, SiblingModuleIncludeViolates)
{
    // neat may see nn but never persist (which sits above it).
    EXPECT_TRUE(hasRule(
        lint("src/neat/x.cc", "#include \"persist/checkpoint.hh\"\n"),
        "E3L009"));
}

TEST(LintRules, DownwardAndSelfIncludesAreClean)
{
    EXPECT_TRUE(lint("src/neat/x.cc",
                     "#include \"common/rng.hh\"\n"
                     "#include \"nn/network.hh\"\n"
                     "#include \"neat/genome.hh\"\n")
                    .empty());
    EXPECT_TRUE(lint("src/verify/x.cc",
                     "#include \"neat/genome.hh\"\n"
                     "#include \"inax/hw_config.hh\"\n")
                    .empty());
}

TEST(LintRules, SystemAndNonModuleIncludesAreIgnored)
{
    EXPECT_TRUE(lint("src/nn/x.cc",
                     "#include <vector>\n"
                     "#include \"somewhere/else.hh\"\n")
                    .empty());
}

TEST(LintRules, ModuleDepsOnlyAppliesUnderSrc)
{
    EXPECT_TRUE(lint("tools/x.cc", "#include \"e3/platform.hh\"\n")
                    .empty());
    EXPECT_TRUE(lint("tests/x.cc", "#include \"e3/platform.hh\"\n")
                    .empty());
}

TEST(LintRules, LayeringWaiverHonoured)
{
    const auto diags = lint(
        "src/nn/x.cc",
        "// e3-lint: layering-ok -- sanctioned exception for the test\n"
        "#include \"e3/platform.hh\"\n");
    EXPECT_TRUE(diags.empty());
}

TEST(LintRules, ModuleDepsTableIsAcyclic)
{
    // The allow-list must stay a DAG: a module may only allow modules
    // whose own allow-lists never (transitively) reach back to it.
    const Policy p = defaultPolicy();
    for (const char *m :
         {"common", "obs", "env", "nn", "mlp", "neat", "rl", "inax",
          "runtime", "verify", "persist", "e3"}) {
        for (const char *other :
             {"common", "obs", "env", "nn", "mlp", "neat", "rl",
              "inax", "runtime", "verify", "persist", "e3"}) {
            if (std::string(m) == other)
                continue;
            const std::string fwd =
                lint(std::string("src/") + m + "/x.cc",
                     std::string("#include \"") + other + "/a.hh\"\n")
                        .empty()
                    ? "ok"
                    : "bad";
            const std::string rev =
                lint(std::string("src/") + other + "/x.cc",
                     std::string("#include \"") + m + "/a.hh\"\n")
                        .empty()
                    ? "ok"
                    : "bad";
            // No pair may be mutually allowed.
            EXPECT_FALSE(fwd == "ok" && rev == "ok")
                << m << " <-> " << other;
        }
    }
}

// --- E3L010 no-raw-mutex ---

TEST(LintRules, RawMutexViolatesOutsideCommon)
{
    const auto diags =
        lint("src/nn/x.cc", "std::mutex m;\n"
                            "std::lock_guard<std::mutex> lock(m);\n");
    ASSERT_EQ(diags.size(), 3u);
    EXPECT_EQ(diags[0].ruleId, "E3L010");
    EXPECT_EQ(diags[0].line, 1);
    EXPECT_TRUE(hasRule(
        lint("tools/x.cc", "std::unique_lock<std::mutex> l(m);\n"),
        "E3L010"));
    EXPECT_TRUE(hasRule(
        lint("bench/x.cc", "std::condition_variable cv;\n"),
        "E3L010"));
}

TEST(LintRules, RawMutexAllowedInCommon)
{
    EXPECT_TRUE(
        lint("src/common/thread_annotations.cc", "std::mutex m_;\n")
            .empty());
}

TEST(LintRules, MutexIncludeAndMemberNamesAreClean)
{
    // Unqualified tokens — the <mutex> header name, a member called
    // mutex_, the annotated wrappers — must not fire.
    EXPECT_TRUE(lint("src/nn/x.cc",
                     "#include <mutex>\n"
                     "e3::Mutex mutex_;\n"
                     "e3::MutexLock lock(mutex_);\n")
                    .empty());
}

TEST(LintRules, RawMutexWaiverHonoured)
{
    EXPECT_TRUE(
        lint("src/nn/x.cc",
             "std::mutex m; // e3-lint: raw-mutex-ok -- audited\n")
            .empty());
}

// --- E3L011 no-raw-thread ---

TEST(LintRules, RawThreadViolatesOutsideSpawners)
{
    const auto diags =
        lint("src/nn/x.cc", "std::thread t([] {});\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].ruleId, "E3L011");
    EXPECT_TRUE(
        hasRule(lint("tools/x.cc", "std::jthread t([] {});\n"),
                "E3L011"));
}

TEST(LintRules, RawThreadAllowedInSanctionedSpawners)
{
    EXPECT_TRUE(
        lint("src/runtime/x.cc", "std::thread t([] {});\n").empty());
    EXPECT_TRUE(
        lint("src/serve/x.cc", "std::thread t([] {});\n").empty());
}

TEST(LintRules, HardwareConcurrencyQueryIsClean)
{
    EXPECT_TRUE(
        lint("src/nn/x.cc",
             "unsigned n = std::thread::hardware_concurrency();\n")
            .empty());
}

TEST(LintRules, RawThreadWaiverHonoured)
{
    EXPECT_TRUE(lint("tests/x.cc",
                     "// e3-lint: raw-thread-ok -- race driver\n"
                     "std::thread t([] {});\n")
                    .empty());
}

// --- E3L012 explicit-memory-order ---

TEST(LintRules, ImplicitOrderViolatesInDeterminismDirs)
{
    const auto diags = lint("src/nn/x.cc",
                            "int a = v.load();\n"
                            "v.store(1);\n"
                            "v.fetch_add(1);\n"
                            "p->fetch_sub(2);\n");
    ASSERT_EQ(diags.size(), 4u);
    for (const auto &d : diags)
        EXPECT_EQ(d.ruleId, "E3L012");
}

TEST(LintRules, ExplicitOrderIsClean)
{
    EXPECT_TRUE(
        lint("src/nn/x.cc",
             "int a = v.load(std::memory_order_acquire);\n"
             "v.store(1, std::memory_order_release);\n"
             "v.fetch_add(1, std::memory_order_relaxed);\n"
             "v.load(std::memory_order::seq_cst);\n")
            .empty());
}

TEST(LintRules, MemoryOrderRuleScopedToDeterminismDirs)
{
    // Off in application code, on in the concurrent obs/common
    // layers as well as the evolve path.
    EXPECT_TRUE(lint("tools/x.cc", "v.load();\n").empty());
    EXPECT_TRUE(lint("bench/x.cc", "v.store(1);\n").empty());
    EXPECT_TRUE(hasRule(lint("src/obs/x.cc", "v.load();\n"),
                        "E3L012"));
    EXPECT_TRUE(hasRule(lint("src/common/x.cc", "v.load();\n"),
                        "E3L012"));
}

TEST(LintRules, FreeFunctionLoadIsClean)
{
    // Only member-call syntax fires; a free function named load (or
    // a checkpoint loader method being *declared*) must not.
    EXPECT_TRUE(lint("src/nn/x.cc", "auto w = load(path);\n").empty());
}

TEST(LintRules, MemoryOrderWaiverHonoured)
{
    EXPECT_TRUE(
        lint("src/nn/x.cc",
             "v.load(); // e3-lint: memory-order-ok -- seq_cst meant\n")
            .empty());
}

// --- lexer: encoding prefixes, splices ---

TEST(LintLexer, EncodingPrefixedRawStringsAreSwallowedWhole)
{
    const auto toks =
        tokenize("auto a = u8R\"(std::rand())\";\n"
                 "auto b = LR\"x(time(nullptr))x\";\n");
    int raw = 0;
    for (const Token &t : toks) {
        if (t.kind == TokKind::String) {
            ++raw;
            EXPECT_EQ(t.text, "<raw-string>");
        }
    }
    EXPECT_EQ(raw, 2);
    EXPECT_TRUE(lint("src/neat/x.cc",
                     "auto a = uR\"(srand(1))\";\n"
                     "auto b = UR\"(std::rand())\";\n")
                    .empty());
}

TEST(LintLexer, LineSplicesKeepLineNumbersExact)
{
    const auto toks = tokenize("int a \\\n= 1;\nint b;\n");
    ASSERT_GE(toks.size(), 7u);
    EXPECT_EQ(toks[0].text, "int");
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[2].text, "=");
    EXPECT_EQ(toks[2].line, 2); // past the splice
    EXPECT_EQ(toks[5].text, "int");
    EXPECT_EQ(toks[5].line, 3);
}

TEST(LintLexer, SpliceContinuesALineComment)
{
    const auto toks = tokenize("// note \\\nstd::rand()\nint x;\n");
    ASSERT_EQ(toks.size(), 4u);
    EXPECT_EQ(toks[0].kind, TokKind::Comment);
    // The spliced second physical line is part of the comment, so the
    // banned name inside it is not an identifier...
    EXPECT_NE(toks[0].text.find("rand"), std::string::npos);
    // ...and the next real token sits on the right line regardless.
    EXPECT_EQ(toks[1].text, "int");
    EXPECT_EQ(toks[1].line, 3);
    EXPECT_TRUE(
        lint("src/neat/x.cc", "// ban \\\nstd::rand()\nint x;\n")
            .empty());
}

TEST(LintLexer, SpliceInsideAStringStaysLiteral)
{
    const auto toks = tokenize("const char *s = \"ab\\\ncd\";\nint x;\n");
    const Token *str = nullptr;
    const Token *after = nullptr;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind == TokKind::String) {
            str = &toks[i];
            after = i + 2 < toks.size() ? &toks[i + 2] : nullptr;
        }
    }
    ASSERT_NE(str, nullptr);
    EXPECT_EQ(str->line, 1);
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after->text, "int");
    EXPECT_EQ(after->line, 3); // the splice advanced the counter
}

// --- E3L018 stale-waiver ---

TEST(LintFlowRules, WaiverSuppressingNothingIsStale)
{
    const auto diags =
        lint("src/nn/x.cc",
             "void f() {\n"
             "    int pips = 4; // e3-lint: rand-ok -- moved on\n"
             "}\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].ruleId, "E3L018");
    EXPECT_EQ(diags[0].line, 2);
}

TEST(LintFlowRules, LiveWaiverIsNotStale)
{
    const auto diags =
        lint("src/nn/x.cc",
             "int f() {\n"
             "    return std::rand() % 6; // e3-lint: rand-ok -- ok\n"
             "}\n");
    EXPECT_TRUE(diags.empty());
}

TEST(LintFlowRules, StaleWaiverOkKeepsAnAuditedStaleWaiver)
{
    const auto diags = lint(
        "src/nn/x.cc",
        "void f() {\n"
        "    // e3-lint: rand-ok stale-waiver-ok -- kept on purpose\n"
        "    int pips = 4;\n"
        "}\n");
    EXPECT_FALSE(hasRule(diags, "E3L018"));
}

TEST(LintFlowRules, WaiverTokenNamingNoRuleIsReported)
{
    // A retired rule's token and a misspelt one silence nothing.
    const auto diags =
        lint("src/nn/x.cc",
             "void f() {\n"
             "    // e3-lint: dropped-ok -- a retired rule's token\n"
             "    int pips = 4; // e3-lint: ordred-ok\n"
             "}\n");
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].ruleId, "E3L018");
    EXPECT_EQ(diags[0].line, 2);
    EXPECT_NE(diags[0].message.find("'dropped-ok' names no"),
              std::string::npos)
        << diags[0].message;
    EXPECT_EQ(diags[1].ruleId, "E3L018");
    EXPECT_EQ(diags[1].line, 3);
    EXPECT_NE(diags[1].message.find("'ordred-ok' names no"),
              std::string::npos)
        << diags[1].message;
}

TEST(LintFlowRules, EveryTokenOfAWaiverMustNameARule)
{
    // Trailing `-ok` words are tokens too; other words are the audit
    // note.
    const auto typo = lint("src/nn/x.cc",
                           "int f() {\n"
                           "    return std::rand(); // e3-lint: rand-ok "
                           "nodiscard-ok -- a second token\n"
                           "}\n");
    ASSERT_EQ(typo.size(), 1u);
    EXPECT_NE(typo[0].message.find("'nodiscard-ok'"), std::string::npos);
    EXPECT_TRUE(lint("src/nn/x.cc",
                     "int f() {\n"
                     "    return std::rand(); // e3-lint: rand-ok "
                     "seeded by design\n"
                     "}\n")
                    .empty());
    // The token of a rule that is off at this path still names a rule.
    EXPECT_TRUE(lint("tools/x.cc", "int x; // e3-lint: ordered-ok\n")
                    .empty());
}

TEST(LintFlowRules, ProseMentioningTheMarkerIsNotAWaiver)
{
    const auto diags =
        lint("tools/x.cc",
             "/**\n"
             " *     // e3-lint: dropped-ok -- a block-comment example\n"
             " */\n"
             "// Waivers read `// e3-lint: <token>`; see DESIGN.md.\n"
             "int x;\n");
    EXPECT_TRUE(diags.empty()) << diags[0].message;
    // Nor does such prose waive a real finding on its line.
    EXPECT_TRUE(hasRule(lint("src/neat/x.cc",
                             "std::unordered_map<int, int> m; /* unlike "
                             "e3-lint: ordered-ok users */\n"),
                        "E3L004"));
    EXPECT_TRUE(hasRule(lint("src/neat/x.cc",
                             "std::unordered_map<int, int> m; // see "
                             "e3-lint: ordered-ok\n"),
                        "E3L004"));
}

// --- policy scoping ---

TEST(LintPolicy, FlowRulesAreScopedAndForcedOnForFixtures)
{
    const Policy p = defaultPolicy();
    // The library exit/throw rule is src-only.
    EXPECT_TRUE(p.enabled("E3L008", "src/nn/network.cc"));
    EXPECT_FALSE(p.enabled("E3L008", "tools/e3_cli.cc"));
    EXPECT_FALSE(p.enabled("E3L008", "tests/test_persist.cc"));
    // The stale-waiver rule is on everywhere, its fixture pair's own
    // paths included.
    EXPECT_TRUE(p.enabled("E3L018", "src/nn/network.cc"));
    EXPECT_TRUE(
        p.enabled("E3L018", "tests/fixtures/lint/e3l018_violation.cc"));
}

// --- on-disk fixture pairs (tests/fixtures/lint) ---

#ifdef E3_LINT_FIXTURE_DIR

std::string
readFixture(const std::string &name)
{
    std::ifstream in(std::string(E3_LINT_FIXTURE_DIR) + "/" + name);
    EXPECT_TRUE(in.good()) << name;
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

TEST(LintFixtures, ViolationAndCleanPairsBehave)
{
    struct Case
    {
        const char *rule;
        const char *bad;
        const char *clean;
        const char *path; ///< synthetic path where the rule is active
    };
    const Case cases[] = {
        {"E3L010", "e3l010_violation.cc", "e3l010_clean.cc",
         "src/nn/fixture.cc"},
        {"E3L011", "e3l011_violation.cc", "e3l011_clean.cc",
         "src/nn/fixture.cc"},
        {"E3L012", "e3l012_violation.cc", "e3l012_clean.cc",
         "src/nn/fixture.cc"},
    };
    for (const Case &c : cases) {
        EXPECT_TRUE(hasRule(lint(c.path, readFixture(c.bad)), c.rule))
            << c.bad;
        const auto clean = lint(c.path, readFixture(c.clean));
        EXPECT_TRUE(clean.empty())
            << c.clean << ": " << (clean.empty() ? "" : clean[0].ruleId);
    }
}

#endif // E3_LINT_FIXTURE_DIR

// --- policy mechanics ---

TEST(LintPolicy, LastMatchingDirectiveWins)
{
    Policy p;
    p.add("", "E3L004", true);
    p.add("src/obs", "E3L004", false);
    EXPECT_TRUE(p.enabled("E3L004", "src/neat/genome.cc"));
    EXPECT_FALSE(p.enabled("E3L004", "src/obs/trace.cc"));
}

TEST(LintPolicy, PrefixMatchingIsComponentWise)
{
    Policy p;
    p.add("src/nn", "E3L004", false);
    EXPECT_FALSE(p.enabled("E3L004", "src/nn/network.cc"));
    // "src/nn" must not swallow a sibling directory's prefix.
    EXPECT_TRUE(p.enabled("E3L004", "src/nn_extras/x.cc"));
}

TEST(LintPolicy, SkippedTreesAreSkipped)
{
    const Policy p = defaultPolicy();
    EXPECT_TRUE(p.skipped("tests/fixtures/lint_bad.cc"));
    EXPECT_FALSE(p.skipped("tests/test_lint.cc"));
}

// --- registry & output ---

TEST(LintRegistry, AllRulesHaveUniqueIdsAndWaivers)
{
    std::vector<std::string> ids, waivers;
    for (const auto &rule : allRules()) {
        ids.push_back(rule->id());
        waivers.push_back(rule->waiver());
        EXPECT_FALSE(rule->summary().empty()) << rule->id();
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) ==
                ids.end());
    std::sort(waivers.begin(), waivers.end());
    EXPECT_TRUE(std::adjacent_find(waivers.begin(), waivers.end()) ==
                waivers.end());
}

TEST(LintRegistry, HoldsTheShippedRulesInIdOrder)
{
    // Retired IDs are not reused. The compiler guards what two of
    // them did: E3L006 (float ==/!=) is -Werror=float-equal on every
    // target outside tests/ (E3_WARNING_FLAGS); E3L013 (discarded
    // Status/Result) is [[nodiscard]] (common/result.hh). Runtime tests
    // guard the flow rules': E3L014 (blocking under a lock) the serve
    // stall and ThreadPool tests, E3L015 (allocation in E3_HOT)
    // test_rollout_alloc, E3L017 (missing span) the platform trace
    // test; E3L016 (throw escaping src/) is E3L008's throw match.
    const char *const ids[] = {"E3L001", "E3L002", "E3L003", "E3L004",
                               "E3L005", "E3L007", "E3L008", "E3L009",
                               "E3L010", "E3L011", "E3L012", "E3L018"};
    const auto &rules = allRules();
    ASSERT_EQ(rules.size(), std::size(ids));
    for (size_t i = 0; i < rules.size(); ++i)
        EXPECT_EQ(rules[i]->id(), ids[i]);
}

TEST(LintRegistry, CatalogNamesEveryRule)
{
    const std::string catalog = ruleCatalog();
    for (const auto &rule : allRules()) {
        EXPECT_NE(catalog.find(rule->id()), std::string::npos);
        EXPECT_NE(catalog.find(rule->waiver()), std::string::npos);
    }
}

TEST(LintJson, OutputIsWellFormedAndComplete)
{
    const auto diags = lint(
        "src/neat/x.cc",
        "std::unordered_map<int, int> m;\nauto s = time(nullptr);\n"
        "std::map<Node *, int> byAddress;\n"
        "if (x) e3_fatal(\"a \\\"quoted\\\" message\");\n");
    ASSERT_EQ(diags.size(), 4u);

    const std::string json = toJson(diags);
    test::JsonValue doc;
    ASSERT_TRUE(test::JsonParser(json).parse(doc));
    const test::JsonValue *count = doc.find("count");
    ASSERT_NE(count, nullptr);
    EXPECT_EQ(count->number, 4.0);
    const test::JsonValue *list = doc.find("diagnostics");
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->array.size(), 4u);
    for (const auto &entry : list->array) {
        ASSERT_NE(entry.find("file"), nullptr);
        EXPECT_EQ(entry.find("file")->string, "src/neat/x.cc");
        ASSERT_NE(entry.find("line"), nullptr);
        ASSERT_NE(entry.find("rule"), nullptr);
        ASSERT_NE(entry.find("message"), nullptr);
    }
}

TEST(LintJson, EmptyDiagnosticsStillParse)
{
    test::JsonValue doc;
    ASSERT_TRUE(test::JsonParser(toJson({})).parse(doc));
    EXPECT_EQ(doc.find("count")->number, 0.0);
}

TEST(LintDriver, DiagnosticsAreSortedByLine)
{
    const auto diags = lint("src/neat/x.cc",
                            "auto a = time(nullptr);\n"
                            "std::unordered_set<int> s;\n"
                            "auto b = time(nullptr);\n");
    ASSERT_EQ(diags.size(), 3u);
    EXPECT_EQ(diags[0].line, 1);
    EXPECT_EQ(diags[1].line, 2);
    EXPECT_EQ(diags[2].line, 3);
}

} // namespace
} // namespace e3::lint
