/**
 * @file
 * Unit tests for e3_lint's flow-sensitive core: function recovery and
 * the statement walk's try ranges, throw sites and lock regions
 * (cfg.cc), lambda bodies and the cross-TU call summary
 * (callgraph.cc). The flow rules themselves are covered in
 * test_lint.cc and by the process-level fixture tests; here we pin
 * down the substrate they stand on.
 */

#include "lint/lint.hh"

#include <gtest/gtest.h>

namespace e3::lint {
namespace {

FileContext
parse(const std::string &src)
{
    return buildFileContext("src/x/y.cc", src, nullptr);
}

const FlowFunction *
fnByName(const FileContext &ctx, const std::string &name)
{
    for (const FlowFunction &fn : ctx.functions) {
        if (fn.name == name)
            return &fn;
    }
    return nullptr;
}

/** Code index of the nth occurrence of identifier @p text. */
size_t
identIdx(const FileContext &ctx, const std::string &text, int nth = 0)
{
    int seen = 0;
    for (size_t i = 0; i < ctx.code.size(); ++i) {
        if (ctx.codeTok(i).kind == TokKind::Identifier &&
            ctx.codeTok(i).text == text && seen++ == nth)
            return i;
    }
    return ctx.code.size();
}

// --- function recovery ---

TEST(LintCfg, RecoversDefinitionsNotDeclarations)
{
    const auto ctx = parse("Status load(const char *path);\n"
                           "int add(int a, int b) { return a + b; }\n"
                           "void Engine::run() { tick(); }\n");
    ASSERT_EQ(ctx.functions.size(), 2u);
    EXPECT_EQ(ctx.functions[0].name, "add");
    EXPECT_TRUE(ctx.functions[0].qualifier.empty());
    EXPECT_EQ(ctx.functions[1].name, "run");
    EXPECT_EQ(ctx.functions[1].qualifier, "Engine");
    EXPECT_EQ(ctx.functions[1].line, 3);
}

TEST(LintCfg, HeaderFlagsHotAndErrorType)
{
    const auto ctx =
        parse("E3_HOT Status Engine::step() { return Status(); }\n"
              "void idle() {}\n");
    const FlowFunction *step = fnByName(ctx, "step");
    const FlowFunction *idle = fnByName(ctx, "idle");
    ASSERT_NE(step, nullptr);
    ASSERT_NE(idle, nullptr);
    // The Status return type is header text like any other: dropped
    // errors are the compiler's to catch (common/result.hh).
    EXPECT_TRUE(step->hot);
    EXPECT_FALSE(idle->hot);
}

TEST(LintCfg, CtorInitListIsSkippedToTheBody)
{
    const auto ctx = parse(
        "Counter::Counter(int n) : value_(n), name_{\"c\"} "
        "{ reset(); }\n");
    ASSERT_EQ(ctx.functions.size(), 1u);
    const FlowFunction &fn = ctx.functions[0];
    EXPECT_EQ(fn.name, "Counter");
    EXPECT_EQ(fn.qualifier, "Counter");
    const size_t reset = identIdx(ctx, "reset");
    EXPECT_GE(reset, fn.bodyBegin);
    EXPECT_LT(reset, fn.bodyEnd);
    // The init list itself must not be mistaken for body statements.
    EXPECT_GT(fn.bodyBegin, identIdx(ctx, "value_"));
}

TEST(LintCfg, MacroBodiesAreNotFunctions)
{
    const auto ctx = parse("#define RUN(x) execute(x)\n"
                           "void real() { step(); }\n");
    ASSERT_EQ(ctx.functions.size(), 1u);
    EXPECT_EQ(ctx.functions[0].name, "real");
}

TEST(LintCfg, MatchCloseReportsUnbalancedAsEnd)
{
    const auto ctx = parse("f(a, (b\n");
    const size_t open = identIdx(ctx, "f") + 1;
    ASSERT_TRUE(isPunctTok(ctx.codeTok(open), "("));
    EXPECT_EQ(matchClose(ctx, open), ctx.code.size());
}

// --- statement walk ---

TEST(LintCfg, TryCatchRecordsRangesAndThrowSites)
{
    const auto ctx = parse("void f() {\n"
                           "    try {\n"
                           "        risky();\n"
                           "        throw Bad();\n"
                           "    } catch (const Bad &) {\n"
                           "        handle();\n"
                           "    }\n"
                           "}\n"
                           "void g() { throw Bad(); }\n");
    const FlowFunction *f = fnByName(ctx, "f");
    const FlowFunction *g = fnByName(ctx, "g");
    ASSERT_NE(f, nullptr);
    ASSERT_NE(g, nullptr);
    ASSERT_EQ(f->tryRanges.size(), 1u);
    ASSERT_EQ(f->throwSites.size(), 1u);
    EXPECT_GT(f->throwSites[0], f->tryRanges[0].first);
    EXPECT_LT(f->throwSites[0], f->tryRanges[0].second);
    EXPECT_TRUE(g->tryRanges.empty());
    ASSERT_EQ(g->throwSites.size(), 1u);
}

TEST(LintCfg, WalkScopesEveryStatementForm)
{
    const auto ctx = parse("void f(int k) {\n"
                           "    if (k) { MutexLock a(m); x(); }\n"
                           "    else throw E();\n"
                           "    for (;;) { MutexLock b(m); }\n"
                           "    while (k) throw E();\n"
                           "    do { MutexLock c(m); } while (k);\n"
                           "    switch (k) {\n"
                           "    case 0: { MutexLock d(m); } break;\n"
                           "    default: throw E();\n"
                           "    }\n"
                           "    try { MutexLock e(m); throw E(); }\n"
                           "    catch (...) { MutexLock g(m); }\n"
                           "    MutexLock h(m);\n"
                           "}\n");
    ASSERT_EQ(ctx.functions.size(), 1u);
    const FlowFunction &fn = ctx.functions[0];
    ASSERT_EQ(fn.locks.size(), 7u);
    const char *const names[] = {"a", "b", "c", "d", "e", "g", "h"};
    for (size_t i = 0; i < fn.locks.size(); ++i)
        EXPECT_EQ(fn.locks[i].name, names[i]);
    // Each braced guard dies at its own block's close, before the next
    // statement; the function-level guard lives to the body's close.
    EXPECT_GT(fn.locks[0].end, identIdx(ctx, "x"));
    EXPECT_LT(fn.locks[0].end, identIdx(ctx, "else"));
    EXPECT_LT(fn.locks[1].end, identIdx(ctx, "while"));
    EXPECT_LT(fn.locks[3].end, identIdx(ctx, "break"));
    EXPECT_LT(fn.locks[5].end, identIdx(ctx, "h"));
    EXPECT_EQ(fn.locks[6].end, fn.bodyEnd);
    ASSERT_EQ(fn.throwSites.size(), 4u);
    ASSERT_EQ(fn.tryRanges.size(), 1u);
    EXPECT_GT(fn.throwSites[3], fn.tryRanges[0].first);
    EXPECT_LT(fn.throwSites[3], fn.tryRanges[0].second);
    EXPECT_LT(fn.throwSites[2], fn.tryRanges[0].first);
}

// --- lock regions and lambdas ---

TEST(LintCfg, LockRegionSpansDeclarationToScopeClose)
{
    const auto ctx = parse("void f() {\n"
                           "    before();\n"
                           "    {\n"
                           "        MutexLock lock(mu);\n"
                           "        work();\n"
                           "    }\n"
                           "    after();\n"
                           "}\n"
                           "void g() { MutexLockPair both(a, b); }\n");
    const FlowFunction *f = fnByName(ctx, "f");
    const FlowFunction *g = fnByName(ctx, "g");
    ASSERT_NE(f, nullptr);
    ASSERT_NE(g, nullptr);
    ASSERT_EQ(f->locks.size(), 1u);
    const LockRegion &region = f->locks[0];
    EXPECT_EQ(region.name, "lock");
    EXPECT_FALSE(region.pair);
    EXPECT_LE(region.begin, identIdx(ctx, "work"));
    EXPECT_GT(region.end, identIdx(ctx, "work"));
    EXPECT_GE(identIdx(ctx, "after"), region.end);
    ASSERT_EQ(g->locks.size(), 1u);
    EXPECT_TRUE(g->locks[0].pair);
}

TEST(LintCfg, GuardInsideLambdaDoesNotLeakARegion)
{
    const auto ctx = parse("void f() {\n"
                           "    auto task = [&] {\n"
                           "        MutexLock lock(mu);\n"
                           "        inner();\n"
                           "    };\n"
                           "    post(task);\n"
                           "}\n");
    ASSERT_EQ(ctx.functions.size(), 1u);
    const FlowFunction &fn = ctx.functions[0];
    EXPECT_TRUE(fn.locks.empty());
    const auto lambdas = lambdaBodies(ctx, fn);
    ASSERT_EQ(lambdas.size(), 1u);
    const size_t inner = identIdx(ctx, "inner");
    EXPECT_GT(inner, lambdas[0].first);
    EXPECT_LT(inner, lambdas[0].second);
    EXPECT_GT(identIdx(ctx, "post"), lambdas[0].second);
}

TEST(LintCfg, IndexedCallIsNotALambda)
{
    const auto ctx = parse("void f() {\n"
                           "    table[i](x);\n"
                           "    { scoped(); }\n"
                           "}\n");
    ASSERT_EQ(ctx.functions.size(), 1u);
    EXPECT_TRUE(lambdaBodies(ctx, ctx.functions[0]).empty());
}

// --- cross-TU call summary ---

TEST(LintCfg, SummaryClosesBlockingTransitively)
{
    CallSummary cs;
    for (const FunctionSummary &s : summarizeSource(
             "src/a.cc", "void low() { fopen(\"x\", \"r\"); }\n"
                         "void mid() { low(); }\n"
                         "void top() { mid(); }\n"
                         "void pure() { count(); }\n"))
        cs.add(s);
    cs.finalize();
    EXPECT_TRUE(cs.blocks("low"));
    EXPECT_TRUE(cs.blocks("top"));
    EXPECT_FALSE(cs.blocks("pure"));
    EXPECT_FALSE(cs.blocks("absent"));
}

TEST(LintCfg, SummaryAllocatesOnlyWhenEveryDefinitionDoes)
{
    CallSummary agree;
    for (const FunctionSummary &s : summarizeSource(
             "src/a.cc",
             "void grow(Vec &v) { v.push_back(1); }\n"))
        agree.add(s);
    agree.finalize();
    EXPECT_TRUE(agree.allocates("grow"));

    CallSummary collide;
    for (const FunctionSummary &s : summarizeSource(
             "src/a.cc",
             "void grow(Vec &v) { v.push_back(1); }\n"
             "void Gauge::grow(int n) { level_ = n; }\n"))
        collide.add(s);
    collide.finalize();
    // A same-name definition that does not allocate voids the signal.
    EXPECT_FALSE(collide.allocates("grow"));
}

} // namespace
} // namespace e3::lint
