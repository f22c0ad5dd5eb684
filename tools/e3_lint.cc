/**
 * @file
 * e3_lint — the repo's determinism linter, as a CLI.
 *
 *   e3_lint [--root DIR] [--json] [paths...]
 *   e3_lint --list-rules
 *
 * Paths (files or directories, relative to --root) default to the
 * whole lintable tree: src tools bench tests examples. Exit status is
 * 0 when clean, 1 on violations, 2 on usage or I/O errors — so CI can
 * tell "found bugs" from "linter broke". There is deliberately no
 * --fix: every waiver is a reviewed, audited comment, not a rewrite.
 */

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "common/fs.hh"
#include "lint/lint.hh"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: e3_lint [--root DIR] [--json] [paths...]\n"
                 "       e3_lint --list-rules\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string rootDir = ".";
    bool json = false;
    std::vector<std::string> roots;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-rules") {
            std::fputs(e3::lint::ruleCatalog().c_str(), stdout);
            return 0;
        }
        if (arg == "--json") {
            json = true;
        } else if (arg == "--root") {
            if (i + 1 >= argc)
                return usage();
            rootDir = argv[++i];
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "e3_lint: unknown option '%s'\n",
                         arg.c_str());
            return usage();
        } else {
            roots.push_back(arg);
        }
    }
    if (roots.empty())
        roots = {"src", "tools", "bench", "tests", "examples"};

    const e3::lint::Policy policy = e3::lint::defaultPolicy();
    const std::vector<std::string> files =
        e3::lint::collectSources(rootDir, roots, policy);
    if (files.empty()) {
        std::fprintf(stderr, "e3_lint: nothing to lint under '%s'\n",
                     rootDir.c_str());
        return 2;
    }

    std::vector<e3::lint::Diagnostic> all;
    for (const std::string &file : files) {
        e3::Result<std::string> source = e3::readFile(rootDir + "/" + file);
        if (!source.ok()) {
            std::fprintf(stderr, "e3_lint: %s\n",
                         source.message().c_str());
            return 2;
        }
        std::vector<e3::lint::Diagnostic> diags =
            e3::lint::lintSource(file, *source, policy);
        all.insert(all.end(),
                   std::make_move_iterator(diags.begin()),
                   std::make_move_iterator(diags.end()));
    }

    if (json) {
        std::fputs(e3::lint::toJson(all).c_str(), stdout);
    } else {
        for (const auto &d : all) {
            std::printf("%s:%d: [%s %s] %s\n", d.file.c_str(), d.line,
                        d.ruleId.c_str(), d.ruleName.c_str(),
                        d.message.c_str());
        }
        if (!all.empty()) {
            std::printf("e3_lint: %zu violation(s) in %zu file(s) "
                        "scanned\n",
                        all.size(), files.size());
        }
    }
    return all.empty() ? 0 : 1;
}
