/**
 * @file
 * The determinism-contract linter's own test suite: per-rule fixture
 * tests (positive, negative, and suppression, with exact-message
 * assertions) plus a self-lint proving the real src/ + tools/ tree is
 * clean. tests/lint_fixtures/README.md describes the corpus.
 *
 * Fixtures are linted as *text* — never compiled — so path-scoped
 * rules are exercised by passing synthetic repo-relative paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/rules.hpp"

namespace fs = std::filesystem;
using igcn::lint::Diagnostic;
using igcn::lint::lintText;

namespace {

std::string
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << p;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Fixture contents by basename. */
std::string
fixture(const std::string &name)
{
    return readFile(fs::path(IGCN_SOURCE_DIR) / "tests" /
                    "lint_fixtures" / name);
}

/** Lint a fixture under a synthetic repo-relative path. */
std::vector<Diagnostic>
lintFixture(const std::string &name, const std::string &rel_path)
{
    return lintText(rel_path, fixture(name));
}

std::vector<std::string>
rendered(const std::vector<Diagnostic> &diags)
{
    std::vector<std::string> out;
    out.reserve(diags.size());
    for (const Diagnostic &d : diags)
        out.push_back(d.str());
    return out;
}

} // namespace

// ------------------------------------------------------------- no-rand

TEST(LintNoRand, FlagsEveryRandomnessSourceWithExactMessages)
{
    const auto diags =
        lintFixture("no_rand_bad.cpp", "src/spmm/fixture.cpp");
    const std::string msg =
        "non-deterministic randomness in a deterministic scope; "
        "draw from the seeded igcn::Rng instead";
    ASSERT_EQ(diags.size(), 5u);
    EXPECT_EQ(diags[0].str(),
              "src/spmm/fixture.cpp:9: [no-rand] " + msg);
    EXPECT_EQ(diags[1].str(),
              "src/spmm/fixture.cpp:10: [no-rand] " + msg);
    EXPECT_EQ(diags[2].str(),
              "src/spmm/fixture.cpp:16: [no-rand] " + msg);
    EXPECT_EQ(diags[3].str(),
              "src/spmm/fixture.cpp:17: [no-rand] " + msg);
    EXPECT_EQ(diags[4].str(),
              "src/spmm/fixture.cpp:23: [no-rand] " + msg);
}

TEST(LintNoRand, ScopedByPathEvenWithoutTag)
{
    // Strip the tag line: path alone must still put the file in
    // deterministic scope under src/graph/, and must not under
    // tools/.
    std::string text = fixture("no_rand_bad.cpp");
    text = text.substr(text.find('\n') + 1);
    EXPECT_FALSE(lintText("src/graph/fixture.cpp", text).empty());
    EXPECT_TRUE(lintText("tools/fixture.cpp", text).empty());
}

TEST(LintNoRand, IgnoresNearMissIdentifiersStringsAndComments)
{
    EXPECT_TRUE(
        lintFixture("no_rand_good.cpp", "src/spmm/fixture.cpp")
            .empty());
}

TEST(LintNoRand, AllowCommentSuppressesSameAndPreviousLine)
{
    EXPECT_TRUE(
        lintFixture("no_rand_suppressed.cpp", "src/spmm/fixture.cpp")
            .empty());
}

// -------------------------------------------------------- no-wallclock

TEST(LintNoWallclock, FlagsSystemClock)
{
    const auto diags =
        lintFixture("no_wallclock_bad.cpp", "src/serve/fixture.cpp");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].str(),
              "src/serve/fixture.cpp:7: [no-wallclock] "
              "std::chrono::system_clock in a deterministic scope; "
              "replay code must use the virtual clock (steady_clock "
              "is allowed for real-time-mode stamps)");
}

TEST(LintNoWallclock, SteadyClockIsAllowed)
{
    // Linted outside src/serve/ (the tag supplies deterministic
    // scope): no-wallclock tolerates steady_clock everywhere; inside
    // src/serve/ the separate clock-via-obs rule takes over.
    EXPECT_TRUE(
        lintFixture("no_wallclock_good.cpp", "src/gcn/fixture.cpp")
            .empty());
}

TEST(LintNoWallclock, Suppressible)
{
    EXPECT_TRUE(lintFixture("no_wallclock_suppressed.cpp",
                            "src/serve/fixture.cpp")
                    .empty());
}

// ---------------------------------------------- no-unordered-iteration

TEST(LintUnorderedIteration, FlagsRangeForAndIteratorLoops)
{
    const auto diags = lintFixture("unordered_iteration_bad.cpp",
                                   "tools/fixture.cpp");
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].str(),
              "tools/fixture.cpp:12: [no-unordered-iteration] "
              "iteration over unordered container 'counts' in a "
              "deterministic file; hash-iteration order is "
              "implementation-defined");
    EXPECT_EQ(diags[1].line, 14u);
    EXPECT_EQ(diags[1].rule, "no-unordered-iteration");
    EXPECT_NE(diags[1].message.find("'seen'"), std::string::npos);
}

TEST(LintUnorderedIteration, OnlyAppliesToTaggedFiles)
{
    // This rule keys off the tag, not the path: the same content
    // untagged is clean even under src/.
    std::string text = fixture("unordered_iteration_bad.cpp");
    text = text.substr(text.find('\n') + 1);
    EXPECT_TRUE(lintText("src/graph/fixture.cpp", text).empty());
}

TEST(LintUnorderedIteration, LookupsAndOrderedContainersAreFine)
{
    EXPECT_TRUE(lintFixture("unordered_iteration_good.cpp",
                            "tools/fixture.cpp")
                    .empty());
}

TEST(LintUnorderedIteration, Suppressible)
{
    EXPECT_TRUE(lintFixture("unordered_iteration_suppressed.cpp",
                            "tools/fixture.cpp")
                    .empty());
}

// ------------------------------------------------------ csc-invalidate

TEST(LintCscInvalidate, FlagsMutationsWithoutInvalidate)
{
    const auto diags = lintFixture("csc_invalidate_bad.cpp",
                                   "tools/fixture.cpp");
    ASSERT_EQ(diags.size(), 3u);
    EXPECT_EQ(diags[0].str(),
              "tools/fixture.cpp:10: [csc-invalidate] mutation of "
              "'mat.values' without 'mat.invalidateCsc()' in this "
              "file; the cached CSC adjunct would go stale");
    EXPECT_EQ(diags[1].line, 16u);
    EXPECT_NE(diags[1].message.find("'mat.colIdx'"),
              std::string::npos);
    EXPECT_EQ(diags[2].line, 17u);
    EXPECT_NE(diags[2].message.find("'mat.rowPtr'"),
              std::string::npos);
}

TEST(LintCscInvalidate, InvalidateCallAndFreshLocalsAreClean)
{
    EXPECT_TRUE(lintFixture("csc_invalidate_good.cpp",
                            "tools/fixture.cpp")
                    .empty());
}

TEST(LintCscInvalidate, FlagsDenseFeatureMutationsWithoutInvalidate)
{
    const auto diags = lintFixture("csc_invalidate_dense_bad.cpp",
                                   "tools/fixture.cpp");
    ASSERT_EQ(diags.size(), 4u);
    EXPECT_EQ(diags[0].str(),
              "tools/fixture.cpp:9: [csc-invalidate] mutation of "
              "'x.dense' without 'x.invalidateRowsCsr()' in this "
              "file; the cached CSR adjunct would go stale");
    EXPECT_EQ(diags[1].line, 10u);
    EXPECT_EQ(diags[2].line, 16u);
    EXPECT_EQ(diags[3].line, 17u);
}

TEST(LintCscInvalidate, DenseInvalidateCallFreshLocalsAndReadsAreClean)
{
    EXPECT_TRUE(lintFixture("csc_invalidate_dense_good.cpp",
                            "tools/fixture.cpp")
                    .empty());
}

TEST(LintCscInvalidate, Suppressible)
{
    EXPECT_TRUE(lintFixture("csc_invalidate_suppressed.cpp",
                            "tools/fixture.cpp")
                    .empty());
}

// ----------------------------------------------- no-mixed-accumulation

TEST(LintMixedAccumulation, FlagsDoubleDeclaredInsideLoop)
{
    const auto diags =
        lintFixture("mixed_accum_bad.cpp", "src/spmm/fixture.cpp");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].str(),
              "src/spmm/fixture.cpp:9: [no-mixed-accumulation] "
              "double accumulator declared inside a loop in a "
              "deterministic scope; kernel reductions must stay in "
              "float to preserve bit-identity");
}

TEST(LintMixedAccumulation, DoublesOutsideLoopsAreFine)
{
    EXPECT_TRUE(
        lintFixture("mixed_accum_good.cpp", "src/spmm/fixture.cpp")
            .empty());
}

TEST(LintMixedAccumulation, Suppressible)
{
    EXPECT_TRUE(lintFixture("mixed_accum_suppressed.cpp",
                            "src/spmm/fixture.cpp")
                    .empty());
}

// ------------------------------------------ no-thread-outside-runtime

TEST(LintThreadOutsideRuntime, PurelyPathScoped)
{
    // The very same file: flagged under src/serve/, clean under
    // src/runtime/ and outside src/ entirely.
    const auto diags = lintFixture("thread_outside_runtime.cpp",
                                   "src/serve/fixture.cpp");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].str(),
              "src/serve/fixture.cpp:8: [no-thread-outside-runtime] "
              "std::thread outside src/runtime/; all parallelism "
              "must go through the IGCN_THREADS thread pool");

    EXPECT_TRUE(lintFixture("thread_outside_runtime.cpp",
                            "src/runtime/fixture.cpp")
                    .empty());
    EXPECT_TRUE(lintFixture("thread_outside_runtime.cpp",
                            "tools/fixture.cpp")
                    .empty());
}

TEST(LintThreadOutsideRuntime, Suppressible)
{
    EXPECT_TRUE(lintFixture("thread_suppressed.cpp",
                            "src/serve/fixture.cpp")
                    .empty());
}

// -------------------------------------------------------- no-fast-math

TEST(LintFastMath, FlagsPragmasAnywhere)
{
    // Not scope-gated: fast-math is banned tree-wide.
    const auto diags =
        lintFixture("fastmath_bad.cpp", "tools/fixture.cpp");
    ASSERT_EQ(diags.size(), 2u);
    const std::string msg =
        "fast-math-style pragma or flag; float re-association voids "
        "the bit-identity contract";
    EXPECT_EQ(diags[0].str(),
              "tools/fixture.cpp:1: [no-fast-math] " + msg);
    EXPECT_EQ(diags[1].str(),
              "tools/fixture.cpp:2: [no-fast-math] " + msg);
}

TEST(LintFastMath, PlainPragmasAreFine)
{
    EXPECT_TRUE(lintFixture("fastmath_good.cpp", "tools/fixture.cpp")
                    .empty());
}

TEST(LintFastMath, Suppressible)
{
    EXPECT_TRUE(
        lintFixture("fastmath_suppressed.cpp", "tools/fixture.cpp")
            .empty());
}

// --------------------------------------------------- nodiscard-factory

TEST(LintNodiscardFactory, FlagsUnmarkedDeclarationsInHeaders)
{
    const auto diags =
        lintFixture("nodiscard_bad.hpp", "src/graph/fixture.hpp");
    ASSERT_EQ(diags.size(), 3u);
    const std::string msg =
        "factory/builder declaration without [[nodiscard]]; "
        "discarding a builder result is always a bug";
    EXPECT_EQ(diags[0].str(),
              "src/graph/fixture.hpp:10: [nodiscard-factory] " + msg);
    EXPECT_EQ(diags[1].line, 11u);
    EXPECT_EQ(diags[2].line, 12u);
}

TEST(LintNodiscardFactory, HeadersOnly)
{
    // The same text under a .cpp path is out of scope — call sites
    // live in .cpp files and the rule targets API declarations.
    EXPECT_TRUE(
        lintFixture("nodiscard_bad.hpp", "src/graph/fixture.cpp")
            .empty());
}

TEST(LintNodiscardFactory, MarkedDeclarationsAndCallSitesAreClean)
{
    EXPECT_TRUE(
        lintFixture("nodiscard_good.hpp", "src/graph/fixture.hpp")
            .empty());
}

TEST(LintNodiscardFactory, Suppressible)
{
    EXPECT_TRUE(lintFixture("nodiscard_suppressed.hpp",
                            "src/graph/fixture.hpp")
                    .empty());
}

// ------------------------------------------------------- clock-via-obs

TEST(LintClockViaObs, FlagsRawSteadyClockInServe)
{
    const auto diags =
        lintFixture("clock_via_obs_bad.cpp", "src/serve/fixture.cpp");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].str(),
              "src/serve/fixture.cpp:6: [clock-via-obs] "
              "steady_clock::now() in src/serve/; real-time stamps "
              "must go through the obs::RealClock seam "
              "(obs/clock.hpp)");
}

TEST(LintClockViaObs, PurelyPathScoped)
{
    // The seam's own implementation (src/obs/) and the runtime's
    // profiling clock are the legitimate call sites.
    EXPECT_TRUE(
        lintFixture("clock_via_obs_bad.cpp", "src/obs/fixture.cpp")
            .empty());
    EXPECT_TRUE(lintFixture("clock_via_obs_bad.cpp",
                            "src/runtime/fixture.cpp")
                    .empty());
    EXPECT_TRUE(
        lintFixture("clock_via_obs_bad.cpp", "tools/fixture.cpp")
            .empty());
}

TEST(LintClockViaObs, SeamReadsAndNearMissesAreClean)
{
    EXPECT_TRUE(lintFixture("clock_via_obs_good.cpp",
                            "src/serve/fixture.cpp")
                    .empty());
}

TEST(LintClockViaObs, Suppressible)
{
    EXPECT_TRUE(lintFixture("clock_via_obs_suppressed.cpp",
                            "src/serve/fixture.cpp")
                    .empty());
}

// ----------------------------------------------------------- self-lint

TEST(LintTree, RealTreeIsClean)
{
    // The same walk the CLI and the lint_tree ctest perform: every
    // source file under src/ and tools/, linted in-process. A
    // violation here prints the exact diagnostics a developer would
    // see from `igcn_lint`.
    const fs::path root(IGCN_SOURCE_DIR);
    std::vector<fs::path> files;
    for (const char *sub : {"src", "tools"}) {
        for (const auto &entry :
             fs::recursive_directory_iterator(root / sub)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext =
                entry.path().extension().string();
            if (ext == ".cpp" || ext == ".hpp" || ext == ".h" ||
                ext == ".cc")
                files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    ASSERT_GT(files.size(), 50u) << "self-lint walked too few files; "
                                    "is IGCN_SOURCE_DIR right?";

    std::vector<std::string> violations;
    for (const fs::path &file : files) {
        const std::string rel =
            fs::relative(file, root).generic_string();
        for (const Diagnostic &d : lintText(rel, readFile(file)))
            violations.push_back(d.str());
    }
    EXPECT_TRUE(violations.empty())
        << violations.size() << " violation(s):\n"
        << [&] {
               std::ostringstream ss;
               for (const std::string &v : violations)
                   ss << "  " << v << "\n";
               return ss.str();
           }();
}

TEST(LintTree, CatalogueAndRenderingStable)
{
    // The CI per-rule summary keys off allRules(); keep the
    // catalogue order and the rendering format pinned.
    const auto &rules = igcn::lint::allRules();
    ASSERT_EQ(rules.size(), 9u);
    EXPECT_EQ(rules.front(), "no-rand");
    EXPECT_EQ(rules.back(), "clock-via-obs");

    Diagnostic d{"src/x.cpp", 7, "no-rand", "boom"};
    EXPECT_EQ(d.str(), "src/x.cpp:7: [no-rand] boom");

    const auto diags =
        lintFixture("no_rand_bad.cpp", "src/spmm/fixture.cpp");
    EXPECT_TRUE(std::is_sorted(
        diags.begin(), diags.end(),
        [](const Diagnostic &a, const Diagnostic &b) {
            return a.line < b.line;
        }))
        << "diagnostics must come out in line order: "
        << rendered(diags).size();
}

