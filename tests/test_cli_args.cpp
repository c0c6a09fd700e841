/**
 * @file
 * Unit tests for the CLI option parser (tools/args.hpp).
 *
 * Regression focus: a trailing `--key` with no value, or a valueless
 * `--key` followed by another flag, used to be recorded as the string
 * "1" — so `igcn generate --nodes` silently built a 1-node graph and
 * `--render --foo` wrote a plot to a file named "1". Valueless flags
 * are now presence-only: has() sees them, but asking one for a value
 * throws, and stray positional tokens are reported as parse errors.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "tools/args.hpp"
#include "tools/cli_io.hpp"

namespace {

using igcn::cli::Args;

/** Build Args as the CLI does, from "igcn <cmd> tokens...". */
Args
parse(std::vector<std::string> tokens)
{
    std::vector<std::string> storage;
    storage.emplace_back("igcn");
    storage.emplace_back("cmd");
    for (auto &t : tokens)
        storage.push_back(std::move(t));
    std::vector<char *> argv;
    for (auto &s : storage)
        argv.push_back(s.data());
    return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, KeyValuePairs)
{
    Args a = parse({"--nodes", "500", "--out", "g.txt"});
    EXPECT_TRUE(a.errors().empty());
    EXPECT_EQ(a.getInt("nodes", 0), 500);
    EXPECT_EQ(a.get("out"), "g.txt");
    EXPECT_EQ(a.get("missing", "fb"), "fb");
    EXPECT_EQ(a.getInt("missing", 7), 7);
}

TEST(CliArgs, EqualsSyntax)
{
    Args a = parse({"--nodes=500", "--decay=0.25"});
    EXPECT_TRUE(a.errors().empty());
    EXPECT_EQ(a.getInt("nodes", 0), 500);
    EXPECT_DOUBLE_EQ(a.getDouble("decay", 0.0), 0.25);
}

TEST(CliArgs, TrailingValuelessFlagIsPresenceNotValue)
{
    Args a = parse({"--parallel"});
    EXPECT_TRUE(a.errors().empty());
    EXPECT_TRUE(a.has("parallel"));
    // Asking a presence flag for a value must fail loudly, not yield
    // the old silent "1".
    EXPECT_THROW(a.get("parallel"), std::runtime_error);
    EXPECT_THROW(a.getInt("parallel", 0), std::runtime_error);
    EXPECT_THROW(a.getDouble("parallel", 0.0), std::runtime_error);
}

TEST(CliArgs, ValuelessFlagMidLineIsDiagnosed)
{
    // `--nodes --out f` used to run with nodes == 1 silently.
    Args a = parse({"--nodes", "--out", "f"});
    EXPECT_TRUE(a.has("nodes"));
    EXPECT_EQ(a.get("out"), "f");
    EXPECT_THROW(a.getInt("nodes", 1000), std::runtime_error);
}

TEST(CliArgs, StrayPositionalTokensAreErrors)
{
    Args a = parse({"garbage", "--nodes", "5", "more-garbage"});
    ASSERT_EQ(a.errors().size(), 2u);
    EXPECT_NE(a.errors()[0].find("garbage"), std::string::npos);
    EXPECT_NE(a.errors()[1].find("more-garbage"), std::string::npos);
    // Well-formed options still parse alongside the errors.
    EXPECT_EQ(a.getInt("nodes", 0), 5);
}

TEST(CliArgs, NegativeNumbersAreValuesNotFlags)
{
    Args a = parse({"--th0", "-5", "--decay", "-0.5"});
    EXPECT_TRUE(a.errors().empty());
    EXPECT_EQ(a.getInt("th0", 0), -5);
    EXPECT_DOUBLE_EQ(a.getDouble("decay", 0.0), -0.5);
}

TEST(CliArgs, MalformedNumbersThrowWithKeyName)
{
    Args a = parse({"--nodes", "12abc", "--decay", "x"});
    try {
        a.getInt("nodes", 0);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("--nodes"),
                  std::string::npos);
    }
    EXPECT_THROW(a.getDouble("decay", 0.0), std::runtime_error);
}

TEST(CliArgs, EmptyDoubleDashIsAnError)
{
    Args a = parse({"--"});
    ASSERT_EQ(a.errors().size(), 1u);
}

TEST(CliArgs, ExplicitEmptyValueIsAValueNotAPresenceFlag)
{
    Args a = parse({"--out="});
    EXPECT_TRUE(a.errors().empty());
    EXPECT_EQ(a.get("out", "fb"), "");
}

TEST(CliArgs, LastOccurrenceWins)
{
    Args a = parse({"--seed", "1", "--seed", "2"});
    EXPECT_EQ(a.getInt("seed", 0), 2);
}

TEST(CliArgs, IntInRangeRejectsOutOfRangeValues)
{
    Args a = parse({"--k", "5"});
    EXPECT_EQ(a.getIntInRange("k", 0, 1, 5), 5);
    EXPECT_EQ(a.getIntInRange("absent", 9, 1, 5), 9);
    EXPECT_THROW(a.getIntInRange("k", 0, 6, 10), std::runtime_error);
    EXPECT_THROW(a.getIntInRange("k", 0, 0, 4), std::runtime_error);
}

// --- locator options (igcn islandize / serve) ------------------------
// `--cmax -1` and `--th0 -1` used to be cast to NodeId and wrap to
// about 4.29e9; they are now errors naming the option.

TEST(CliLocatorConfigArg, DefaultsAndValidValues)
{
    const igcn::LocatorConfig def;
    igcn::LocatorConfig cfg = igcn::cli::locatorConfigArg(parse({}));
    EXPECT_EQ(cfg.maxIslandSize, def.maxIslandSize);
    EXPECT_EQ(cfg.initialThreshold, def.initialThreshold);
    EXPECT_FALSE(cfg.parallelEngines);

    cfg = igcn::cli::locatorConfigArg(parse(
        {"--cmax", "1", "--th0", "0", "--decay", "0.5", "--parallel"}));
    EXPECT_EQ(cfg.maxIslandSize, 1u);
    EXPECT_EQ(cfg.initialThreshold, 0u);
    EXPECT_DOUBLE_EQ(cfg.decay, 0.5);
    EXPECT_TRUE(cfg.parallelEngines);

    cfg = igcn::cli::locatorConfigArg(
        parse({"--cmax", "4294967295", "--th0", "4294967295"}));
    EXPECT_EQ(cfg.maxIslandSize, 4294967295u);
    EXPECT_EQ(cfg.initialThreshold, 4294967295u);
}

TEST(CliLocatorConfigArg, NonPositiveCmaxIsAnError)
{
    for (const char *bad : {"-1", "0", "4294967296"}) {
        try {
            igcn::cli::locatorConfigArg(parse({"--cmax", bad}));
            FAIL() << "expected std::runtime_error for --cmax " << bad;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("--cmax"),
                      std::string::npos);
        }
        EXPECT_THROW(igcn::cli::cmaxArg(parse({"--cmax", bad}), 64),
                     std::runtime_error);
    }
}

TEST(CliLocatorConfigArg, NegativeTh0IsAnError)
{
    for (const char *bad : {"-1", "4294967296"}) {
        try {
            igcn::cli::locatorConfigArg(parse({"--th0", bad}));
            FAIL() << "expected std::runtime_error for --th0 " << bad;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("--th0"),
                      std::string::npos);
        }
    }
}

// --- model widths (igcn serve / simulate) ----------------------------
// `serve --features 0 --sparse-x` used to crash on a 0-column feature
// matrix and `--features -3` to request a vector past max_size();
// widths below 1 are now errors naming the option.

TEST(CliWidthArg, NonPositiveWidthsAreErrors)
{
    for (const std::string key : {"features", "hidden", "classes"}) {
        EXPECT_EQ(igcn::cli::widthArg(parse({}), key, 16), 16);
        EXPECT_EQ(igcn::cli::widthArg(parse({"--" + key, "1"}), key, 16),
                  1);
        for (const char *bad : {"0", "-3", "2147483648"}) {
            try {
                igcn::cli::widthArg(parse({"--" + key, bad}), key, 16);
                FAIL() << "expected std::runtime_error for --" << key
                       << " " << bad;
            } catch (const std::runtime_error &e) {
                EXPECT_NE(std::string(e.what()).find("--" + key),
                          std::string::npos);
            }
        }
    }
}

// --- the --in graph-loading path every file-taking subcommand uses --
// main() catches these exceptions, prints them, and exits nonzero, so
// each throw below is a nonzero CLI exit with the tested message.

TEST(CliLoadGraphArg, MissingInFlagIsDiagnosed)
{
    Args a = parse({});
    try {
        igcn::cli::loadGraphArg(a);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("--in"),
                  std::string::npos);
    }
}

TEST(CliLoadGraphArg, ValuelessInFlagIsDiagnosed)
{
    Args a = parse({"--in"});
    EXPECT_THROW(igcn::cli::loadGraphArg(a), std::runtime_error);
}

TEST(CliLoadGraphArg, NonexistentFileNamesPathAndReason)
{
    // `igcn info --in missing.txt` and `igcn simulate --in ...` used
    // to fail with a bare "cannot open" and no reason; the message
    // must now carry the path and the OS error text.
    Args a = parse({"--in", "/nonexistent/igcn-cli.txt"});
    try {
        igcn::cli::loadGraphArg(a);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("/nonexistent/igcn-cli.txt"),
                  std::string::npos);
        EXPECT_NE(msg.find("cannot open"), std::string::npos);
        // strerror(ENOENT) text, the "why".
        EXPECT_NE(msg.find("No such file"), std::string::npos);
    }
}

TEST(CliLoadGraphArg, LoadsAValidFile)
{
    const std::string path =
        std::string(::testing::TempDir()) + "igcn_cli_io_ok.txt";
    igcn::CsrGraph g = igcn::pathGraph(5);
    igcn::saveEdgeList(g, path);
    Args a = parse({"--in", path});
    EXPECT_EQ(igcn::cli::loadGraphArg(a), g);
    std::remove(path.c_str());
}

} // namespace
