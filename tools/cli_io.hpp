/**
 * @file
 * Graph-loading and option helpers shared by the igcn CLI and its
 * tests.
 *
 * Every subcommand that takes `--in FILE` routes through
 * loadGraphArg(), so a missing flag, a valueless flag, an unopenable
 * path, or a malformed file all surface as one std::runtime_error
 * with a precise message (path, reason, and line number where
 * applicable) that main() prints before exiting nonzero — instead of
 * the silent truncation the raw stream-extraction loader used to
 * allow.
 */

#pragma once

#include <limits>
#include <stdexcept>
#include <string>

#include "core/locator.hpp"
#include "graph/io.hpp"

#include "args.hpp"

namespace igcn::cli {

/** Load the graph named by --in, with CLI-friendly diagnostics. */
inline CsrGraph
loadGraphArg(const Args &args)
{
    const std::string path = args.get("in");
    if (path.empty())
        throw std::runtime_error("--in FILE is required");
    return loadEdgeList(path);
}

/** Largest value a NodeId-typed option accepts. */
inline constexpr long kMaxNodeIdArg = std::numeric_limits<NodeId>::max();

/** Validated --cmax (island size limit, >= 1). */
inline NodeId
cmaxArg(const Args &args, NodeId fallback)
{
    return static_cast<NodeId>(
        args.getIntInRange("cmax", fallback, 1, kMaxNodeIdArg));
}

/**
 * Validated model width (--features, --hidden, --classes; >= 1): the
 * sparse feature generator stores an entry per row, which a 0-column
 * matrix cannot hold, and a zero-width layer serves empty logits.
 */
inline int
widthArg(const Args &args, const std::string &key, int fallback)
{
    return static_cast<int>(args.getIntInRange(
        key, fallback, 1, std::numeric_limits<int>::max()));
}

/** Validated fraction option (--remove-frac, --strict-frac; [0, 1]). */
inline double
fractionArg(const Args &args, const std::string &key, double fallback)
{
    return args.getDoubleInRange(key, fallback, 0.0, 1.0);
}

/**
 * Validated --feature-density ((0, 1]): outside it the dense and CSR
 * feature builders disagree (a dense X with no entries against a CSR
 * X that keeps one entry per row), and neither is a density.
 */
inline double
featureDensityArg(const Args &args, double fallback)
{
    return args.getDoubleInRange("feature-density", fallback, 0.0, 1.0,
                                 /*lo_open=*/true);
}

/**
 * Island Locator options: --cmax, --decay, --th0, --parallel. A
 * --cmax below 1 or a negative --th0 is an error: cast to NodeId it
 * would wrap to about 4.29e9.
 */
inline LocatorConfig
locatorConfigArg(const Args &args)
{
    LocatorConfig cfg;
    cfg.maxIslandSize = cmaxArg(args, cfg.maxIslandSize);
    cfg.decay = args.getDouble("decay", cfg.decay);
    cfg.initialThreshold = static_cast<NodeId>(
        args.getIntInRange("th0", 0, 0, kMaxNodeIdArg));
    cfg.parallelEngines = args.has("parallel");
    return cfg;
}

} // namespace igcn::cli
