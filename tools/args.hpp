/**
 * @file
 * Command-line option parser shared by the igcn CLI and its tests.
 */

#pragma once

#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace igcn::cli {

/**
 * Minimal --key option parser.
 *
 * Grammar: every option is `--key value`, `--key=value`, or a bare
 * `--key` (a valueless presence flag such as --parallel). A token
 * that is neither an option nor consumed as a value is a parse error,
 * collected in errors() rather than thrown so the caller can print
 * all of them alongside usage. Asking a valueless flag for a value
 * (get / getInt / getDouble) throws, so a trailing `--nodes` or a
 * mid-line `--nodes --out f` fails loudly instead of silently running
 * with a bogus value.
 */
class Args
{
  public:
    /** Parse argv[first..argc); first defaults past "igcn <cmd>". */
    Args(int argc, char **argv, int first = 2)
    {
        for (int i = first; i < argc; ++i) {
            const std::string tok = argv[i];
            if (tok.rfind("--", 0) != 0) {
                parseErrors.push_back("unexpected argument '" + tok +
                                      "' (options are --key value)");
                continue;
            }
            std::string key = tok.substr(2);
            if (key.empty()) {
                parseErrors.push_back("empty option name '--'");
                continue;
            }
            const size_t eq = key.find('=');
            if (eq != std::string::npos) {
                // --key=value; --key= is an explicit empty value,
                // distinct from a bare presence flag.
                values[key.substr(0, eq)] = key.substr(eq + 1);
            } else if (i + 1 < argc &&
                       std::string(argv[i + 1]).rfind("--", 0) != 0) {
                values[key] = argv[++i];
            } else {
                values[key] = std::nullopt; // presence-only flag
            }
        }
    }

    /** Tokens that did not parse, in input order (empty = clean). */
    const std::vector<std::string> &errors() const
    {
        return parseErrors;
    }

    bool has(const std::string &key) const
    {
        return values.count(key) != 0;
    }

    /**
     * Value of --key; fallback when absent.
     * @throws std::runtime_error if --key was given without a value.
     */
    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        auto it = values.find(key);
        if (it == values.end())
            return fallback;
        if (!it->second)
            throw std::runtime_error("--" + key + " requires a value");
        return *it->second;
    }

    /**
     * Integer value of --key; fallback when absent.
     * @throws std::runtime_error on a valueless or non-integer value.
     */
    long
    getInt(const std::string &key, long fallback) const
    {
        auto it = values.find(key);
        if (it == values.end())
            return fallback;
        if (!it->second)
            throw std::runtime_error("--" + key + " requires a value");
        try {
            size_t pos = 0;
            const long v = std::stol(*it->second, &pos);
            if (pos != it->second->size())
                throw std::invalid_argument("trailing characters");
            return v;
        } catch (const std::exception &) {
            throw std::runtime_error("--" + key +
                                     " expects an integer, got '" +
                                     *it->second + "'");
        }
    }

    /**
     * Integer value of --key, which must lie in [lo, hi]; fallback
     * when absent.
     * @throws std::runtime_error on a valueless, non-integer or
     * out-of-range value.
     */
    long
    getIntInRange(const std::string &key, long fallback, long lo,
                  long hi) const
    {
        const long v = getInt(key, fallback);
        if (has(key) && (v < lo || v > hi))
            throw std::runtime_error(
                "--" + key + " must be in [" + std::to_string(lo) +
                ", " + std::to_string(hi) + "], got " +
                std::to_string(v));
        return v;
    }

    /**
     * Double value of --key; fallback when absent.
     * @throws std::runtime_error on a valueless or non-numeric value.
     */
    double
    getDouble(const std::string &key, double fallback) const
    {
        auto it = values.find(key);
        if (it == values.end())
            return fallback;
        if (!it->second)
            throw std::runtime_error("--" + key + " requires a value");
        try {
            size_t pos = 0;
            const double v = std::stod(*it->second, &pos);
            if (pos != it->second->size())
                throw std::invalid_argument("trailing characters");
            return v;
        } catch (const std::exception &) {
            throw std::runtime_error("--" + key +
                                     " expects a number, got '" +
                                     *it->second + "'");
        }
    }

    /**
     * Double value of --key, which must lie in [lo, hi], or in
     * (lo, hi] when lo_open; fallback when absent.
     * @throws std::runtime_error on a valueless, non-numeric, NaN or
     * out-of-range value.
     */
    double
    getDoubleInRange(const std::string &key, double fallback, double lo,
                     double hi, bool lo_open = false) const
    {
        const double v = getDouble(key, fallback);
        const bool above_lo = lo_open ? v > lo : v >= lo;
        if (has(key) && !(above_lo && v <= hi)) // NaN fails both
            throw std::runtime_error(
                "--" + key + " must be in " + (lo_open ? "(" : "[") +
                formatBound(lo) + ", " + formatBound(hi) + "], got " +
                get(key));
        return v;
    }

  private:
    /** Shortest %g rendering of a range bound ("0", "1", "0.5"). */
    static std::string
    formatBound(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", v);
        return buf;
    }

    /** nullopt = flag given without a value (presence only). */
    std::map<std::string, std::optional<std::string>> values;
    std::vector<std::string> parseErrors;
};

} // namespace igcn::cli
