/**
 * @file
 * The determinism-contract linter (DESIGN.md section 7): a fast,
 * dependency-free scanner enforcing the repo-specific invariants the
 * compiler cannot see. Each rule is named, individually suppressible,
 * and exercised positively and negatively by tests/lint_fixtures/.
 *
 * Header-only on purpose: tools/lint/igcn_lint.cpp is the CLI driver
 * and tests/test_lint.cpp includes this directly, so the rule logic
 * has exactly one definition and the fixture tests run it in-process
 * with exact-message assertions.
 *
 * ## Rules
 *
 *  - `no-rand`            rand()/srand()/std::random_device in a
 *                         deterministic scope. All randomness must
 *                         come from the seeded igcn::Rng.
 *  - `no-wallclock`       std::chrono::system_clock in a
 *                         deterministic scope. Replay code computes
 *                         time from the virtual clock; wall-clock
 *                         reads make traces non-reproducible.
 *  - `no-unordered-iteration`
 *                         iterating a std::unordered_map/set in a
 *                         file tagged `// igcn-lint: deterministic`.
 *                         Hash-iteration order is
 *                         implementation-defined; deterministic
 *                         paths iterate ordered containers.
 *  - `csc-invalidate`     a file mutates a CsrMatrix's
 *                         rowPtr/colIdx/values through an object
 *                         (`m.values = `, `m.colIdx.push_back`, ...)
 *                         without calling invalidateCsc() on that
 *                         same object anywhere in the file: the
 *                         cached CSC adjunct would silently serve
 *                         stale non-zeros. Likewise a Features'
 *                         `dense` member (`x.dense = `,
 *                         `x.dense.fillRandom(`, `x.dense.at(r, c) =
 *                         `, ...) without invalidateRowsCsr(): the
 *                         cached CSR adjunct would go stale. Objects
 *                         value-declared in the same file
 *                         (`CsrGraph g;`, `Features x;` — fresh, no
 *                         cache to stale) are exempt; mutation
 *                         through a reference is not, and carries an
 *                         explicit allow() when it is provably fresh.
 *  - `no-mixed-accumulation`
 *                         a `double` accumulator declared inside a
 *                         loop body in a deterministic scope. Kernel
 *                         reductions accumulate in float; widening
 *                         some terms re-rounds differently and
 *                         breaks bit-identity across refactors.
 *  - `no-thread-outside-runtime`
 *                         std::thread outside src/runtime/. All
 *                         parallelism goes through the pool so
 *                         IGCN_THREADS governs every kernel;
 *                         ad-hoc threads escape the determinism
 *                         contract's reduction discipline.
 *  - `no-fast-math`       -ffast-math-style pragmas (`GCC optimize`,
 *                         `clang fp contract(fast)`, `FP_CONTRACT
 *                         ON`, `float_control` relaxations): they
 *                         re-associate float arithmetic and void the
 *                         bit-identity claims.
 *  - `nodiscard-factory`  a factory/builder declaration (static
 *                         `from*`, builder `with*`, `submit*`
 *                         returning ServeResult) in a header without
 *                         [[nodiscard]]: discarding the result of an
 *                         immutable builder is always a bug.
 *  - `clock-via-obs`      raw std::chrono::steady_clock::now() under
 *                         src/serve/. Real-time stamps must go
 *                         through the obs::RealClock seam
 *                         (obs/clock.hpp) so every serve-side clock
 *                         read shares one origin and traces/metrics
 *                         stay mutually consistent. Purely
 *                         path-scoped; the seam itself lives in
 *                         src/obs/ and is out of scope by
 *                         construction.
 *
 * ## Scopes
 *
 * A file is in **deterministic scope** when its repo-relative path
 * starts with src/spmm/, src/graph/, src/core/, src/gcn/ or
 * src/serve/, or when it carries the tag comment
 * `// igcn-lint: deterministic` anywhere in the file. The tag also
 * lets fixture files (and future out-of-tree code) opt into the
 * path-scoped rules.
 *
 * ## Suppression
 *
 * `// igcn-lint: allow(<rule>)` on the offending line or the line
 * directly above suppresses that one rule for that one line.
 * Suppressions are deliberate, reviewable exceptions — e.g. the
 * server's scheduler thread carries
 * `// igcn-lint: allow(no-thread-outside-runtime)`.
 */

#pragma once

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <regex>
#include <string>
#include <string_view>
#include <vector>

namespace igcn::lint {

/** One finding: file, 1-based line, rule name, message. */
struct Diagnostic
{
    std::string file;
    size_t line = 0;
    std::string rule;
    std::string message;

    /** The canonical `path:line: [rule] message` rendering. */
    std::string
    str() const
    {
        return file + ":" + std::to_string(line) + ": [" + rule +
               "] " + message;
    }
};

/** Every rule name, in catalogue order (the CI summary prints all). */
inline const std::vector<std::string> &
allRules()
{
    static const std::vector<std::string> rules = {
        "no-rand",
        "no-wallclock",
        "no-unordered-iteration",
        "csc-invalidate",
        "no-mixed-accumulation",
        "no-thread-outside-runtime",
        "no-fast-math",
        "nodiscard-factory",
        "clock-via-obs",
    };
    return rules;
}

namespace detail {

/** Split into lines; the trailing newline does not add a line. */
inline std::vector<std::string>
splitLines(std::string_view text)
{
    std::vector<std::string> lines;
    size_t start = 0;
    while (start <= text.size()) {
        const size_t nl = text.find('\n', start);
        if (nl == std::string_view::npos) {
            if (start < text.size())
                lines.emplace_back(text.substr(start));
            break;
        }
        lines.emplace_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

/**
 * The line with string/char literals and comments blanked (replaced
 * by spaces, preserving columns), given whether the line starts
 * inside a block comment; updates that flag. Keeps rule regexes from
 * matching inside literals, comments, and doc text.
 */
inline std::string
stripLiterals(const std::string &line, bool &in_block_comment)
{
    std::string out(line.size(), ' ');
    bool in_str = false, in_chr = false;
    for (size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        const char n = i + 1 < line.size() ? line[i + 1] : '\0';
        if (in_block_comment) {
            if (c == '*' && n == '/') {
                in_block_comment = false;
                ++i;
            }
            continue;
        }
        if (in_str) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_str = false;
            continue;
        }
        if (in_chr) {
            if (c == '\\')
                ++i;
            else if (c == '\'')
                in_chr = false;
            continue;
        }
        if (c == '/' && n == '/')
            break; // rest is a line comment
        if (c == '/' && n == '*') {
            in_block_comment = true;
            ++i;
            continue;
        }
        if (c == '"') {
            in_str = true;
            continue;
        }
        if (c == '\'') {
            // Digit separators (1'000'000) are not char literals.
            const bool digit_sep =
                i > 0 && std::isalnum(static_cast<unsigned char>(
                             line[i - 1])) &&
                i + 1 < line.size() &&
                std::isalnum(static_cast<unsigned char>(line[i + 1]));
            if (!digit_sep) {
                in_chr = true;
                continue;
            }
        }
        out[i] = c;
    }
    return out;
}

/** True when `line` (raw) carries `igcn-lint: allow(rule)`. */
inline bool
hasAllow(const std::string &line, const std::string &rule)
{
    const std::string needle = "igcn-lint: allow(" + rule + ")";
    return line.find(needle) != std::string::npos;
}

/** Rule-level suppression: the line itself or the one above. */
inline bool
suppressed(const std::vector<std::string> &raw, size_t idx,
           const std::string &rule)
{
    if (hasAllow(raw[idx], rule))
        return true;
    return idx > 0 && hasAllow(raw[idx - 1], rule);
}

inline bool
pathStartsWith(const std::string &path, std::string_view prefix)
{
    return path.rfind(prefix, 0) == 0;
}

} // namespace detail

/**
 * Lint one file's text. `rel_path` is the repo-relative path with
 * forward slashes (scope decisions key off it); diagnostics come out
 * in line order, rule-catalogue order within a line.
 */
inline std::vector<Diagnostic>
lintText(const std::string &rel_path, const std::string &text)
{
    using namespace detail;

    std::vector<Diagnostic> diags;
    const std::vector<std::string> raw = splitLines(text);

    // Code view: literals/comments blanked, for pattern matching.
    std::vector<std::string> code;
    code.reserve(raw.size());
    bool in_block = false;
    for (const std::string &line : raw)
        code.push_back(stripLiterals(line, in_block));

    // The tag must be a whole comment line, so source that merely
    // *mentions* the tag (this linter, its tests) is not tagged.
    bool tagged_deterministic = false;
    for (const std::string &line : raw) {
        const size_t first = line.find_first_not_of(" \t");
        if (first != std::string::npos &&
            line.compare(first, std::string::npos,
                         "// igcn-lint: deterministic") == 0) {
            tagged_deterministic = true;
            break;
        }
    }
    const bool deterministic_scope =
        tagged_deterministic ||
        pathStartsWith(rel_path, "src/spmm/") ||
        pathStartsWith(rel_path, "src/graph/") ||
        pathStartsWith(rel_path, "src/core/") ||
        pathStartsWith(rel_path, "src/gcn/") ||
        pathStartsWith(rel_path, "src/serve/");
    const bool in_runtime = pathStartsWith(rel_path, "src/runtime/");
    const bool in_serve = pathStartsWith(rel_path, "src/serve/");
    const bool in_src = pathStartsWith(rel_path, "src/");
    const bool is_header =
        rel_path.size() >= 4 &&
        (rel_path.ends_with(".hpp") || rel_path.ends_with(".h"));

    auto report = [&](size_t idx, const std::string &rule,
                      std::string msg) {
        if (!suppressed(raw, idx, rule))
            diags.push_back(
                {rel_path, idx + 1, rule, std::move(msg)});
    };

    // --- per-line regex rules -------------------------------------
    static const std::regex re_rand(
        R"((^|[^\w])((?:std::)?s?rand)\s*\(|std::random_device)");
    static const std::regex re_wallclock(R"(system_clock)");
    static const std::regex re_thread(R"(std::thread\b)");
    static const std::regex re_fastmath(
        R"(ffast-math|fast_math|#\s*pragma\s+GCC\s+optimize|#\s*pragma\s+clang\s+fp\s+contract\s*\(\s*fast\s*\)|FP_CONTRACT\s+ON|float_control\s*\(\s*precise\s*,\s*off\s*\))");
    static const std::regex re_unordered_decl(
        R"(std::unordered_(?:map|set)\s*<[^;=]*>\s+(\w+))");
    static const std::regex re_factory(
        R"(\b(?:from|with|submit)[A-Z]\w*\s*\()");
    static const std::regex re_mutation(
        R"((\w+)\.(rowPtr|colIdx|values)\s*(?:=[^=]|\.\s*(?:push_back|emplace_back|resize|clear|assign|insert|erase|swap|pop_back)\s*\())");
    static const std::regex re_dense_mutation(
        R"((\w+)\.(dense)\s*(?:=[^=]|\.\s*(?:zero|fillRandom|fillRandomSparse)\s*\(|\.\s*(?:at|row|data)\s*\([^)]*\)\s*(?:\[[^\]]*\]\s*)?[-+*/]?=[^=]))");
    static const std::regex re_double_decl(
        R"(^\s*(?:const\s+)?double\s+\w+\s*[={])");
    static const std::regex re_for_loop(R"(\b(?:for|while)\s*\()");
    static const std::regex re_steady_now(
        R"(steady_clock\s*::\s*now\s*\()");

    // Names of variables declared as unordered containers (file-local
    // heuristic; good enough for the flat scanner).
    std::vector<std::string> unordered_names;

    // csc-invalidate bookkeeping: every `obj.member` mutation site,
    // reported at end of file unless `obj.<invalidator>()` appears
    // somewhere in the same file.
    struct Mutation
    {
        size_t idx;
        std::string object;
        std::string member;
        std::string invalidator;
    };
    std::vector<Mutation> pending_mutations;
    std::vector<std::string> invalidated_calls; // "obj.invalidator".
    // Objects value-declared in this file (`CsrGraph g;`): freshly
    // constructed, their cache has never been populated, so raw-array
    // writes during factory assembly cannot stale anything.
    std::vector<std::string> fresh_locals;
    static const std::regex re_fresh_decl(
        R"(^\s*(?:igcn::)?(?:Csr\w+|Features)\s+(\w+)\s*[;={])");
    int brace_depth = 0;
    int loop_depth_floor = -1; // brace depth where a loop body began

    for (size_t i = 0; i < code.size(); ++i) {
        const std::string &line = code[i];
        std::smatch m;

        if (deterministic_scope) {
            if (std::regex_search(line, re_rand))
                report(i, "no-rand",
                       "non-deterministic randomness in a "
                       "deterministic scope; draw from the seeded "
                       "igcn::Rng instead");
            if (std::regex_search(line, re_wallclock))
                report(i, "no-wallclock",
                       "std::chrono::system_clock in a deterministic "
                       "scope; replay code must use the virtual "
                       "clock (steady_clock is allowed for "
                       "real-time-mode stamps)");
        }

        if (in_serve && std::regex_search(line, re_steady_now))
            report(i, "clock-via-obs",
                   "steady_clock::now() in src/serve/; real-time "
                   "stamps must go through the obs::RealClock seam "
                   "(obs/clock.hpp)");

        if (in_src && !in_runtime &&
            std::regex_search(line, re_thread))
            report(i, "no-thread-outside-runtime",
                   "std::thread outside src/runtime/; all "
                   "parallelism must go through the IGCN_THREADS "
                   "thread pool");

        if (std::regex_search(line, re_fastmath))
            report(i, "no-fast-math",
                   "fast-math-style pragma or flag; float "
                   "re-association voids the bit-identity contract");

        if (tagged_deterministic) {
            auto begin = std::sregex_iterator(line.begin(), line.end(),
                                              re_unordered_decl);
            for (auto it = begin; it != std::sregex_iterator(); ++it)
                unordered_names.push_back((*it)[1].str());
            for (const std::string &name : unordered_names) {
                const bool range_for =
                    std::regex_search(
                        line, std::regex(R"(\bfor\s*\([^)]*:\s*)" +
                                         name + R"(\s*\))")) ||
                    std::regex_search(
                        line,
                        std::regex("\\b" + name +
                                   R"(\s*\.\s*c?begin\s*\()"));
                if (range_for) {
                    report(i, "no-unordered-iteration",
                           "iteration over unordered container '" +
                               name +
                               "' in a deterministic file; "
                               "hash-iteration order is "
                               "implementation-defined");
                    break;
                }
            }
        }

        if (is_header && std::regex_search(line, m, re_factory)) {
            const bool marked =
                raw[i].find("[[nodiscard]]") != std::string::npos ||
                (i > 0 &&
                 raw[i - 1].find("[[nodiscard]]") !=
                     std::string::npos);
            // Declarations only: skip call sites (`x.withFoo(...)`,
            // `= fromBar(...)`) by requiring the match to look like
            // a declaration — a type name earlier on the line and no
            // object/scope qualifier directly before the name.
            const size_t pos = static_cast<size_t>(m.position(0));
            const char before = pos > 0 ? line[pos - 1] : ' ';
            const bool qualified = before == '.' || before == ':' ||
                                   before == '>' || before == '(';
            std::string head = line.substr(0, pos);
            const bool has_return_type = std::regex_search(
                head, std::regex(R"(\b[A-Za-z_]\w*\s+$)"));
            const bool is_assignment =
                head.find('=') != std::string::npos;
            if (!marked && !qualified && has_return_type &&
                !is_assignment)
                report(i, "nodiscard-factory",
                       "factory/builder declaration without "
                       "[[nodiscard]]; discarding a builder result "
                       "is always a bug");
        }

        // --- stateful rules (function / loop tracking) ------------
        if (deterministic_scope && loop_depth_floor >= 0 &&
            brace_depth >= loop_depth_floor &&
            std::regex_search(line, re_double_decl))
            report(i, "no-mixed-accumulation",
                   "double accumulator declared inside a loop in a "
                   "deterministic scope; kernel reductions must stay "
                   "in float to preserve bit-identity");

        if (std::regex_search(line, m, re_fresh_decl))
            fresh_locals.push_back(m[1].str());
        if (std::regex_search(line, m, re_mutation))
            pending_mutations.push_back(
                {i, m[1].str(), m[2].str(), "invalidateCsc"});
        if (std::regex_search(line, m, re_dense_mutation))
            pending_mutations.push_back(
                {i, m[1].str(), m[2].str(), "invalidateRowsCsr"});
        std::smatch inv;
        static const std::regex re_invalidate(
            R"((\w+)\.(invalidateCsc|invalidateRowsCsr)\s*\()");
        if (std::regex_search(line, inv, re_invalidate))
            invalidated_calls.push_back(inv[1].str() + "." +
                                        inv[2].str());

        const bool opens_loop = std::regex_search(line, re_for_loop);
        for (const char c : line) {
            if (c == '{') {
                ++brace_depth;
                if (opens_loop && loop_depth_floor < 0)
                    loop_depth_floor = brace_depth;
            } else if (c == '}') {
                --brace_depth;
                if (loop_depth_floor >= 0 &&
                    brace_depth < loop_depth_floor)
                    loop_depth_floor = -1;
                brace_depth = std::max(brace_depth, 0);
            }
        }
    }

    for (const Mutation &mu : pending_mutations) {
        const std::string call = mu.object + "." + mu.invalidator;
        const bool invalidated =
            std::find(invalidated_calls.begin(),
                      invalidated_calls.end(),
                      call) != invalidated_calls.end();
        const bool fresh =
            std::find(fresh_locals.begin(), fresh_locals.end(),
                      mu.object) != fresh_locals.end();
        if (!invalidated && !fresh)
            report(mu.idx, "csc-invalidate",
                   "mutation of '" + mu.object + "." + mu.member +
                       "' without '" + call +
                       "()' in this file; the cached " +
                       (mu.member == "dense" ? "CSR" : "CSC") +
                       " adjunct would go stale");
    }

    std::stable_sort(diags.begin(), diags.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         return a.line < b.line;
                     });
    return diags;
}

} // namespace igcn::lint
