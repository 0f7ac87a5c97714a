/**
 * @file
 * Shared helpers for the bench drivers (experiments, fuzz): text
 * tables, headers and the JSON footer.
 */

#ifndef KINDLE_BENCH_BENCH_UTIL_HH
#define KINDLE_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/str.hh"
#include "base/types.hh"
#include "runner/sweep_runner.hh"

namespace kindle::bench
{

/** Abort the bench if any sweep point failed. */
inline void
requireAllOk(const std::vector<runner::RunResult> &results)
{
    for (const auto &r : results) {
        if (!r.ok)
            kindle_fatal("sweep point '{}' failed: {}", r.name,
                         r.error);
    }
}

/** Footer naming the JSON record a runner bench produced. */
inline void
printJsonFooter(const std::string &path, unsigned jobs)
{
    std::printf("\nStructured results: %s (ran with %u jobs)\n",
                path.c_str(), jobs);
}

/** Print a rule + centered header naming the reproduced artifact. */
inline void
printHeader(const std::string &artifact, const std::string &desc)
{
    std::printf("\n================================================="
                "=============\n");
    std::printf("  %s — %s\n", artifact.c_str(), desc.c_str());
    std::printf("==================================================="
                "===========\n");
}

/** Print a fixed-width table: @p columns, a rule, then @p rows. */
inline void
printTable(const std::vector<std::string> &columns,
           const std::vector<std::vector<std::string>> &rows)
{
    std::vector<std::size_t> widths(columns.size());
    for (std::size_t c = 0; c < columns.size(); ++c)
        widths[c] = columns[c].size();
    for (const auto &row : rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        std::printf("  ");
        for (std::size_t c = 0; c < row.size(); ++c)
            std::printf("%-*s  ", static_cast<int>(widths[c]),
                        row[c].c_str());
        std::printf("\n");
    };
    print_row(columns);
    std::vector<std::string> rule;
    for (const auto w : widths)
        rule.push_back(std::string(w, '-'));
    print_row(rule);
    for (const auto &row : rows)
        print_row(row);
}

/** Format ticks as milliseconds with 3 decimals. */
inline std::string
ms(Tick t)
{
    return fixed(ticksToMs(t), 3);
}

/** Format a ratio like "3.42x". */
inline std::string
ratio(double r)
{
    return fixed(r, 2) + "x";
}

} // namespace kindle::bench

#endif // KINDLE_BENCH_BENCH_UTIL_HH
