/**
 * @file
 * Fault-campaign scorecards built straight from RunResults. One row
 * per run: the caller's label cells (workload, arch, ...), then one
 * column per RunResult counter, then pass/fail flags printed as
 * yes/NO. With more than one row a TOTAL row follows: each label
 * column shows its fixed total text, each counter sums (or keeps
 * its maximum), and each flag holds only if it held on every row.
 */

#ifndef CCNUMA_BENCH_FAULT_TABLE_HH
#define CCNUMA_BENCH_FAULT_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "report/table.hh"
#include "system/machine.hh"

namespace ccnuma
{
namespace bench
{

class FaultTable
{
  public:
    /** A label column and the text of its cell in the TOTAL row. */
    struct Label
    {
        const char *header;
        const char *total;
    };

    /** A column reading one RunResult counter. */
    struct Counter
    {
        template <typename T>
        Counter(const char *h, T RunResult::*field, bool keep_max = false)
            : header(h),
              get([field](const RunResult &r) {
                  return static_cast<std::int64_t>(r.*field);
              }),
              max(keep_max)
        {}

        const char *header;
        std::function<std::int64_t(const RunResult &)> get;
        bool max; ///< TOTAL keeps the maximum instead of the sum
    };

    FaultTable(std::vector<Label> labels, std::vector<Counter> counters,
               std::vector<const char *> flags)
        : labels_(std::move(labels)), counters_(std::move(counters)),
          flags_(std::move(flags)), totals_(counters_.size(), 0),
          allHeld_(flags_.size(), true)
    {}

    /** Add the row of run @p r (cells in column order). */
    void
    addRow(std::vector<std::string> labels, const RunResult &r,
           const std::vector<bool> &flags)
    {
        std::vector<std::int64_t> values;
        for (std::size_t i = 0; i < counters_.size(); ++i) {
            const std::int64_t v = counters_[i].get(r);
            values.push_back(v);
            totals_[i] = counters_[i].max ? std::max(totals_[i], v)
                                          : totals_[i] + v;
        }
        for (std::size_t i = 0; i < flags.size(); ++i)
            allHeld_[i] = allHeld_[i] && flags[i];
        rows_.push_back(cells(std::move(labels), values, flags));
    }

    /** The rendered table, with the TOTAL row when > 1 row. */
    report::Table
    table() const
    {
        std::vector<std::string> headers;
        for (const Label &l : labels_)
            headers.push_back(l.header);
        for (const Counter &c : counters_)
            headers.push_back(c.header);
        for (const char *f : flags_)
            headers.push_back(f);
        report::Table t(std::move(headers));
        for (const auto &row : rows_)
            t.addRow(row);
        if (rows_.size() > 1) {
            std::vector<std::string> labels;
            for (const Label &l : labels_)
                labels.push_back(l.total);
            t.addRow(cells(std::move(labels), totals_, allHeld_));
        }
        return t;
    }

  private:
    static std::vector<std::string>
    cells(std::vector<std::string> labels,
          const std::vector<std::int64_t> &values,
          const std::vector<bool> &flags)
    {
        for (std::int64_t v : values)
            labels.push_back(report::fmt("%lld", static_cast<long long>(v)));
        for (bool f : flags)
            labels.push_back(f ? "yes" : "NO");
        return labels;
    }

    std::vector<Label> labels_;
    std::vector<Counter> counters_;
    std::vector<const char *> flags_;
    std::vector<std::vector<std::string>> rows_;
    std::vector<std::int64_t> totals_;
    std::vector<bool> allHeld_;
};

} // namespace bench
} // namespace ccnuma

#endif // CCNUMA_BENCH_FAULT_TABLE_HH
