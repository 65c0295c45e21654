#include "sim/report.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/logging.hh"

namespace tpre
{

TableReport::TableReport(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    tpre_assert(!headers_.empty());
}

void
TableReport::addRow(std::vector<std::string> cells)
{
    tpre_assert(cells.size() == headers_.size(),
                "row width does not match headers");
    rows_.push_back(std::move(cells));
}

std::string
TableReport::num(double value, int precision)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

std::string
TableReport::num(std::uint64_t value)
{
    return std::to_string(value);
}

std::string
TableReport::render() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto emit_row = [&](const std::vector<std::string> &cells) {
        std::string line;
        for (std::size_t c = 0; c < cells.size(); ++c) {
            line += cells[c];
            line.append(widths[c] - cells[c].size() + 2, ' ');
        }
        while (!line.empty() && line.back() == ' ')
            line.pop_back();
        return line + '\n';
    };

    std::string out = emit_row(headers_);
    std::string rule;
    for (std::size_t c = 0; c < widths.size(); ++c)
        rule += std::string(widths[c], '-') + "  ";
    out += rule.substr(0, rule.size() - 2) + '\n';
    for (const auto &row : rows_)
        out += emit_row(row);
    return out;
}

} // namespace tpre
