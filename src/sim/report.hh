/**
 * @file
 * Small text-report helper used by the benchmark harnesses: a
 * fixed-width table printer, so every bench binary prints the
 * paper's rows in one consistent format.
 */

#ifndef TPRE_SIM_REPORT_HH
#define TPRE_SIM_REPORT_HH

#include <string>
#include <vector>

namespace tpre
{

/** Accumulates rows and renders an aligned text table. */
class TableReport
{
  public:
    explicit TableReport(std::vector<std::string> headers);

    /** Append one row (must match the header count). */
    void addRow(std::vector<std::string> cells);

    /** Convenience: format a double with @p precision decimals. */
    static std::string num(double value, int precision = 2);
    static std::string num(std::uint64_t value);

    /** Render as an aligned table. */
    std::string render() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace tpre

#endif // TPRE_SIM_REPORT_HH
