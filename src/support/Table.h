//===- Table.h - ASCII table rendering for experiment output ---*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal ASCII table builder used by the benchmark harnesses to print the
/// rows/series the paper's figures and tables report. Avoids <iostream> in
/// library code per the LLVM guidelines; rendering produces a std::string the
/// caller prints.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_SUPPORT_TABLE_H
#define TRIDENT_SUPPORT_TABLE_H

#include <string>
#include <vector>

namespace trident {

/// Column-aligned ASCII table. Add a header once, then rows of equal arity.
// trident-analyze: not-a-hw-table(render-time report builder, rows are
// bounded by the workload list, not a modeled SRAM)
class Table {
public:
  explicit Table(std::vector<std::string> Header);

  /// Appends one row; must have the same number of cells as the header.
  void addRow(std::vector<std::string> Row);

  /// Inserts a horizontal rule before the next appended row.
  void addSeparator();

  /// Renders the table with column alignment; numeric-looking cells are
  /// right-aligned, everything else left-aligned.
  std::string render() const;

  size_t numRows() const { return Rows.size(); }

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows; // empty row == separator
};

/// Formats \p Value with \p Decimals fractional digits ("%.*f").
std::string formatDouble(double Value, int Decimals = 2);

/// Formats \p Fraction (0..1) as a percentage string like "23.4%".
std::string formatPercent(double Fraction, int Decimals = 1);

} // namespace trident

#endif // TRIDENT_SUPPORT_TABLE_H
