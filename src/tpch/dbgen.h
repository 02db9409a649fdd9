#ifndef MIDAS_TPCH_DBGEN_H_
#define MIDAS_TPCH_DBGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "common/random.h"
#include "query/schema.h"

namespace midas {
namespace tpch {

/// A generated cell value.
using Value = std::variant<int64_t, double, std::string>;
/// A generated row, one Value per column of the table definition.
using Row = std::vector<Value>;

/// \brief Deterministic TPC-H-like data generator.
///
/// Synthesises rows matching the catalog's schema: sequential primary keys,
/// foreign keys uniform over the referenced domain, dates uniform over the
/// dbgen date range, strings drawn from a fixed word pool padded to the
/// declared width, and numeric columns uniform over plausible ranges. The
/// same (table, scale factor, seed) always produces identical rows, and
/// row i can be generated independently of rows < i.
class DbGen {
 public:
  explicit DbGen(double scale_factor, uint64_t seed = 2019);

  double scale_factor() const { return scale_factor_; }
  uint64_t seed() const { return seed_; }
  const Catalog& catalog() const { return catalog_; }

  /// Number of rows this generator will produce for `table`.
  StatusOr<uint64_t> RowCount(const std::string& table) const;

  /// Generates row `index` (0-based) of `table`.
  StatusOr<Row> GenerateRow(const std::string& table, uint64_t index) const;

  /// Streams all rows of `table` through `sink`, stopping early if `sink`
  /// returns false. Memory use is O(1) rows.
  Status Generate(const std::string& table,
                  const std::function<bool(uint64_t, const Row&)>& sink) const;

  /// Materialises up to `limit` rows (0 = all). Intended for tests and
  /// small scale factors.
  StatusOr<std::vector<Row>> GenerateAll(const std::string& table,
                                         uint64_t limit = 0) const;

  /// Writes `table` in dbgen's pipe-separated .tbl format.
  Status WriteTbl(const std::string& table, const std::string& path) const;

  /// Renders one row pipe-separated (dbgen .tbl line, no trailing newline).
  static std::string FormatRow(const Row& row);

 private:
  StatusOr<const TableDef*> FindTable(const std::string& table) const;

  double scale_factor_;
  uint64_t seed_;
  Catalog catalog_;
};

}  // namespace tpch
}  // namespace midas

#endif  // MIDAS_TPCH_DBGEN_H_
