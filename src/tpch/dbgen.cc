#include "tpch/dbgen.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "tpch/tpch_schema.h"

namespace midas {
namespace tpch {

namespace {

// Small word pool in the spirit of dbgen's grammar-generated text.
constexpr const char* kWords[] = {
    "furiously", "quickly", "carefully", "blithely", "deposits", "requests",
    "accounts",  "theodolites", "packages", "pending", "express", "special",
    "regular",   "ironic", "final", "bold", "silent", "even", "unusual",
    "instructions"};
constexpr size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);

constexpr const char* kShipModes[] = {"AIR",  "FOB",   "MAIL", "RAIL",
                                      "REG AIR", "SHIP", "TRUCK"};
constexpr const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                     "HOUSEHOLD", "MACHINERY"};
constexpr const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                       "4-NOT SPECIFIED", "5-LOW"};
constexpr const char* kContainers[] = {"SM CASE", "SM BOX", "MED BOX",
                                       "MED BAG", "LG CASE", "LG BOX",
                                       "JUMBO PKG", "WRAP CASE"};

// dbgen date range: 1992-01-01 plus 0..2556 days, in ISO-8601 form.
std::string FormatDate(int64_t day_offset) {
  // Simple proleptic conversion good enough for the 1992-1998 window.
  static constexpr int kDaysInMonth[] = {31, 28, 31, 30, 31, 30,
                                         31, 31, 30, 31, 30, 31};
  int year = 1992;
  int64_t remaining = day_offset;
  auto leap = [](int y) {
    return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
  };
  while (remaining >= (leap(year) ? 366 : 365)) {
    remaining -= leap(year) ? 366 : 365;
    ++year;
  }
  int month = 0;
  while (true) {
    int dim = kDaysInMonth[month] + (month == 1 && leap(year) ? 1 : 0);
    if (remaining < dim) break;
    remaining -= dim;
    ++month;
  }
  // Sized for the full int range so -Wformat-truncation holds under every
  // sanitizer's value-range analysis, not just -O2's.
  char buf[40];
  const int written = std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year,
                                    month + 1, static_cast<int>(remaining) + 1);
  return std::string(buf, written > 0 ? static_cast<size_t>(written) : 0);
}

bool IsPrimaryKey(const std::string& table, const std::string& column) {
  return (table == "region" && column == "r_regionkey") ||
         (table == "nation" && column == "n_nationkey") ||
         (table == "supplier" && column == "s_suppkey") ||
         (table == "customer" && column == "c_custkey") ||
         (table == "part" && column == "p_partkey") ||
         (table == "orders" && column == "o_orderkey");
}

// Longest entry in kWords, for one-shot reservations.
constexpr size_t kMaxWordLen = 12;  // "instructions"

/// Builds filler text of `width` bytes from the word pool. One reserve
/// covers the worst-case overshoot before the final trim.
std::string MakeText(Rng* rng, double width) {
  std::string out;
  const size_t target = static_cast<size_t>(width);
  out.reserve(target + kMaxWordLen + 1);
  while (out.size() < target) {
    if (!out.empty()) out += ' ';
    out += kWords[rng->Index(kNumWords)];
  }
  if (out.size() > target && target > 0) out.resize(target);
  return out;
}

template <size_t N>
const char* Pick(Rng* rng, const char* const (&values)[N]) {
  return values[rng->Index(N)];
}

}  // namespace

DbGen::DbGen(double scale_factor, uint64_t seed)
    : scale_factor_(scale_factor), seed_(seed) {
  auto catalog = MakeCatalog(scale_factor > 0.0 ? scale_factor : 1.0);
  if (catalog.ok()) catalog_ = std::move(catalog).ValueOrDie();
}

StatusOr<const TableDef*> DbGen::FindTable(const std::string& table) const {
  if (scale_factor_ <= 0.0) {
    return Status::InvalidArgument("scale factor must be positive");
  }
  return catalog_.Find(table);
}

StatusOr<uint64_t> DbGen::RowCount(const std::string& table) const {
  MIDAS_ASSIGN_OR_RETURN(const TableDef* def, FindTable(table));
  return def->row_count;
}

StatusOr<Row> DbGen::GenerateRow(const std::string& table,
                                 uint64_t index) const {
  MIDAS_ASSIGN_OR_RETURN(const TableDef* def, FindTable(table));
  if (index >= def->row_count) {
    return Status::OutOfRange("row index beyond table cardinality");
  }
  // Per-row deterministic stream: row i never depends on rows < i.
  Rng rng(seed_ ^ (std::hash<std::string>{}(table) + index * 0x9E3779B97F4A7C15ull));
  Row row;
  row.reserve(def->columns.size());
  for (const ColumnDef& col : def->columns) {
    if (IsPrimaryKey(table, col.name)) {
      row.emplace_back(static_cast<int64_t>(index + 1));
      continue;
    }
    switch (col.type) {
      case ColumnType::kInt: {
        // Foreign keys & categorical ints: uniform over the NDV domain.
        const int64_t ndv = static_cast<int64_t>(
            std::max<uint64_t>(1, col.distinct_values));
        row.emplace_back(rng.UniformInt(1, ndv));
        break;
      }
      case ColumnType::kDouble: {
        row.emplace_back(std::round(rng.Uniform(1.0, 100000.0) * 100.0) /
                         100.0);
        break;
      }
      case ColumnType::kDate: {
        row.emplace_back(FormatDate(rng.UniformInt(0, 2556)));
        break;
      }
      case ColumnType::kString: {
        if (col.name == "l_shipmode") {
          row.emplace_back(Pick(&rng, kShipModes));
        } else if (col.name == "c_mktsegment") {
          row.emplace_back(Pick(&rng, kSegments));
        } else if (col.name == "o_orderpriority") {
          row.emplace_back(Pick(&rng, kPriorities));
        } else if (col.name == "p_container") {
          row.emplace_back(Pick(&rng, kContainers));
        } else if (col.name == "p_brand") {
          row.emplace_back("Brand#" +
                           std::to_string(rng.UniformInt(11, 55)));
        } else {
          row.emplace_back(MakeText(&rng, col.avg_width_bytes));
        }
        break;
      }
    }
  }
  return row;
}

Status DbGen::Generate(
    const std::string& table,
    const std::function<bool(uint64_t, const Row&)>& sink) const {
  MIDAS_ASSIGN_OR_RETURN(uint64_t rows, RowCount(table));
  for (uint64_t i = 0; i < rows; ++i) {
    MIDAS_ASSIGN_OR_RETURN(Row row, GenerateRow(table, i));
    if (!sink(i, row)) break;
  }
  return Status::OK();
}

StatusOr<std::vector<Row>> DbGen::GenerateAll(const std::string& table,
                                              uint64_t limit) const {
  std::vector<Row> out;
  MIDAS_RETURN_IF_ERROR(
      Generate(table, [&](uint64_t, const Row& row) {
        out.push_back(row);
        return limit == 0 || out.size() < limit;
      }));
  return out;
}

std::string DbGen::FormatRow(const Row& row) {
  std::ostringstream os;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) os << '|';
    if (const auto* v = std::get_if<int64_t>(&row[i])) {
      os << *v;
    } else if (const auto* d = std::get_if<double>(&row[i])) {
      os << *d;
    } else {
      os << std::get<std::string>(row[i]);
    }
  }
  return os.str();
}

Status DbGen::WriteTbl(const std::string& table,
                       const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot open " + path);
  MIDAS_RETURN_IF_ERROR(Generate(table, [&](uint64_t, const Row& row) {
    out << FormatRow(row) << "|\n";
    return static_cast<bool>(out);
  }));
  if (!out) return Status::Internal("write failed: " + path);
  return Status::OK();
}

}  // namespace tpch
}  // namespace midas
