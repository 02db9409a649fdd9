#ifndef MIDAS_TPCH_TPCH_SCHEMA_H_
#define MIDAS_TPCH_TPCH_SCHEMA_H_

#include "query/schema.h"

namespace midas {
namespace tpch {

/// TPC-H base-table row counts at scale factor 1 (SF 1 = 1 GB).
inline constexpr uint64_t kRegionRows = 5;
inline constexpr uint64_t kNationRows = 25;
inline constexpr uint64_t kSupplierRowsSf1 = 10'000;
inline constexpr uint64_t kCustomerRowsSf1 = 150'000;
inline constexpr uint64_t kPartRowsSf1 = 200'000;
inline constexpr uint64_t kPartSuppRowsSf1 = 800'000;
inline constexpr uint64_t kOrdersRowsSf1 = 1'500'000;
inline constexpr uint64_t kLineitemRowsSf1 = 6'000'000;

/// The paper's two dataset sizes: "100MiB" is SF 0.1 and "1GiB" is SF 1.
inline constexpr double kScaleFactor100MiB = 0.1;
inline constexpr double kScaleFactor1GiB = 1.0;

/// \brief Builds the full eight-table TPC-H catalog at the given scale
/// factor: exact cardinalities, realistic column widths, and the NDV
/// statistics the selectivity estimator relies on.
StatusOr<Catalog> MakeCatalog(double scale_factor);

}  // namespace tpch
}  // namespace midas

#endif  // MIDAS_TPCH_TPCH_SCHEMA_H_
