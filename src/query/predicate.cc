#include "query/predicate.h"

#include <algorithm>

namespace midas {

std::string CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kBetween:
      return "BETWEEN";
    case CompareOp::kLike:
      return "LIKE";
  }
  return "?";
}

StatusOr<double> EstimateSelectivity(const TableDef& table,
                                     const Predicate& predicate) {
  if (predicate.selectivity_override.has_value()) {
    const double s = *predicate.selectivity_override;
    if (!(s >= 0.0 && s <= 1.0)) {  // NaN fails too
      return Status::InvalidArgument("selectivity override outside [0, 1]");
    }
    return s;
  }
  MIDAS_ASSIGN_OR_RETURN(const ColumnDef* col,
                         table.FindColumn(predicate.column));
  const double ndv = std::max<double>(1.0, col->distinct_values);
  switch (predicate.op) {
    case CompareOp::kEq:
      return 1.0 / ndv;
    case CompareOp::kNe:
      return 1.0 - 1.0 / ndv;
    case CompareOp::kLt:
    case CompareOp::kLe:
    case CompareOp::kGt:
    case CompareOp::kGe:
      return 1.0 / 3.0;
    case CompareOp::kBetween:
      return 1.0 / 4.0;
    case CompareOp::kLike:
      return 1.0 / 10.0;
  }
  return Status::Internal("unhandled compare op");
}

StatusOr<double> EstimateConjunctionSelectivity(
    const TableDef& table, const std::vector<Predicate>& predicates) {
  double s = 1.0;
  for (const Predicate& p : predicates) {
    MIDAS_ASSIGN_OR_RETURN(double ps, EstimateSelectivity(table, p));
    s *= ps;
  }
  return std::clamp(s, 0.0, 1.0);
}

}  // namespace midas
