#ifndef MIDAS_IRES_FEATURES_H_
#define MIDAS_IRES_FEATURES_H_

#include <string>
#include <vector>

#include "federation/federation.h"
#include "linalg/matrix.h"
#include "query/plan.h"

namespace midas {

/// \brief Regression features of a physical plan — exactly Example 2.1's
/// variables, generalised per federation site:
///   data_mib_<site> — MiB of base data the plan scans at the site (after
///                     partition pruning): the x_Pa / x_Ge "size of data"
///                     variables;
///   nodes_<site>    — VMs the plan holds there: x_nodeA / x_nodeB.
///
/// Arity is fixed at 2 × num_sites for a given federation, so one MLR can
/// be fitted per query template ("our cost functions are functions of the
/// size of data", §3). Constant columns (a table whose size never varies)
/// are harmless: the OLS fit is rank-revealing.
///
/// Requires the plan's cardinalities to be estimated and its physical
/// annotations set (the enumerator produces both).
StatusOr<Vector> ExtractFeatures(const Federation& federation,
                                 const QueryPlan& plan);

/// Feature row of one candidate of the plan-space stream (CandidateChunk
/// in query/enumerator.h), written to `out` (template_row.size() values):
/// `template_row` is ExtractFeatures of the candidate's template and
/// `site_nodes` the VM count its pick gives each federation site. The
/// data_mib_* columns depend only on the template's scans, and every
/// operator at a site runs with that site's count, so this equals
/// ExtractFeatures of the materialized candidate bit for bit: nodes_<site>
/// takes the pick's count wherever the template hosts an operator and
/// stays 0 elsewhere.
void CandidateFeaturesInto(const Vector& template_row, const int* site_nodes,
                           double* out);

/// Names matching ExtractFeatures' layout.
std::vector<std::string> FeatureNames(const Federation& federation);

}  // namespace midas

#endif  // MIDAS_IRES_FEATURES_H_
