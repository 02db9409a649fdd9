#include "ires/features.h"

#include <algorithm>

namespace midas {

namespace {

constexpr double kBytesPerMib = 1024.0 * 1024.0;

// Bytes each scan reads at its site (post partition pruning).
void AccumulateScannedBytes(const PlanNode& node,
                            std::vector<double>* per_site) {
  if (node.kind == OperatorKind::kScan && node.site.has_value()) {
    if (*node.site < per_site->size()) {
      (*per_site)[*node.site] += node.output_bytes;
    }
  }
  for (const auto& child : node.children) {
    AccumulateScannedBytes(*child, per_site);
  }
}

}  // namespace

StatusOr<Vector> ExtractFeatures(const Federation& federation,
                                 const QueryPlan& plan) {
  if (plan.empty()) return Status::InvalidArgument("empty plan");
  const size_t n_sites = federation.num_sites();
  std::vector<double> data_bytes(n_sites, 0.0);
  std::vector<double> nodes(n_sites, 0.0);

  for (const PlanNode* node : plan.Nodes()) {
    if (!node->site.has_value() || !node->engine.has_value()) {
      return Status::InvalidArgument(
          "plan lacks physical annotations; enumerate first");
    }
    if (*node->site >= n_sites) {
      return Status::OutOfRange("plan references unknown site");
    }
    nodes[*node->site] =
        std::max(nodes[*node->site], static_cast<double>(node->num_nodes));
  }
  AccumulateScannedBytes(*plan.root(), &data_bytes);

  Vector features;
  features.reserve(2 * n_sites);
  for (size_t s = 0; s < n_sites; ++s) {
    features.push_back(data_bytes[s] / kBytesPerMib);
    features.push_back(nodes[s]);
  }
  return features;
}

void CandidateFeaturesInto(const Vector& template_row, const int* site_nodes,
                           double* out) {
  const size_t n_sites = template_row.size() / 2;
  for (size_t s = 0; s < n_sites; ++s) {
    out[2 * s] = template_row[2 * s];
    out[2 * s + 1] = template_row[2 * s + 1] != 0.0
                         ? static_cast<double>(site_nodes[s])
                         : 0.0;
  }
}

std::vector<std::string> FeatureNames(const Federation& federation) {
  std::vector<std::string> names;
  names.reserve(2 * federation.num_sites());
  for (const CloudSite& site : federation.sites()) {
    names.push_back("data_mib_" + site.name());
    names.push_back("nodes_" + site.name());
  }
  return names;
}

}  // namespace midas
