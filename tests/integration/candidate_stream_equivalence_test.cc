// Candidate stream == materialized enumeration: every candidate the
// closed-form stream (EnumerationShard::StreamCandidates) emits must carry
// the feature row ExtractFeatures computes on the plan EnumeratePhysical
// emits at the same sequence number, bit for bit; Materialize must rebuild
// exactly those plans; the shard streams must reassemble the serial
// stream; and, keyed by the feature row, the leader strata plus the alias
// copies must reproduce every serial row. The grid covers both paper
// federations, Example 2.1, the four TPC-H paper queries, a three-table
// join with two scans at one site (whose per-variant scan-byte summation
// order differs) and a scan-only plan (whose compute site hosts nothing),
// at the default and the 1–16 VM-count sets (cloud-B's max of 8 makes
// picks infeasible), uncapped and with a max_plans cap that cuts a
// stratum.

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ires/features.h"
#include "midas/medical.h"
#include "query/enumerator.h"
#include "tpch/queries.h"
#include "tpch/tpch_schema.h"

namespace midas {
namespace {

struct Scenario {
  std::string name;
  Federation federation;
  Catalog catalog;
  QueryPlan logical;
};

Federation MakeFederation(bool three_clouds) {
  return three_clouds ? Federation::ThreeCloudFederation()
                      : Federation::PaperFederation();
}

// (Patient ⋈ GeneralInfo) ⋈ LabResult: Patient and LabResult both live
// on cloud-A, so data_mib_A sums two scans whose order flips with the
// join-order variant.
QueryPlan ThreeTableJoin() {
  auto patients_admissions = MakeJoin(MakeScan("Patient"),
                                      MakeScan("GeneralInfo"), "UID", "UID");
  auto labs = MakeScan("LabResult");
  labs->scan_fraction = 0.37;
  return QueryPlan(MakeAggregate(
      MakeJoin(std::move(patients_admissions), std::move(labs), "UID", "UID"),
      /*num_groups=*/25));
}

std::vector<Scenario> MakeScenarios() {
  std::vector<Scenario> scenarios;
  for (bool three_clouds : {false, true}) {
    const std::string fed = three_clouds ? "three-cloud" : "paper";
    {
      Scenario s{fed + "/example-2.1", MakeFederation(three_clouds),
                 MakeMedicalCatalog(0.05).ValueOrDie(),
                 MakeExample21Query().ValueOrDie()};
      PlaceMedicalTables(&s.federation).CheckOK();
      scenarios.push_back(std::move(s));
    }
    {
      Scenario s{fed + "/three-table-join", MakeFederation(three_clouds),
                 MakeMedicalCatalog(0.05).ValueOrDie(), ThreeTableJoin()};
      PlaceMedicalTables(&s.federation).CheckOK();
      scenarios.push_back(std::move(s));
    }
    {
      // Scan only: a remote compute site takes part in the pick but hosts
      // no operator, so its nodes_<site> feature must stay 0.
      Scenario s{fed + "/scan-only", MakeFederation(three_clouds),
                 MakeMedicalCatalog(0.05).ValueOrDie(),
                 QueryPlan(MakeScan("GeneralInfo"))};
      PlaceMedicalTables(&s.federation).CheckOK();
      scenarios.push_back(std::move(s));
    }
    for (int q : tpch::PaperQueryIds()) {
      Scenario s{fed + "/tpch-q" + std::to_string(q),
                 MakeFederation(three_clouds),
                 tpch::MakeCatalog(0.01).ValueOrDie(),
                 tpch::MakeQuery(q).ValueOrDie()};
      const auto tables = tpch::QueryTables(q).ValueOrDie();
      const SiteId a = s.federation.FindSiteByName("cloud-A").ValueOrDie();
      const SiteId b = s.federation.FindSiteByName("cloud-B").ValueOrDie();
      s.federation.PlaceTable(tables.first, b, EngineKind::kPostgres)
          .CheckOK();
      s.federation.PlaceTable(tables.second, a, EngineKind::kHive).CheckOK();
      scenarios.push_back(std::move(s));
    }
  }
  return scenarios;
}

std::vector<int> CountsUpTo(int n) {
  std::vector<int> counts(static_cast<size_t>(n));
  std::iota(counts.begin(), counts.end(), 1);
  return counts;
}

bool BitwiseEqual(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void ExpectSamePlan(const QueryPlan& got, const QueryPlan& want,
                    const std::string& label) {
  EXPECT_EQ(got.ToString(), want.ToString()) << label;
  const std::vector<const PlanNode*> got_nodes = got.Nodes();
  const std::vector<const PlanNode*> want_nodes = want.Nodes();
  ASSERT_EQ(got_nodes.size(), want_nodes.size()) << label;
  for (size_t k = 0; k < got_nodes.size(); ++k) {
    EXPECT_EQ(got_nodes[k]->site, want_nodes[k]->site) << label;
    EXPECT_EQ(got_nodes[k]->engine, want_nodes[k]->engine) << label;
    EXPECT_EQ(got_nodes[k]->num_nodes, want_nodes[k]->num_nodes) << label;
    EXPECT_EQ(got_nodes[k]->output_rows, want_nodes[k]->output_rows) << label;
    EXPECT_EQ(got_nodes[k]->output_bytes, want_nodes[k]->output_bytes)
        << label;
  }
}

// The stream's view of every candidate, indexed by sequence number.
struct StreamedCandidate {
  bool seen = false;
  Vector row;
  std::string template_string;
};

Status CollectStream(const Federation& federation,
                     const EnumerationShard& shard, size_t chunk_size,
                     std::vector<StreamedCandidate>* out, uint64_t* emitted) {
  const auto visit = [&](const CandidateChunk& chunk) -> Status {
    std::vector<Vector> template_rows;
    for (const auto& plan_template : chunk.templates) {
      MIDAS_ASSIGN_OR_RETURN(Vector row,
                             ExtractFeatures(federation, *plan_template));
      template_rows.push_back(std::move(row));
    }
    for (size_t t = 0; t < chunk.templates.size(); ++t) {
      // A keyed stream carries each template's feature row as its key.
      if (!chunk.keys[t]->empty() &&
          !BitwiseEqual(*chunk.keys[t], template_rows[t])) {
        return Status::Internal("template key is not its feature row");
      }
    }
    for (size_t i = 0; i < chunk.size(); ++i) {
      const uint64_t seq = chunk.seqs[i];
      if (seq >= out->size()) return Status::OutOfRange("seq past the end");
      StreamedCandidate& c = (*out)[seq];
      if (c.seen) return Status::AlreadyExists("seq emitted twice");
      c.seen = true;
      const Vector& template_row = template_rows[chunk.template_of[i]];
      c.row.resize(template_row.size());
      CandidateFeaturesInto(template_row, chunk.nodes(i), c.row.data());
      c.template_string = chunk.templates[chunk.template_of[i]]->ToString();
    }
    *emitted += chunk.size();
    return Status::OK();
  };
  return shard.StreamCandidates(chunk_size, visit);
}

void CheckStreamMatchesEnumeration(const Scenario& s,
                                   const EnumeratorOptions& options,
                                   const std::string& label) {
  SCOPED_TRACE(label);
  PlanEnumerator enumerator(&s.federation, &s.catalog, options);
  auto all = enumerator.EnumeratePhysical(s.logical);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  const size_t n = all->size();

  // Serial stream (the one-shard partition): dense, in order, rows
  // bitwise equal to ExtractFeatures.
  auto space = enumerator.Resolve(s.logical);
  ASSERT_TRUE(space.ok());
  ASSERT_EQ((*space)->size(), n);
  std::vector<StreamedCandidate> serial(n);
  uint64_t emitted = 0;
  ASSERT_TRUE(CollectStream(s.federation,
                            (*space)->PartitionShards(1)->front(),
                            /*chunk_size=*/977, &serial, &emitted)
                  .ok());
  ASSERT_EQ(emitted, n);
  size_t row_mismatches = 0;
  for (size_t seq = 0; seq < n; ++seq) {
    auto want = ExtractFeatures(s.federation, (*all)[seq]);
    ASSERT_TRUE(want.ok());
    if (!BitwiseEqual(serial[seq].row, *want)) ++row_mismatches;
  }
  EXPECT_EQ(row_mismatches, 0u);

  // Materialize: every sequence number, requested in shuffled order.
  std::vector<uint64_t> seqs(n);
  std::iota(seqs.begin(), seqs.end(), uint64_t{0});
  Rng rng(n);
  for (size_t i = n; i > 1; --i) std::swap(seqs[i - 1], seqs[rng.Index(i)]);
  auto rebuilt = (*space)->Materialize(seqs);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  ASSERT_EQ(rebuilt->size(), n);
  for (size_t i = 0; i < n; ++i) {
    ExpectSamePlan((*rebuilt)[i], (*all)[seqs[i]],
                   "seq " + std::to_string(seqs[i]));
    if (::testing::Test::HasFailure()) return;
  }

  // Shard streams reassemble the serial stream.
  auto shards = (*space)->PartitionShards(3);
  ASSERT_TRUE(shards.ok());
  std::vector<StreamedCandidate> sharded(n);
  uint64_t sharded_emitted = 0;
  for (const EnumerationShard& shard : *shards) {
    ASSERT_TRUE(CollectStream(s.federation, shard, /*chunk_size=*/301,
                              &sharded, &sharded_emitted)
                    .ok());
  }
  ASSERT_EQ(sharded_emitted, n);
  for (size_t seq = 0; seq < n; ++seq) {
    ASSERT_TRUE(sharded[seq].seen) << "seq " << seq;
    EXPECT_TRUE(BitwiseEqual(sharded[seq].row, serial[seq].row))
        << "seq " << seq;
    EXPECT_EQ(sharded[seq].template_string, serial[seq].template_string)
        << "seq " << seq;
  }

  // Keyed by the feature row (the served path): the shards stream the
  // leader strata only, and every alias candidate's feature row is its
  // leader's at the same rank, so the leaders' rows plus the alias copies
  // are the serial rows bit for bit.
  auto keyed = enumerator.Resolve(
      s.logical, [&s](const QueryPlan& plan_template) {
        return ExtractFeatures(s.federation, plan_template);
      });
  ASSERT_TRUE(keyed.ok()) << keyed.status().ToString();
  ASSERT_EQ((*keyed)->size(), n);
  std::vector<StreamedCandidate> leaders(n);
  uint64_t leader_emitted = 0;
  for (const EnumerationShard& shard :
       (*keyed)->PartitionShards(3).ValueOrDie()) {
    ASSERT_TRUE(CollectStream(s.federation, shard, /*chunk_size=*/301,
                              &leaders, &leader_emitted)
                    .ok());
  }
  EXPECT_EQ(leader_emitted, (*keyed)->leader_size());
  size_t alias_mismatches = 0;
  for (const PlanSpace::Stratum& stratum : (*keyed)->strata()) {
    for (uint64_t r = 0; r < stratum.feasible; ++r) {
      const uint64_t seq = stratum.seq_base + r;
      const StreamedCandidate& source = leaders[stratum.leader_base + r];
      EXPECT_EQ(leaders[seq].seen, !stratum.aliased()) << "seq " << seq;
      if (!source.seen || !BitwiseEqual(source.row, serial[seq].row)) {
        ++alias_mismatches;
      }
    }
  }
  EXPECT_EQ(alias_mismatches, 0u);
}

TEST(CandidateStreamEquivalenceTest, MatchesEnumeratePhysicalAcrossGrid) {
  for (const Scenario& s : MakeScenarios()) {
    for (const auto& [counts_name, counts] :
         {std::pair<std::string, std::vector<int>>{"1,2,4,8", {1, 2, 4, 8}},
          std::pair<std::string, std::vector<int>>{"1-16", CountsUpTo(16)}}) {
      EnumeratorOptions options;
      options.node_counts = counts;
      CheckStreamMatchesEnumeration(s, options,
                                    s.name + " counts=" + counts_name);
    }
  }
}

TEST(CandidateStreamEquivalenceTest, MaxPlansCapCuttingAStratum) {
  for (const Scenario& s : MakeScenarios()) {
    EnumeratorOptions options;
    options.node_counts = CountsUpTo(16);
    PlanEnumerator uncapped(&s.federation, &s.catalog, options);
    auto space = uncapped.Resolve(s.logical);
    ASSERT_TRUE(space.ok());
    // Cap halfway through the second non-empty stratum.
    const std::vector<PlanSpace::Stratum>& strata = (*space)->strata();
    ASSERT_GE(strata.size(), 2u) << s.name;
    ASSERT_GE(strata[1].feasible, 2u) << s.name;
    options.max_plans = strata[1].seq_base + strata[1].feasible / 2;
    CheckStreamMatchesEnumeration(
        s, options, s.name + " max_plans=" + std::to_string(options.max_plans));
  }
}

}  // namespace
}  // namespace midas
