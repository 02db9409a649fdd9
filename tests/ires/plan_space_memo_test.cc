// The optimizer's memo of feature-keyed plan spaces
// (MultiObjectiveOptimizer::FeatureSpace): a repeated logical plan is
// resolved once, every memoised space equals a fresh
// PlanEnumerator::Resolve bit for bit, plans that differ in any one field
// get their own space, the memo stays bounded, and errors are never kept.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ires/features.h"
#include "ires/moo_optimizer.h"
#include "midas/medical.h"
#include "query/enumerator.h"

namespace midas {
namespace {

constexpr size_t kCapacity = MultiObjectiveOptimizer::kPlanSpaceMemoCapacity;

struct MemoEnv {
  Federation federation;
  Catalog catalog;
  MoqpOptions options;
};

MemoEnv MakeMemoEnv(bool three_clouds) {
  MemoEnv setup{three_clouds ? Federation::ThreeCloudFederation()
                             : Federation::PaperFederation(),
                MakeMedicalCatalog(/*scale=*/0.05).ValueOrDie(),
                MoqpOptions()};
  PlaceMedicalTables(&setup.federation).CheckOK();
  if (three_clouds) {
    setup.options.enumerator.node_counts.clear();
    for (int n = 1; n <= 16; ++n) {
      setup.options.enumerator.node_counts.push_back(n);
    }
  }
  return setup;
}

// The space Optimize(BatchCostPredictor) streams, resolved afresh.
std::shared_ptr<const PlanSpace> FreshResolve(const MemoEnv& setup,
                                              const QueryPlan& logical) {
  const PlanEnumerator enumerator(&setup.federation, &setup.catalog,
                                  setup.options.enumerator);
  const Federation* federation = &setup.federation;
  return enumerator
      .Resolve(logical,
               [federation](const QueryPlan& plan_template) {
                 return ExtractFeatures(*federation, plan_template);
               })
      .ValueOrDie();
}

// Asks the memo for `logical` until it is admitted (its second sighting).
std::shared_ptr<const PlanSpace> Admit(const MultiObjectiveOptimizer& optimizer,
                                       const QueryPlan& logical) {
  optimizer.FeatureSpace(logical).status().CheckOK();
  return optimizer.FeatureSpace(logical).ValueOrDie();
}

struct StreamedCandidate {
  uint64_t seq;
  const QueryPlan* plan_template;
  const TemplateKey* key;
  std::vector<int> site_nodes;
};

std::vector<StreamedCandidate> StreamAll(const PlanSpace& space) {
  std::vector<StreamedCandidate> out;
  const std::vector<EnumerationShard> shards =
      space.PartitionShards(1).ValueOrDie();
  shards[0]
      .StreamCandidates(1000,
                        [&](const CandidateChunk& chunk) -> Status {
                          for (size_t i = 0; i < chunk.size(); ++i) {
                            const size_t t = chunk.template_of[i];
                            out.push_back(
                                {chunk.seqs[i], chunk.templates[t],
                                 chunk.keys[t],
                                 std::vector<int>(
                                     chunk.nodes(i),
                                     chunk.nodes(i) + chunk.num_sites)});
                          }
                          return Status::OK();
                        })
      .CheckOK();
  return out;
}

bool BitwiseEqual(const TemplateKey& a, const TemplateKey& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Strata, leader templates and keys, the streamed picks and every
// materialized plan of `got` equal those of `want`, bit for bit.
void ExpectSameSpace(const PlanSpace& got, const PlanSpace& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.leader_size(), want.leader_size());
  ASSERT_EQ(got.strata().size(), want.strata().size());
  for (size_t i = 0; i < got.strata().size(); ++i) {
    const PlanSpace::Stratum& g = got.strata()[i];
    const PlanSpace::Stratum& w = want.strata()[i];
    EXPECT_EQ(g.index, w.index) << "stratum " << i;
    EXPECT_EQ(g.seq_base, w.seq_base) << "stratum " << i;
    EXPECT_EQ(g.feasible, w.feasible) << "stratum " << i;
    EXPECT_EQ(g.leader_base, w.leader_base) << "stratum " << i;
  }
  const std::vector<StreamedCandidate> got_stream = StreamAll(got);
  const std::vector<StreamedCandidate> want_stream = StreamAll(want);
  ASSERT_EQ(got_stream.size(), want_stream.size());
  for (size_t i = 0; i < got_stream.size(); ++i) {
    const StreamedCandidate& g = got_stream[i];
    const StreamedCandidate& w = want_stream[i];
    ASSERT_EQ(g.seq, w.seq) << "candidate " << i;
    ASSERT_TRUE(IdenticalPlans(*g.plan_template, *w.plan_template))
        << "candidate " << i;
    ASSERT_TRUE(BitwiseEqual(*g.key, *w.key)) << "candidate " << i;
    ASSERT_EQ(g.site_nodes, w.site_nodes) << "candidate " << i;
  }
  std::vector<uint64_t> seqs(got.size());
  for (uint64_t s = 0; s < got.size(); ++s) seqs[s] = s;
  const std::vector<QueryPlan> got_plans = got.Materialize(seqs).ValueOrDie();
  const std::vector<QueryPlan> want_plans =
      want.Materialize(seqs).ValueOrDie();
  for (size_t s = 0; s < seqs.size(); ++s) {
    ASSERT_TRUE(IdenticalPlans(got_plans[s], want_plans[s])) << "seq " << s;
  }
}

PlanNode* FirstOf(QueryPlan* plan, OperatorKind kind) {
  for (PlanNode* node : plan->MutableNodes()) {
    if (node->kind == kind) return node;
  }
  return nullptr;
}

QueryPlan WithScanFraction(double fraction) {
  QueryPlan plan = MakeExample21Query().ValueOrDie();
  FirstOf(&plan, OperatorKind::kScan)->scan_fraction = fraction;
  return plan;
}

TEST(PlanSpaceMemoTest, RepeatedPlanSharesOneSpaceEqualToAFreshResolve) {
  for (const bool three_clouds : {false, true}) {
    SCOPED_TRACE(three_clouds ? "ThreeCloudFederation, VM counts 1-16"
                              : "PaperFederation");
    const MemoEnv setup = MakeMemoEnv(three_clouds);
    const MultiObjectiveOptimizer optimizer(&setup.federation, &setup.catalog,
                                            setup.options);
    const QueryPlan logical = MakeExample21Query().ValueOrDie();
    // A first sighting is resolved but not admitted.
    const std::shared_ptr<const PlanSpace> first =
        optimizer.FeatureSpace(logical).ValueOrDie();
    const std::shared_ptr<const PlanSpace> admitted =
        optimizer.FeatureSpace(logical).ValueOrDie();
    EXPECT_NE(first, admitted);
    EXPECT_EQ(optimizer.FeatureSpace(logical).ValueOrDie(), admitted);
    // An identical copy of the plan is the same key.
    const QueryPlan copy = logical;
    EXPECT_EQ(optimizer.FeatureSpace(copy).ValueOrDie(), admitted);
    const std::shared_ptr<const PlanSpace> fresh =
        FreshResolve(setup, logical);
    ExpectSameSpace(*first, *fresh);
    ExpectSameSpace(*admitted, *fresh);
  }
}

TEST(PlanSpaceMemoTest, PlansDifferingInOneFieldGetTheirOwnSpace) {
  const MemoEnv setup = MakeMemoEnv(/*three_clouds=*/false);
  const MultiObjectiveOptimizer optimizer(&setup.federation, &setup.catalog,
                                          setup.options);
  // Example 2.1 with a filter on the Patient scan and an aggregate on top,
  // so every field the variants change is one the plan reads.
  const auto base = [] {
    QueryPlan example = MakeExample21Query().ValueOrDie();
    PlanNode* join = FirstOf(&example, OperatorKind::kJoin);
    join->children[0] = MakeFilter(std::move(join->children[0]),
                                   {{"PatientSex", CompareOp::kEq, {}}});
    return QueryPlan(MakeAggregate(example.ReleaseRoot(), 2));
  };
  struct Variant {
    std::string field;
    QueryPlan plan;
  };
  std::vector<Variant> variants;
  variants.push_back({"Example 2.1", MakeExample21Query().ValueOrDie()});
  variants.push_back({"base", base()});
  const auto add = [&](const std::string& field, auto&& edit) {
    QueryPlan plan = base();
    edit(&plan);
    variants.push_back({field, std::move(plan)});
  };
  add("scan_fraction one ulp below 1", [](QueryPlan* p) {
    FirstOf(p, OperatorKind::kScan)->scan_fraction =
        std::nextafter(1.0, 0.0);
  });
  add("predicate op", [](QueryPlan* p) {
    FirstOf(p, OperatorKind::kFilter)->predicates[0].op = CompareOp::kNe;
  });
  add("predicate override", [](QueryPlan* p) {
    FirstOf(p, OperatorKind::kFilter)->predicates[0].selectivity_override =
        0.5;
  });
  add("projected columns", [](QueryPlan* p) {
    FirstOf(p, OperatorKind::kProject)->columns = {"PatientSex"};
  });
  add("join column", [](QueryPlan* p) {
    FirstOf(p, OperatorKind::kJoin)->left_join_column = "HomeNation";
  });
  add("join override", [](QueryPlan* p) {
    FirstOf(p, OperatorKind::kJoin)->join_selectivity_override = 1e-6;
  });
  add("num_groups", [](QueryPlan* p) {
    FirstOf(p, OperatorKind::kAggregate)->num_groups = 3;
  });
  add("child order", [](QueryPlan* p) {
    PlanNode* join = FirstOf(p, OperatorKind::kJoin);
    std::swap(join->children[0], join->children[1]);
  });
  ASSERT_LE(variants.size(), kCapacity);

  std::vector<std::shared_ptr<const PlanSpace>> spaces;
  for (const Variant& v : variants) spaces.push_back(Admit(optimizer, v.plan));
  for (size_t i = 0; i < variants.size(); ++i) {
    SCOPED_TRACE(variants[i].field);
    // Still held: asking again returns the admitted space.
    EXPECT_EQ(optimizer.FeatureSpace(variants[i].plan).ValueOrDie(),
              spaces[i]);
    for (size_t j = 0; j < i; ++j) EXPECT_NE(spaces[i], spaces[j]);
    ExpectSameSpace(*spaces[i], *FreshResolve(setup, variants[i].plan));
  }
}

TEST(PlanSpaceMemoTest, HoldsAtMostItsCapacityAndResolvesEvictedPlansAgain) {
  const MemoEnv setup = MakeMemoEnv(/*three_clouds=*/false);
  const MultiObjectiveOptimizer optimizer(&setup.federation, &setup.catalog,
                                          setup.options);
  // The test keeps only weak references, so a live space is a held one.
  std::vector<std::weak_ptr<const PlanSpace>> held;
  const auto live = [&] {
    size_t n = 0;
    for (const auto& space : held) n += space.expired() ? 0 : 1;
    return n;
  };
  for (size_t i = 0; i <= kCapacity; ++i) {
    held.push_back(Admit(optimizer, WithScanFraction(1.0 - 0.01 * i)));
    EXPECT_EQ(live(), std::min(i + 1, kCapacity)) << "after plan " << i;
  }
  // The least recently used space, the first one admitted, went.
  EXPECT_TRUE(held[0].expired());
  for (size_t i = 1; i <= kCapacity; ++i) EXPECT_FALSE(held[i].expired());

  // Evicted and asked for again: resolved anew, still identical.
  const QueryPlan evicted = WithScanFraction(1.0);
  const std::shared_ptr<const PlanSpace> again = Admit(optimizer, evicted);
  EXPECT_EQ(optimizer.FeatureSpace(evicted).ValueOrDie(), again);
  ExpectSameSpace(*again, *FreshResolve(setup, evicted));
  held.push_back(again);
  EXPECT_EQ(live(), kCapacity);
  EXPECT_TRUE(held[1].expired());  // now the least recently used
}

TEST(PlanSpaceMemoTest, ErrorsAreReturnedEveryTimeAndNeverMemoised) {
  const MemoEnv setup = MakeMemoEnv(/*three_clouds=*/false);
  const MultiObjectiveOptimizer optimizer(&setup.federation, &setup.catalog,
                                          setup.options);
  std::vector<std::shared_ptr<const PlanSpace>> full;
  for (size_t i = 0; i < kCapacity; ++i) {
    full.push_back(Admit(optimizer, WithScanFraction(1.0 - 0.01 * i)));
  }
  std::vector<std::weak_ptr<const PlanSpace>> held(full.begin(), full.end());
  full.clear();

  QueryPlan unknown_table = MakeExample21Query().ValueOrDie();
  FirstOf(&unknown_table, OperatorKind::kScan)->table = "Nowhere";
  const QueryPlan nan_fraction = WithScanFraction(std::nan(""));
  for (const QueryPlan* invalid : {&std::as_const(unknown_table),
                                   &nan_fraction}) {
    const Status first = optimizer.FeatureSpace(*invalid).status();
    ASSERT_FALSE(first.ok());
    for (int call = 0; call < 3; ++call) {
      const Status again = optimizer.FeatureSpace(*invalid).status();
      EXPECT_EQ(again.code(), first.code());
      EXPECT_EQ(again.message(), first.message());
    }
  }
  EXPECT_EQ(optimizer.FeatureSpace(nan_fraction).status().code(),
            StatusCode::kInvalidArgument);
  // Admitting anything into the full memo would have evicted a space.
  for (const auto& space : held) EXPECT_FALSE(space.expired());
}

}  // namespace
}  // namespace midas
