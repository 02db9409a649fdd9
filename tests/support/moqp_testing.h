#ifndef MIDAS_TESTS_SUPPORT_MOQP_TESTING_H_
#define MIDAS_TESTS_SUPPORT_MOQP_TESTING_H_

#include <gtest/gtest.h>

#include <string>

#include "ires/moo_optimizer.h"

namespace midas {

/// Expects two MOQP results to be the same bit for bit: candidate count,
/// Pareto costs, chosen index and the Pareto plans' strings.
inline void ExpectSameResult(const MoqpResult& a, const MoqpResult& b,
                             const std::string& label) {
  EXPECT_EQ(a.candidates_examined, b.candidates_examined) << label;
  EXPECT_EQ(a.pareto_costs, b.pareto_costs) << label;
  EXPECT_EQ(a.chosen, b.chosen) << label;
  ASSERT_EQ(a.pareto_plans.size(), b.pareto_plans.size()) << label;
  for (size_t i = 0; i < a.pareto_plans.size(); ++i) {
    EXPECT_EQ(a.pareto_plans[i].ToString(), b.pareto_plans[i].ToString())
        << label << " plan " << i;
  }
}

}  // namespace midas

#endif  // MIDAS_TESTS_SUPPORT_MOQP_TESTING_H_
