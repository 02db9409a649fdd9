// Optimizer-quality comparison of the Multi-Objective Optimizer module's
// algorithms: NSGA-II (the paper's optimizer), the authors' NSGA-G, and
// the WSM weight-sweep baseline Figure 3 contrasts them with, on the ZDT
// suite. Reports hypervolume (higher is better), IGD against a dense
// sampling of the true front (lower is better), and wall time.

#include <chrono>
#include <cmath>
#include <iostream>

#include "common/text_table.h"
#include "optimizer/metrics.h"
#include "optimizer/pareto.h"
#include "optimizer/nsga2.h"
#include "optimizer/nsga_g.h"
#include "optimizer/wsm.h"

namespace midas {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Dense samples of each ZDT problem's true Pareto front.
std::vector<Vector> TrueFront(const std::string& name) {
  std::vector<Vector> front;
  for (double f1 = 0.0; f1 <= 1.0; f1 += 0.005) {
    if (name == "ZDT1") {
      front.push_back({f1, 1.0 - std::sqrt(f1)});
    } else if (name == "ZDT2") {
      front.push_back({f1, 1.0 - f1 * f1});
    } else if (name == "ZDT3") {
      const double f2 =
          1.0 - std::sqrt(f1) - f1 * std::sin(10.0 * M_PI * f1);
      // ZDT3's front is the non-dominated subset of this curve.
      front.push_back({f1, f2});
    }
  }
  if (name == "ZDT3") {
    std::vector<size_t> keep = ParetoFrontIndices(front);
    std::vector<Vector> filtered;
    for (size_t i : keep) filtered.push_back(front[i]);
    return filtered;
  }
  return front;
}

struct RunResult {
  std::vector<Vector> front;
  double seconds = 0.0;
};

template <typename Optimizer>
RunResult RunPareto(const Optimizer& optimizer, const MooProblem& problem) {
  RunResult out;
  const double t0 = NowSeconds();
  auto result = optimizer.Optimize(problem);
  out.seconds = NowSeconds() - t0;
  result.status().CheckOK();
  out.front = result->FrontObjectives();
  return out;
}

RunResult RunWsmSweep(const MooProblem& problem) {
  WsmGaOptions options;
  options.population_size = 100;
  options.generations = 100;
  WsmGeneticOptimizer wsm(options);
  RunResult out;
  const double t0 = NowSeconds();
  for (double w = 0.05; w < 1.0; w += 0.1) {  // 10 weight settings
    auto result = wsm.Optimize(problem, {w, 1.0 - w});
    result.status().CheckOK();
    out.front.push_back(result->objectives);
  }
  out.seconds = NowSeconds() - t0;
  return out;
}

}  // namespace
}  // namespace midas

int main() {
  using namespace midas;  // NOLINT: bench brevity

  std::cout << "Optimizer quality on the ZDT suite (pop 100, 100-150 "
               "generations, reference point (1.1, 6))\n\n";
  const Vector reference = {1.1, 6.0};

  for (const std::string name : {"ZDT1", "ZDT2", "ZDT3"}) {
    std::unique_ptr<MooProblem> problem;
    if (name == "ZDT1") problem = std::make_unique<Zdt1>(10);
    if (name == "ZDT2") problem = std::make_unique<Zdt2>(10);
    if (name == "ZDT3") problem = std::make_unique<Zdt3>(10);
    const std::vector<Vector> truth = TrueFront(name);

    Nsga2Options nsga2_options;
    nsga2_options.population_size = 100;
    nsga2_options.generations = 150;
    NsgaGOptions nsga_g_options;
    nsga_g_options.population_size = 100;
    nsga_g_options.generations = 150;

    struct Entry {
      std::string name;
      RunResult run;
    };
    std::vector<Entry> entries;
    entries.push_back({"NSGA-II", RunPareto(Nsga2(nsga2_options), *problem)});
    entries.push_back({"NSGA-G", RunPareto(NsgaG(nsga_g_options), *problem)});
    entries.push_back({"WSM sweep (10 runs)", RunWsmSweep(*problem)});

    std::cout << name << "\n";
    TextTable table({"algorithm", "front size", "hypervolume", "IGD",
                     "time"});
    for (const Entry& entry : entries) {
      const double hv =
          Hypervolume2D(entry.run.front, reference).ValueOrDie();
      const double igd =
          InvertedGenerationalDistance(entry.run.front, truth).ValueOrDie();
      table.AddRow({entry.name, std::to_string(entry.run.front.size()),
                    FormatDouble(hv, 3), FormatDouble(igd, 3),
                    FormatDouble(entry.run.seconds * 1e3, 1) + " ms"});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Reading: the two Pareto methods are comparable (NSGA-G "
               "trades a little quality for cheaper selection); the WSM "
               "sweep collapses on the non-convex ZDT2 and the "
               "disconnected ZDT3 — why MIDAS uses Pareto optimizers.\n";
  return 0;
}
