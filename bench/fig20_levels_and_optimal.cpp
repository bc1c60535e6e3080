//===- bench/fig20_levels_and_optimal.cpp - Figure 20 reproduction --------===//
//
// Figure 20, on Arch-I (four cache levels): level-restricted variants of
// the mapper (L1+L2, L1+L2+L3, all levels) and the comparison against an
// optimal mapping. The paper reports that using all levels beats the
// L1+L2 / L1+L2+L3 variants by 21.8%/12.7% and that the heuristic lands
// within ~7.6% of the ILP optimum. Our optimum substitute is a
// multi-start local search over group-to-core assignments scored by full
// simulation, seeded with the heuristic's own mapping (DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/Optimal.h"
#include "core/Pipeline.h"
#include "sim/Engine.h"

#include <algorithm>

using namespace cta;
using namespace cta::bench;

namespace {

/// Simulated cycles of an explicit group->core assignment.
double simulateAssignment(const Program &Prog, const CacheTopology &Topo,
                          const IterationTable &Table,
                          const std::vector<IterationGroup> &Groups,
                          const std::vector<std::uint32_t> &CoreOf) {
  Mapping Map;
  Map.StrategyName = "search";
  Map.NumCores = Topo.numCores();
  Map.CoreIterations.resize(Map.NumCores);
  for (std::uint32_t G = 0; G != Groups.size(); ++G)
    Map.CoreIterations[CoreOf[G]].insert(
        Map.CoreIterations[CoreOf[G]].end(), Groups[G].Iterations.begin(),
        Groups[G].Iterations.end());
  for (auto &Iters : Map.CoreIterations)
    std::sort(Iters.begin(), Iters.end());

  MachineSim Sim(Topo);
  AddressMap Addrs(Prog.Arrays);
  ExecutionResult R = executeMapping(Sim, Prog, 0, Table, Map, Addrs);
  return static_cast<double>(R.TotalCycles);
}

} // namespace

int main(int argc, char **argv) {
  ExperimentRunner Runner(parseExecArgs(argc, argv));
  printHeader("Figure 20",
              "level-restricted variants and the optimal comparison "
              "(Arch-I)");

  CacheTopology Topo = simMachine("arch-i");

  // Part 1: level-restricted variants over the subset suite, as a grid
  // over MaxMapperLevel option variants.
  struct VariantSpec {
    const char *Name;
    unsigned MaxLevel;
  };
  const VariantSpec Variants[] = {
      {"L1+L2", 2}, {"L1+L2+L3", 3}, {"L1+L2+L3+L4", 0}};

  GridSpec Spec;
  Spec.Workloads = sensitivitySubset();
  Spec.Machines = {Topo};
  Spec.Strategies = {Strategy::Base, Strategy::TopologyAware};
  for (const VariantSpec &V : Variants) {
    MappingOptions O = defaultOpts();
    O.MaxMapperLevel = V.MaxLevel;
    Spec.OptionVariants.push_back(O);
  }

  std::vector<RunResult> Results = Runner.run(Spec);

  TextTable Levels({"variant", "normalized cycles (geomean)"});
  for (std::size_t V = 0; V != Spec.OptionVariants.size(); ++V) {
    std::vector<double> Ratios;
    for (std::size_t W = 0; W != Spec.Workloads.size(); ++W)
      Ratios.push_back(ratioToBase(Results[Spec.index(0, W, V, 1)],
                                   Results[Spec.index(0, W, V, 0)]));
    Levels.addRow({Variants[V].Name, formatDouble(geomean(Ratios), 3)});
  }
  Levels.print();
  std::printf("Paper's shape: considering the entire hierarchy beats the "
              "truncated variants (21.8%% over L1+L2, 12.7%% over "
              "L1+L2+L3).\n\n");

  // Part 2: optimal comparison on small instances (the paper's ILP took up
  // to 23 hours; the search is budgeted to a few thousand simulations).
  // Each app's search is an independent task: run them concurrently on
  // the runner's pool, each under its own metric sink (search iterations
  // themselves are inherently sequential).
  const std::vector<std::string> OptApps = {"galgel", "cg", "povray"};
  std::vector<double> Ours(OptApps.size()), Best(OptApps.size());
  parallelForWithSinks(Runner.pool(), OptApps.size(), [&](std::size_t I) {
    Program Prog = makeWorkload(OptApps[I], /*Scale=*/0.25);
    MappingOptions O = defaultOpts();
    O.MaxGroupsForClustering = 48;
    O.ChainCoarsenTarget = 48;
    PipelineResult Pipe =
        runMappingPipeline(Prog, 0, Topo, Strategy::TopologyAware, O);
    IterationTable Table = Prog.Nests[0].enumerate();

    // Seed assignment from the pipeline's own mapping.
    const std::vector<IterationGroup> &Groups = Pipe.Map.Groups;
    std::vector<std::uint32_t> Seed(Groups.size(), 0);
    for (unsigned C = 0; C != Pipe.Map.NumCores; ++C)
      for (std::uint32_t G : Pipe.Map.CoreGroups[C])
        Seed[G] = C;

    AssignmentCost Cost = [&](const std::vector<std::uint32_t> &A) {
      return simulateAssignment(Prog, Topo, Table, Groups, A);
    };
    OptimalSearchOptions SOpts;
    SOpts.MaxEvaluations = 1500;
    SOpts.RandomRestarts = 1;
    OptimalSearchResult Found =
        searchBestAssignment(Groups, Topo.numCores(), Cost, &Seed, SOpts);
    Ours[I] = Cost(Seed);
    Best[I] = Found.Cost;
  });

  TextTable Opt({"app", "TopologyAware", "optimal (search)", "gap"});
  std::vector<double> Gaps;
  for (std::size_t I = 0; I != OptApps.size(); ++I) {
    double Gap = Ours[I] / Best[I] - 1.0;
    Gaps.push_back(Gap);
    Opt.addRow({OptApps[I], formatDouble(Ours[I], 0),
                formatDouble(Best[I], 0), formatPercent(Gap)});
  }
  Opt.print();
  double AvgGap = 0;
  for (double G : Gaps)
    AvgGap += G;
  AvgGap /= Gaps.size();
  std::printf("\nAverage gap to the searched optimum: %s (paper: ~7.6%% "
              "to the ILP optimum).\n",
              formatPercent(AvgGap).c_str());
  finishBench(Runner);
  return 0;
}
