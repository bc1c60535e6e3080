//===- exec/RunTask.h - Experiment task and grid descriptions --*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unit of experiment work shared by every execution front end: a
/// RunTask describes one independent (program, machine, strategy, options)
/// run, and a GridSpec describes a declarative sweep that expandGrid()
/// unrolls into RunTasks. Split out of ExperimentRunner.h so the
/// serve/Service submit/collect core and the ExperimentRunner shim above
/// it can both depend on the task type without a header cycle.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_EXEC_RUNTASK_H
#define CTA_EXEC_RUNTASK_H

#include "driver/Experiment.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace cta {

class TraceLog;

/// One independent run: map \p Prog for \p Machine under \p Strat/\p Opts
/// and simulate. When \p RunsOn is set the mapping is retargeted onto it
/// before simulation (the Figure 2/14 cross-machine experiments).
struct RunTask {
  Program Prog;
  CacheTopology Machine;
  std::optional<CacheTopology> RunsOn;
  Strategy Strat = Strategy::Base;
  MappingOptions Opts;
  /// Free-form tag for diagnostics ("fig13/dunnington/cg/TopologyAware").
  std::string Label;
  /// FNV-1a hash of the DSL source text \p Prog was parsed from; 0 for
  /// compiled-in generators. Mixed into the cache key (field 9 of the
  /// runFingerprint schema) so source-text edits miss cleanly.
  std::uint64_t SourceHash = 0;
  /// When set, the simulator records its event stream into this log.
  /// Traced runs bypass the RunCache in both directions: their value is
  /// the trace, which is not persisted, so serving a cached result would
  /// leave the log empty and storing one would waste an entry on a key
  /// (field 10 of the fingerprint schema) no untraced run can ever hit.
  std::shared_ptr<TraceLog> TraceSink;
};

/// RunTask has no default constructor (CacheTopology needs a machine);
/// these factories keep call sites readable.
inline RunTask makeRunTask(Program Prog, CacheTopology Machine, Strategy Strat,
                           MappingOptions Opts, std::string Label = "") {
  return RunTask{std::move(Prog), std::move(Machine), std::nullopt, Strat,
                 Opts, std::move(Label), /*SourceHash=*/0,
                 /*TraceSink=*/nullptr};
}

/// Cross-machine variant: compile for \p CompiledFor, execute on \p RunsOn.
inline RunTask makeCrossMachineTask(Program Prog, CacheTopology CompiledFor,
                                    CacheTopology RunsOn, Strategy Strat,
                                    MappingOptions Opts,
                                    std::string Label = "") {
  return RunTask{std::move(Prog), std::move(CompiledFor), std::move(RunsOn),
                 Strat, Opts, std::move(Label), /*SourceHash=*/0,
                 /*TraceSink=*/nullptr};
}

/// A declarative experiment grid. expandGrid() unrolls it machine-major:
/// for each machine, for each workload, for each option variant, for each
/// strategy — the same nesting order the serial benches used, so results
/// land in a predictable layout.
struct GridSpec {
  /// Workload names resolved through makeWorkload().
  std::vector<std::string> Workloads;
  double WorkloadScale = 1.0;
  /// Machines, already scaled: the scaled machine *is* the machine.
  std::vector<CacheTopology> Machines;
  std::vector<Strategy> Strategies;
  /// Option variants (block-size sweeps, alpha/beta sweeps, mapper-level
  /// restrictions). Empty means one variant: defaults.
  std::vector<MappingOptions> OptionVariants;

  std::size_t numVariants() const {
    return OptionVariants.empty() ? 1 : OptionVariants.size();
  }
  std::size_t numTasks() const {
    return Machines.size() * Workloads.size() * numVariants() *
           Strategies.size();
  }
  /// Flat index of one grid point in expandGrid() order.
  std::size_t index(std::size_t MachineIdx, std::size_t WorkloadIdx,
                    std::size_t VariantIdx, std::size_t StrategyIdx) const {
    return ((MachineIdx * Workloads.size() + WorkloadIdx) * numVariants() +
            VariantIdx) *
               Strategies.size() +
           StrategyIdx;
  }
};

/// Unrolls \p Spec into expandGrid-order RunTasks (see GridSpec::index).
std::vector<RunTask> expandGrid(const GridSpec &Spec);

} // namespace cta

#endif // CTA_EXEC_RUNTASK_H
