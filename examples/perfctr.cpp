//===- examples/perfctr.cpp - likwid-perfctr-style group profiler ---------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// A likwid-perfctr-style front end over the simulator: pick a platform,
// a performance group, and an application; get raw counts and derived
// metrics from a single collection run — exactly the workflow the
// paper's measurement campaigns are built from.
//
// Usage:
//   perfctr [-p haswell|skylake] [-g GROUP] [-k KERNEL] [-n SIZE]
//   perfctr --list-groups [-p PLATFORM]
//   perfctr --list-kernels
//
// Example:
//   perfctr -p skylake -g FLOPS_DP -k mkl-dgemm -n 16000
//
//===----------------------------------------------------------------------===//

#include "core/DerivedMetrics.h"
#include "core/PmcProfiler.h"
#include "pmc/PerformanceGroups.h"
#include "support/Cli.h"
#include "support/Str.h"

#include <cstdio>
#include <string>

using namespace slope;
using namespace slope::core;
using namespace slope::pmc;
using namespace slope::sim;

namespace {

/// -p spellings; the value says whether the platform is the Haswell.
const cli::Choice<bool> PlatformNames[] = {
    {"haswell", true},
    {"skylake", false},
};

Expected<KernelKind> kernelByName(const std::string &Name) {
  for (KernelKind Kind : allKernels())
    if (kernelSpec(Kind).Name == Name)
      return Kind;
  return makeError("unknown kernel '" + Name + "' (try --list-kernels)");
}

} // namespace

int main(int Argc, char **Argv) {
  bool IsHaswell = false;
  std::string GroupName = "FLOPS_DP";
  std::string KernelName = "mkl-dgemm";
  uint64_t Size = 12000;
  bool ListGroups = false, ListKernels = false;
  cli::FlagParser Flags;
  Flags.choice("-p", IsHaswell, PlatformNames);
  Flags.text("-g", GroupName, "GROUP");
  Flags.text("-k", KernelName, "KERNEL");
  Flags.number("-n", Size);
  Flags.toggle("--list-groups", ListGroups);
  Flags.toggle("--list-kernels", ListKernels);
  Flags.parseOrExit(Argc, Argv);

  if (ListKernels) {
    for (KernelKind Kind : allKernels()) {
      const KernelSpec &Spec = kernelSpec(Kind);
      std::printf("%-14s %-13s sizes [%llu, %llu]\n", Spec.Name,
                  Spec.Category,
                  static_cast<unsigned long long>(Spec.SizeMin),
                  static_cast<unsigned long long>(Spec.SizeMax));
    }
    return 0;
  }

  std::vector<PerformanceGroup> Groups =
      IsHaswell ? haswellPerformanceGroups() : skylakePerformanceGroups();

  if (ListGroups) {
    for (const PerformanceGroup &Group : Groups)
      std::printf("%-14s %-45s {%s}\n", Group.Name.c_str(),
                  Group.Description.c_str(),
                  str::join(Group.EventNames, ",").c_str());
    return 0;
  }

  auto Group = findGroup(Groups, GroupName);
  if (!Group) {
    std::fprintf(stderr, "error: %s\n", Group.error().message().c_str());
    return 1;
  }
  auto Kind = kernelByName(KernelName);
  if (!Kind) {
    std::fprintf(stderr, "error: %s\n", Kind.error().message().c_str());
    return 1;
  }
  Application App(*Kind, Size);
  if (!App.isValid()) {
    std::fprintf(stderr, "error: size %llu outside %s's range\n",
                 static_cast<unsigned long long>(Size),
                 kernelSpec(*Kind).Name);
    return 1;
  }

  Machine M(IsHaswell ? Platform::intelHaswellServer()
                      : Platform::intelSkylakeServer(),
            /*Seed=*/0xC7);
  PmcProfiler Profiler(M);
  auto Ids = resolveGroup(M.registry(), *Group);
  if (!Ids) {
    std::fprintf(stderr, "error: %s\n", Ids.error().message().c_str());
    return 1;
  }
  auto Profile = Profiler.collect(CompoundApplication(App), *Ids);
  if (!Profile) {
    std::fprintf(stderr, "error: %s\n",
                 Profile.error().message().c_str());
    return 1;
  }

  std::printf("Group %s (%s) on %s, %s:\n\n", Group->Name.c_str(),
              Group->Description.c_str(), M.platform().Name.c_str(),
              App.str().c_str());
  std::printf("%s\n",
              renderDerivedMetrics(computeDerivedMetrics(
                                       *Group, Profile->Counts,
                                       Profile->TimeSec))
                  .c_str());
  std::printf("(collected in %zu run%s)\n", Profile->RunsUsed,
              Profile->RunsUsed == 1 ? "" : "s");
  return 0;
}
