//===- support/Cli.cpp - Strict settings from env and argv ----------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "support/Cli.h"

#include <algorithm>
#include <cstdio>

using namespace slope;
using namespace slope::cli;

void cli::fail(const std::string &Message) {
  std::fprintf(stderr, "error: %s\n", Message.c_str());
  std::exit(2);
}

void FlagParser::option(std::string Name, std::string Metavar, Apply Fn) {
  assert(std::none_of(Flags.begin(), Flags.end(),
                      [&](const Flag &F) { return F.Name == Name; }) &&
         "flag declared twice");
  Flags.push_back({std::move(Name), std::move(Metavar), std::move(Fn)});
}

void FlagParser::toggle(std::string Name, bool &Out) {
  option(std::move(Name), "", [&Out](std::string_view) {
    Out = true;
    return Expected<bool>(true);
  });
}

void FlagParser::text(std::string Name, std::string &Out,
                      std::string Metavar) {
  option(std::move(Name), std::move(Metavar), [&Out](std::string_view V) {
    Out = V;
    return Expected<bool>(true);
  });
}

void FlagParser::list(std::string Name, std::vector<std::string> &Out,
                      std::string Metavar) {
  option(std::move(Name), std::move(Metavar), [&Out](std::string_view V) {
    Out.emplace_back(V);
    return Expected<bool>(true);
  });
}

void FlagParser::positionals(size_t Max, std::string Metavar) {
  MaxPositionals = Max;
  PositionalMetavar = std::move(Metavar);
}

Expected<std::vector<std::string>>
FlagParser::parse(int Argc, const char *const *Argv) const {
  std::vector<std::string> Positional;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Arg.size() < 2 || Arg[0] != '-') {
      if (Positional.size() == MaxPositionals)
        return makeError("unexpected argument '" + std::string(Arg) + "'");
      Positional.emplace_back(Arg);
      continue;
    }
    const size_t Eq = Arg.find('=');
    std::string_view Name = Arg.substr(0, Eq);
    auto It = std::find_if(Flags.begin(), Flags.end(),
                           [&](const Flag &F) { return F.Name == Name; });
    if (It == Flags.end())
      return makeError("unknown flag '" + std::string(Name) + "'");
    if (It->Metavar.empty() && Eq != std::string_view::npos)
      return makeError(It->Name + " takes no value");
    std::string_view Value;
    if (Eq != std::string_view::npos)
      Value = Arg.substr(Eq + 1);
    else if (!It->Metavar.empty() && I + 1 < Argc)
      Value = Argv[++I];
    else if (!It->Metavar.empty())
      return makeError(It->Name + ": missing value (" + It->Metavar + ")");
    if (Expected<bool> Applied = It->Fn(Value); !Applied)
      return makeError(It->Name + "=" + std::string(Value) + ": " +
                       Applied.error().message());
  }
  return Positional;
}

std::vector<std::string>
FlagParser::parseOrExit(int Argc, const char *const *Argv) const {
  Expected<std::vector<std::string>> Positional = parse(Argc, Argv);
  if (!Positional)
    fail(Positional.error().message() + "\n" +
         usage(Argc > 0 ? Argv[0] : ""));
  return Positional.takeValue();
}

std::string FlagParser::usage(std::string_view Program) const {
  Program = Program.substr(Program.find_last_of('/') + 1);
  std::string Out = "usage: " + std::string(Program) + " [flags]";
  if (MaxPositionals > 0)
    Out += " [" + PositionalMetavar + "]";
  Out += "\naccepted flags (--flag VALUE or --flag=VALUE):";
  for (const Flag &F : Flags)
    Out += "\n  " + F.Name + (F.Metavar.empty() ? "" : " " + F.Metavar);
  return Out;
}
