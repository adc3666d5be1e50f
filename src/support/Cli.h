//===- support/Cli.h - Strict settings from env and argv --------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How a setting is named, read and rejected, in one place. Enumerated
/// settings spell their values in a Choice array defined beside the
/// enum; numbers parse strictly (the whole string, inside a range);
/// environment variables and command-line flags both go through these
/// parsers. Bad input never falls back to a default: the env readers and
/// FlagParser::parseOrExit print `error: ...` naming the variable or
/// flag and what it accepts, and exit with status 2.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_SUPPORT_CLI_H
#define SLOPE_SUPPORT_CLI_H

#include "support/Expected.h"
#include "support/Str.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace slope {
namespace cli {

/// One accepted spelling of an enumerated setting.
template <typename E> struct Choice {
  const char *Name;
  E Value;
};

/// \returns the spellings of \p Choices joined as "a|b|c".
template <typename E, size_t N>
std::string alternatives(const Choice<E> (&Choices)[N]) {
  std::string Out;
  for (const Choice<E> &C : Choices)
    Out += (Out.empty() ? "" : "|") + std::string(C.Name);
  return Out;
}

/// \returns the spelling of \p Value, which must be one of \p Choices.
template <typename E, size_t N>
const char *nameOf(const Choice<E> (&Choices)[N], E Value) {
  for (const Choice<E> &C : Choices)
    if (C.Value == Value)
      return C.Name;
  assert(false && "value has no spelling");
  return "";
}

/// Parses \p Text as exactly one of the spellings in \p Choices.
template <typename E, size_t N>
Expected<E> parseChoice(std::string_view Text, const Choice<E> (&Choices)[N]) {
  for (const Choice<E> &C : Choices)
    if (Text == C.Name)
      return C.Value;
  return makeError("expected one of " + alternatives(Choices));
}

/// Parses the whole of \p Text as a T in [\p Min, \p Max]: no trailing
/// characters, no empty string, no overflow, and (for floating point) a
/// finite value.
template <typename T>
Expected<T> parseNumber(std::string_view Text, T Min = T(0),
                        T Max = std::numeric_limits<T>::max()) {
  static_assert(std::is_arithmetic_v<T>, "numbers only");
  T Value{};
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  bool Ok = !Text.empty() && Ec == std::errc() && Ptr == End;
  if constexpr (std::is_floating_point_v<T>)
    Ok = Ok && std::isfinite(Value);
  if (Ok && Value >= Min && Value <= Max)
    return Value;
  auto Show = [](T V) {
    if constexpr (std::is_integral_v<T>)
      return std::to_string(V);
    else
      return str::compact(V, 6);
  };
  std::string What = std::is_integral_v<T> ? "an integer" : "a number";
  if (Max == std::numeric_limits<T>::max())
    return makeError("expected " + What + " >= " + Show(Min));
  return makeError("expected " + What + " in [" + Show(Min) + ", " +
                   Show(Max) + "]");
}

/// Prints `error: <Message>` to stderr and exits with status 2.
[[noreturn]] void fail(const std::string &Message);

/// Reads the environment variable \p Var as one of \p Choices;
/// \returns \p Default when it is unset and exits 2 on any other value.
template <typename E, size_t N>
E envChoice(const char *Var, const Choice<E> (&Choices)[N], E Default) {
  const char *Text = std::getenv(Var);
  if (!Text)
    return Default;
  Expected<E> Value = parseChoice(Text, Choices);
  if (!Value)
    fail(std::string(Var) + "=" + Text + ": " + Value.error().message());
  return *Value;
}

/// Reads the environment variable \p Var as a number in [\p Min, \p Max];
/// \returns \p Default when it is unset and exits 2 on any other value.
template <typename T>
T envNumber(const char *Var, T Min, T Max, T Default) {
  const char *Text = std::getenv(Var);
  if (!Text)
    return Default;
  Expected<T> Value = parseNumber(Text, Min, Max);
  if (!Value)
    fail(std::string(Var) + "=" + Text + ": " + Value.error().message());
  return *Value;
}

/// The one command-line parser every driver declares its flags to.
///
/// Each flag accepts `--flag VALUE` and `--flag=VALUE` (short names such
/// as `-p` alike); a repeated flag applies again, so the last value wins
/// unless the flag is a list. An unknown flag, a missing or malformed
/// value, or more positionals than declared is an error. Declarations
/// keep references to their output variables, which must outlive parse.
class FlagParser {
public:
  /// Declares a flag taking no value; its presence sets \p Out.
  void toggle(std::string Name, bool &Out);

  /// Declares a flag storing its value verbatim in \p Out.
  void text(std::string Name, std::string &Out, std::string Metavar);

  /// Declares a repeatable flag whose values accumulate in \p Out.
  void list(std::string Name, std::vector<std::string> &Out,
            std::string Metavar);

  /// Declares a numeric flag storing a value in [\p Min, \p Max].
  template <typename T>
  void number(std::string Name, T &Out, T Min = T(0),
              T Max = std::numeric_limits<T>::max()) {
    option(std::move(Name), std::is_integral_v<T> ? "N" : "X",
           [&Out, Min, Max](std::string_view Text) -> Expected<bool> {
             Expected<T> Value = parseNumber(Text, Min, Max);
             if (!Value)
               return Value.error();
             Out = *Value;
             return true;
           });
  }

  /// Declares a flag whose value is one of \p Choices, passed to \p Set.
  template <typename E, size_t N, typename SetFn>
  void choice(std::string Name, const Choice<E> (&Choices)[N], SetFn Set) {
    option(std::move(Name), alternatives(Choices),
           [&Choices, Set](std::string_view Text) -> Expected<bool> {
             Expected<E> Value = parseChoice(Text, Choices);
             if (!Value)
               return Value.error();
             Set(*Value);
             return true;
           });
  }

  /// Declares a flag whose value is one of \p Choices, stored in \p Out.
  template <typename E, size_t N>
  void choice(std::string Name, E &Out, const Choice<E> (&Choices)[N]) {
    choice(std::move(Name), Choices, [&Out](E Value) { Out = Value; });
  }

  /// Accepts up to \p Max positional arguments, shown as \p Metavar.
  void positionals(size_t Max, std::string Metavar);

  /// Parses \p Argv[1..Argc), applying each flag in order.
  /// \returns the positional arguments.
  Expected<std::vector<std::string>> parse(int Argc,
                                           const char *const *Argv) const;

  /// parse(), but on error prints the message and the usage to stderr
  /// and exits with status 2.
  std::vector<std::string> parseOrExit(int Argc,
                                       const char *const *Argv) const;

  /// \returns the usage text: every accepted flag with its values.
  std::string usage(std::string_view Program) const;

private:
  /// Applies a flag's value; an Error says what the flag accepts.
  using Apply = std::function<Expected<bool>(std::string_view Value)>;

  /// Declares a flag taking a value, shown as \p Metavar in the usage;
  /// an empty \p Metavar declares a flag that takes no value.
  void option(std::string Name, std::string Metavar, Apply Fn);

  struct Flag {
    std::string Name;
    std::string Metavar; ///< Empty for a flag that takes no value.
    Apply Fn;
  };
  std::vector<Flag> Flags;
  size_t MaxPositionals = 0;
  std::string PositionalMetavar;
};

} // namespace cli
} // namespace slope

#endif // SLOPE_SUPPORT_CLI_H
