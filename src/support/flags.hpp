// The one command-line parser of vcc, vccd and the fleet benches.
//
// Each binary declares a Table over its options struct: per flag a name, a
// value kind (bare boolean, enum, bounded count, non-empty string,
// repeatable list) and a binder writing into the struct. parse_flags
// applies one set of rules to every table:
//   - an argument starting with "--" (or spelling an entry's name, like
//     vccd's "-h") is a flag, and an unknown flag is an error;
//   - a repeat with a different value is an error (last-one-wins would
//     hide mistakes like `--wcet-engine=ipet ... --wcet-engine=structural`);
//     same-value repeats and list entries pass;
//   - an empty value, and a count outside its entry's bounds, are errors;
//   - at most one positional argument, and only when the table binds one.
// Header-only: vccd links only the service library.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace vc::flags {

/// Upper bound of the ordinary counts (--jobs, --nodes, ...): no real use
/// comes near it, and no value overflows its field.
inline constexpr long long kMaxCount = 1000000;

template <class O>
struct Flag {
  std::string name;                 // "--jobs"
  bool valued = true;               // accepts "--name=VALUE"
  std::optional<std::string> bare;  // the value a bare "--name" means;
                                    // nullopt: a value is required
  bool repeatable = false;          // every occurrence binds
  /// Writes the value into the options; a non-empty result rejects it.
  std::function<std::string(O&, const std::string&)> bind;
};

/// A binary's flag table. The builders take a member pointer of O or of a
/// base of O, so one table can extend another.
template <class O>
struct Table {
  std::vector<Flag<O>> entries;
  std::string O::*input = nullptr;  // binds the positional argument, if any

  template <class M>
  Table& boolean(std::string name, M field) {
    return add({std::move(name), false, "", false,
                [=](O& o, const std::string&) {
                  o.*field = true;
                  return std::string();
                }});
  }

  /// Enum: the field takes parse(value); a value parse rejects is an
  /// "unknown <what>". A `bare` value lets `--name` alone mean it.
  template <class M, class Parse>
  Table& choice(std::string name, const std::string& what, Parse parse,
                M field, std::optional<std::string> bare = std::nullopt) {
    return add({std::move(name), true, std::move(bare), false,
                [=](O& o, const std::string& v) {
                  const auto parsed = parse(v);
                  if (parsed) o.*field = *parsed;
                  return parsed ? "" : "unknown " + what + " '" + v + "'";
                }});
  }

  /// Bounded count: a decimal integer in [min, max].
  template <class M>
  Table& count(std::string name, long long min, long long max, M field) {
    return add({std::move(name), true, std::nullopt, false,
                [=](O& o, const std::string& v) {
                  errno = 0;
                  char* end = nullptr;
                  const long long n = std::strtoll(v.c_str(), &end, 10);
                  if (*end != '\0' || errno == ERANGE || n < min || n > max)
                    return "want an integer in [" + std::to_string(min) +
                           ", " + std::to_string(max) + "], got '" + v + "'";
                  o.*field = static_cast<
                      std::remove_reference_t<decltype(o.*field)>>(n);
                  return std::string();
                }});
  }

  template <class M>
  Table& text(std::string name, M field) {
    return add({std::move(name), true, std::nullopt, false,
                [=](O& o, const std::string& v) {
                  o.*field = v;
                  return std::string();
                }});
  }

  /// Repeatable: appends each value `check` (an optional diagnostic)
  /// accepts.
  template <class M, class Check>
  Table& list(std::string name, M field, Check check) {
    return add({std::move(name), true, std::nullopt, true,
                [=](O& o, const std::string& v) {
                  std::string error = check(v).value_or("");
                  if (error.empty()) (o.*field).push_back(v);
                  return error;
                }});
  }

  Table& add(Flag<O> flag) {
    entries.push_back(std::move(flag));
    return *this;
  }
};

/// The parsed options, or the diagnostic that rejected the command line.
template <class O>
struct Parsed {
  O values;
  std::string error;  // empty on success
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parses `args` (argv without the program name) against `table`, starting
/// from `values`. Pure; stops at the first error, naming the flag.
template <class O>
Parsed<O> parse_flags(const Table<O>& table,
                      const std::vector<std::string>& args, O values = {}) {
  Parsed<O> out{std::move(values), {}};
  std::map<std::string, std::string> seen;  // flag -> its first value
  bool have_input = false;
  for (const std::string& arg : args) {
    const std::size_t eq = arg.find('=');
    const bool has_value = eq != std::string::npos;
    const std::string name = arg.substr(0, eq);
    std::string value = has_value ? arg.substr(eq + 1) : "";
    const Flag<O>* flag = nullptr;
    for (const Flag<O>& f : table.entries)
      if (f.name == name) flag = &f;
    if (flag == nullptr && arg.rfind("--", 0) != 0) {
      if (table.input == nullptr)
        out.error = "unexpected argument '" + arg + "'";
      else if (have_input)
        out.error = "more than one input: '" + out.values.*table.input +
                    "' and '" + arg + "'";
      else
        out.values.*table.input = arg;
      have_input = true;
    } else if (flag == nullptr) {
      out.error = "unknown flag '" + arg + "'";
    } else if (has_value ? !flag->valued : !flag->bare) {
      out.error = name + (has_value ? " takes no value" : " needs a value");
    } else if (has_value && value.empty()) {
      out.error = "empty value in '" + arg + "'";
    } else {
      if (!has_value) value = *flag->bare;
      const auto [first, inserted] = seen.emplace(name, value);
      if (!inserted && first->second != value && !flag->repeatable)
        out.error = "conflicting values for " + name + ": '" +
                    first->second + "' then '" + value +
                    "' (remove one; repeated flags must agree)";
      else if (const std::string e = flag->bind(out.values, value);
               !e.empty())
        out.error = name + ": " + e;
    }
    if (!out.ok()) break;
  }
  return out;
}

/// The binaries' front end: the parsed options, or "<prog>: <diagnostic>"
/// on stderr and exit 2 before any work starts.
template <class O>
O parse_flags_or_exit(const Table<O>& table, int argc, char** argv,
                      const char* prog, O values = {}) {
  Parsed<O> parsed = parse_flags(
      table, std::vector<std::string>(argv + 1, argv + argc),
      std::move(values));
  if (parsed.ok()) return std::move(parsed.values);
  std::fprintf(stderr, "%s: %s\n", prog, parsed.error.c_str());
  std::exit(2);
}

}  // namespace vc::flags
