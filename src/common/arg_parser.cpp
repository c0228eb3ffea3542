#include "common/arg_parser.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/log.hpp"

namespace kelle {
namespace common {

namespace {

/** Parse "1"/"0"/"true"/"false"/"on"/"off". */
bool
parseBoolText(const std::string &text, bool *out)
{
    if (text == "1" || text == "true" || text == "on") {
        *out = true;
        return true;
    }
    if (text == "0" || text == "false" || text == "off") {
        *out = false;
        return true;
    }
    return false;
}

bool
inRange(std::int64_t v, IntRange range)
{
    switch (range) {
      case IntRange::Any:
        return true;
      case IntRange::NonNegative:
        return v >= 0;
      case IntRange::AtLeastOne:
        return v >= 1;
      case IntRange::Uint32:
        return v >= 0 && v <= std::numeric_limits<std::uint32_t>::max();
    }
    return false;
}

bool
inRange(double v, NumRange range)
{
    switch (range) {
      case NumRange::Any:
        return true;
      case NumRange::PositiveFinite:
        return v > 0.0 && std::isfinite(v);
      case NumRange::NonNegativeFinite:
        return v >= 0.0 && std::isfinite(v);
      case NumRange::UnitFraction:
        return v >= 0.0 && v <= 1.0;
    }
    return false;
}

/** Each range, indexed by its enum value, as it ends a help line and
 *  starts a rejection's reason. */
const char *const kIntRangeText[] = {"any value", "must be >= 0",
                                     "must be >= 1",
                                     "must be in [0, 4294967295]"};
const char *const kNumRangeText[] = {"any value",
                                     "must be a finite number > 0",
                                     "must be a finite number >= 0",
                                     "must be a fraction in [0, 1]"};

} // namespace

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{
}

ArgParser::Flag &
ArgParser::add(const std::string &name, Kind kind, const std::string &help,
               std::string default_text)
{
    KELLE_ASSERT(find(name) == nullptr, "duplicate flag --", name);
    flags_.emplace_back();
    Flag &f = flags_.back();
    f.name = name;
    f.kind = kind;
    f.help = help;
    f.defaultText = std::move(default_text);
    return f;
}

void
ArgParser::addInt(const std::string &name, std::int64_t def,
                  const std::string &help, IntRange range)
{
    KELLE_ASSERT(inRange(def, range), "default of --", name,
                 " is out of its range");
    Flag &f = add(name, Kind::Int, help, std::to_string(def));
    f.intValue = def;
    f.intRange = range;
    f.rangeText = kIntRangeText[static_cast<int>(range)];
}

void
ArgParser::addDouble(const std::string &name, double def,
                     const std::string &help, NumRange range)
{
    KELLE_ASSERT(inRange(def, range), "default of --", name,
                 " is out of its range");
    std::ostringstream os;
    os << def;
    Flag &f = add(name, Kind::Double, help, os.str());
    f.doubleValue = def;
    f.numRange = range;
    f.rangeText = kNumRangeText[static_cast<int>(range)];
}

void
ArgParser::addString(const std::string &name, const std::string &def,
                     const std::string &help)
{
    add(name, Kind::String, help, def).stringValue = def;
}

void
ArgParser::addBool(const std::string &name, bool def,
                   const std::string &help)
{
    add(name, Kind::Bool, help, def ? "1" : "0").boolValue = def;
}

ArgParser::Flag *
ArgParser::find(const std::string &name)
{
    for (auto &f : flags_) {
        if (f.name == name)
            return &f;
    }
    return nullptr;
}

const ArgParser::Flag &
ArgParser::require(const std::string &name, Kind kind) const
{
    for (const auto &f : flags_) {
        if (f.name == name) {
            KELLE_ASSERT(f.kind == kind, "flag --", name,
                         " accessed with the wrong type");
            return f;
        }
    }
    KELLE_PANIC("unregistered flag --", name);
}

bool
ArgParser::failLine(const std::string &message)
{
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
    exitCode_ = 1;
    return false;
}

bool
ArgParser::fail(const std::string &message)
{
    failLine(message);
    std::fputs(usage().c_str(), stderr);
    return false;
}

bool
ArgParser::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            exitCode_ = 0;
            return false;
        }
        if (arg.rfind("--", 0) != 0)
            return fail(detail::fold("unexpected argument '", arg, "'"));

        std::string name = arg.substr(2);
        std::string value;
        bool have_value = false;
        const auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            have_value = true;
        }

        Flag *flag = find(name);
        if (flag == nullptr)
            return fail(detail::fold("unknown flag --", name));

        if (!have_value) {
            // Bare boolean flags mean "true"; everything else consumes
            // the next argument.
            if (flag->kind == Kind::Bool &&
                (i + 1 >= argc ||
                 std::string(argv[i + 1]).rfind("--", 0) == 0)) {
                flag->boolValue = true;
                flag->provided = true;
                continue;
            }
            if (i + 1 >= argc)
                return fail(detail::fold("flag --", name,
                                        " expects a value"));
            value = argv[++i];
        }

        char *end = nullptr;
        switch (flag->kind) {
          case Kind::Int:
            errno = 0;
            flag->intValue =
                static_cast<std::int64_t>(std::strtoll(value.c_str(),
                                                       &end, 10));
            if (end == value.c_str() || *end != '\0')
                return fail(detail::fold("flag --", name,
                                        " expects an integer, got '",
                                        value, "'"));
            if (errno == ERANGE)
                return failLine(detail::fold("--", name,
                                             " must fit in 64 bits, got ",
                                             value));
            if (!inRange(flag->intValue, flag->intRange))
                return failLine(detail::fold("--", name, " ",
                                             flag->rangeText, ", got ",
                                             value));
            break;
          case Kind::Double:
            flag->doubleValue = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0')
                return fail(detail::fold("flag --", name,
                                        " expects a number, got '",
                                        value, "'"));
            if (!inRange(flag->doubleValue, flag->numRange))
                return failLine(detail::fold("--", name, " ",
                                             flag->rangeText, ", got ",
                                             value));
            break;
          case Kind::String:
            flag->stringValue = value;
            break;
          case Kind::Bool:
            if (!parseBoolText(value, &flag->boolValue))
                return fail(detail::fold("flag --", name,
                                        " expects 0/1, got '", value,
                                        "'"));
            break;
        }
        flag->provided = true;
    }
    return true;
}

std::int64_t
ArgParser::getInt(const std::string &name) const
{
    return require(name, Kind::Int).intValue;
}

std::size_t
ArgParser::getSize(const std::string &name) const
{
    const std::int64_t v = require(name, Kind::Int).intValue;
    if (v < 0)
        KELLE_FATAL("flag --", name, " must be >= 0, got ", v);
    return static_cast<std::size_t>(v);
}

double
ArgParser::getDouble(const std::string &name) const
{
    return require(name, Kind::Double).doubleValue;
}

std::string
ArgParser::getString(const std::string &name) const
{
    return require(name, Kind::String).stringValue;
}

bool
ArgParser::getBool(const std::string &name) const
{
    return require(name, Kind::Bool).boolValue;
}

bool
ArgParser::provided(const std::string &name) const
{
    for (const auto &f : flags_) {
        if (f.name == name)
            return f.provided;
    }
    return false;
}

std::string
ArgParser::usage() const
{
    std::ostringstream os;
    os << "usage: " << program_ << " [flags]\n";
    if (!description_.empty())
        os << "  " << description_ << "\n";
    if (!flags_.empty())
        os << "flags:\n";
    for (const auto &f : flags_) {
        os << "  --" << f.name;
        switch (f.kind) {
          case Kind::Int:
            os << " <int>";
            break;
          case Kind::Double:
            os << " <num>";
            break;
          case Kind::String:
            os << " <str>";
            break;
          case Kind::Bool:
            os << " [0|1]";
            break;
        }
        os << "  " << f.help << " (default " << f.defaultText;
        if (f.rangeText != nullptr)
            os << ", " << f.rangeText;
        os << ")\n";
    }
    os << "  --help  print this message\n";
    return os.str();
}

} // namespace common
} // namespace kelle
