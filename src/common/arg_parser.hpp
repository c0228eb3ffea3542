/**
 * @file
 * Minimal shared CLI flag parser for the bench and example binaries.
 *
 * Flags are registered with a type, a default, a help line and, for
 * numbers, the range of values they accept, then parsed from
 * `--name value` or `--name=value` (plus `--help`, which prints every
 * numeric flag's range). Unknown flags, missing values and malformed
 * numbers are reported with the usage text; a number outside its
 * flag's range (or an integer that overflows int64) with one line.
 * Either way the caller exits with `exitCode()`:
 *
 *   common::ArgParser args("bench_serving", "serving-engine sweep");
 *   args.addDouble("rate", 0.02, "mean arrival rate (req/s)",
 *                  common::NumRange::PositiveFinite);
 *   args.addString("policy", "both", "fcfs | contbatch | both");
 *   if (!args.parse(argc, argv))
 *       return args.exitCode();
 *   double rate = args.getDouble("rate");
 */

#ifndef KELLE_COMMON_ARG_PARSER_HPP
#define KELLE_COMMON_ARG_PARSER_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace kelle {
namespace common {

/** The values an integer flag accepts. */
enum class IntRange
{
    Any,         ///< every int64 (seeds)
    NonNegative, ///< >= 0 (counts where 0 means "off" or "default")
    AtLeastOne,  ///< >= 1 (page sizes, batch caps, fleet sizes)
    Uint32,      ///< [0, 2^32 - 1] (counts stored in 32 bits)
};

/** The values a number flag accepts. */
enum class NumRange
{
    Any,               ///< every double, nan and inf included
    PositiveFinite,    ///< finite > 0 (rates, scales, mean times)
    NonNegativeFinite, ///< finite >= 0 (slacks, 0 = off)
    UnitFraction,      ///< [0, 1]
};

class ArgParser
{
  public:
    ArgParser(std::string program, std::string description);

    /** @name Flag registration (call before parse; the default must
     *  lie in the range). @{ */
    void addInt(const std::string &name, std::int64_t def,
                const std::string &help, IntRange range = IntRange::Any);
    void addDouble(const std::string &name, double def,
                   const std::string &help,
                   NumRange range = NumRange::Any);
    void addString(const std::string &name, const std::string &def,
                   const std::string &help);
    void addBool(const std::string &name, bool def,
                 const std::string &help);
    /** @} */

    /**
     * Parse argv. Returns false when parsing should end the program:
     * on `--help` (exitCode 0) or on an error (exitCode 1, message +
     * usage on stderr).
     */
    bool parse(int argc, char **argv);

    /** @name Typed access (after parse; flag must be registered). @{ */
    std::int64_t getInt(const std::string &name) const;
    /** Int flag destined for a size/count: fatal()s when negative. */
    std::size_t getSize(const std::string &name) const;
    double getDouble(const std::string &name) const;
    std::string getString(const std::string &name) const;
    bool getBool(const std::string &name) const;
    /** @} */

    /** Whether the flag appeared on the command line. */
    bool provided(const std::string &name) const;

    int exitCode() const { return exitCode_; }
    std::string usage() const;

  private:
    enum class Kind
    {
        Int,
        Double,
        String,
        Bool
    };
    struct Flag
    {
        std::string name;
        Kind kind;
        std::string help;
        std::string defaultText;
        IntRange intRange = IntRange::Any;
        NumRange numRange = NumRange::Any;
        /** The range's wording (numeric flags only). */
        const char *rangeText = nullptr;
        std::int64_t intValue = 0;
        double doubleValue = 0.0;
        std::string stringValue;
        bool boolValue = false;
        bool provided = false;
    };

    Flag &add(const std::string &name, Kind kind, const std::string &help,
              std::string default_text);
    Flag *find(const std::string &name);
    const Flag &require(const std::string &name, Kind kind) const;
    /** Report `message` with the usage text; exit code 1. */
    bool fail(const std::string &message);
    /** Report `message` alone, on one line; exit code 1. */
    bool failLine(const std::string &message);

    std::string program_;
    std::string description_;
    std::vector<Flag> flags_;
    int exitCode_ = 0;
};

} // namespace common
} // namespace kelle

#endif // KELLE_COMMON_ARG_PARSER_HPP
