/**
 * @file
 * Minimal INI-style configuration parser, in the spirit of
 * neat-python's config files:
 *
 *   # comment
 *   [NEAT]
 *   pop_size = 200
 *   fitness_threshold = 475.0
 *
 * Sections group keys; values are strings with typed accessors.
 * Malformed input — an unclosed section header, a line without '=',
 * a key repeated within its section, a value that fails numeric
 * parsing — is reported as an error value (Result<T>), never by
 * terminating the process: config files are user-supplied bytes and
 * the caller decides how to degrade.
 */

#ifndef E3_COMMON_INI_HH
#define E3_COMMON_INI_HH

#include <iosfwd>
#include <map>
#include <set>
#include <string>

#include "common/result.hh"

namespace e3 {

/** Parsed INI document. */
class IniFile
{
  public:
    IniFile() = default;

    /** Parse from a stream; malformed lines are an error. */
    static Result<IniFile> parse(std::istream &in);

    /** Parse from a string. */
    static Result<IniFile> parseString(const std::string &text);

    /** Load from a file; error if unreadable or malformed. */
    static Result<IniFile> load(const std::string &path);

    /** True if [section] key exists. */
    [[nodiscard]] bool has(const std::string &section,
                           const std::string &key) const;

    /** String value; fallback when absent. */
    std::string get(const std::string &section, const std::string &key,
                    const std::string &fallback) const;

    /** Double value; fallback when absent, error if unparsable. */
    Result<double> getDouble(const std::string &section,
                             const std::string &key,
                             double fallback) const;

    /** Integer value; fallback when absent, error if unparsable. */
    Result<long> getInt(const std::string &section,
                        const std::string &key, long fallback) const;

    /** Boolean value: true/false/1/0/yes/no; error on anything else. */
    Result<bool> getBool(const std::string &section,
                         const std::string &key, bool fallback) const;

    /** Set (or overwrite) a value. */
    void set(const std::string &section, const std::string &key,
             const std::string &value);

    /** All keys of a section (empty set if absent). */
    std::set<std::string> keys(const std::string &section) const;

    /**
     * Names of the sections that hold at least one key; "" stands for
     * keys written before any section header.
     */
    std::set<std::string> sections() const;

    /** Serialize back to INI text. */
    std::string str() const;

  private:
    /** section -> key -> value */
    std::map<std::string, std::map<std::string, std::string>> data_;
};

} // namespace e3

#endif // E3_COMMON_INI_HH
