/**
 * @file
 * NeatConfig <-> INI file mapping, in the naming style of neat-python's
 * config sections ([NEAT] pop_size = 200, [DefaultGenome]
 * conn_add_prob = 0.5, ...). Both directions walk the one key table,
 * neatConfigKeys(). A section or key outside it is rejected: typos in
 * experiment configs should fail loudly, not silently fall back to
 * defaults. Option lists take names separated by spaces and/or commas.
 * Every load path reports the first bad input as an error value naming
 * its key (an unknown section or key, an unparsable or non-finite
 * number, a count out of range, a probability outside [0, 1], anything
 * else NeatConfig::validate() rejects), so callers choose whether to
 * die (the CLI) or degrade.
 */

#ifndef E3_NEAT_CONFIG_IO_HH
#define E3_NEAT_CONFIG_IO_HH

#include "common/ini.hh"
#include "common/result.hh"
#include "neat/config.hh"

namespace e3 {

/**
 * Build a NeatConfig from an INI document layered over @p base (task
 * defaults); error on the first unknown section, unknown key or
 * invalid value.
 */
Result<NeatConfig>
neatConfigFromIni(const IniFile &ini,
                  const NeatConfig &base = NeatConfig{});

/** Load from a file path; error if unreadable or invalid. */
Result<NeatConfig> loadNeatConfig(const std::string &path,
                                  const NeatConfig &base = NeatConfig{});

/** Every key as INI text, sorted; round-trips with the loader. */
std::string neatConfigToIni(const NeatConfig &cfg);

} // namespace e3

#endif // E3_NEAT_CONFIG_IO_HH
