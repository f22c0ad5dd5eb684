#include "neat/config_io.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <type_traits>

namespace e3 {

namespace {

/** Name parser, name printer and error wording of an option enum. */
template <typename Enum>
struct EnumText;

template <>
struct EnumText<Activation>
{
    static constexpr const char *kind = "activation";
    static constexpr auto parse = &tryParseActivation;
    static constexpr auto name = &activationName;
};

template <>
struct EnumText<Aggregation>
{
    static constexpr const char *kind = "aggregation";
    static constexpr auto parse = &tryParseAggregation;
    static constexpr auto name = &aggregationName;
};

template <typename Enum>
Status
parseEnum(std::string_view name, Enum &out)
{
    if (EnumText<Enum>::parse(name, out))
        return Status();
    return Status::error("unknown ", EnumText<Enum>::kind, " '", name, "'");
}

/** Parse a list of names separated by spaces and/or commas. */
template <typename Enum>
Status
parseList(std::string text, std::vector<Enum> &out)
{
    std::ranges::replace(text, ',', ' ');
    std::istringstream names(text);
    out.clear();
    for (std::string name; names >> name;) {
        if (Status s = parseEnum(name, out.emplace_back()); !s.ok())
            return s;
    }
    if (out.empty())
        return Status::error("empty ", EnumText<Enum>::kind, " list '",
                             text, "'");
    return Status();
}

/** Read the present key @p k into @p out, whatever its member type. */
template <typename T>
Status
readValue(const IniFile &ini, const NeatConfigKey &k, T &out)
{
    if constexpr (std::is_enum_v<T>) {
        return parseEnum(ini.get(k.section, k.key, ""), out);
    } else if constexpr (!std::is_arithmetic_v<T>) {
        return parseList(ini.get(k.section, k.key, ""), out);
    } else {
        auto read = [&] {
            if constexpr (std::is_same_v<T, bool>)
                return ini.getBool(k.section, k.key, out);
            else if constexpr (std::is_same_v<T, double>)
                return ini.getDouble(k.section, k.key, out);
            else
                return ini.getInt(k.section, k.key, 0);
        }();
        // A negative count wraps into the size_t; validate() casts it
        // back, so its range error prints the value as written.
        if (read.ok())
            out = static_cast<T>(*read);
        return read.status();
    }
}

/** The INI text of one member, whatever its type. */
template <typename T>
std::string
formatValue(const T &value)
{
    if constexpr (std::is_same_v<T, size_t>) {
        return std::to_string(value);
    } else if constexpr (std::is_same_v<T, double>) {
        std::ostringstream oss;
        oss.precision(17);
        oss << value;
        return oss.str();
    } else if constexpr (std::is_same_v<T, bool>) {
        return value ? "true" : "false";
    } else if constexpr (std::is_enum_v<T>) {
        return EnumText<T>::name(value);
    } else {
        // Space-separated names, the form neat-python writes.
        std::string out;
        for (const auto &name : value) {
            if (!out.empty())
                out += ' ';
            out += formatValue(name);
        }
        return out;
    }
}

} // namespace

Result<NeatConfig>
neatConfigFromIni(const IniFile &ini, const NeatConfig &base)
{
    std::map<std::string, std::set<std::string>> known;
    for (const NeatConfigKey &k : neatConfigKeys())
        known[k.section].insert(k.key);
    for (const std::string &section : ini.sections()) {
        const auto keys = known.find(section);
        if (keys == known.end())
            return Status::error("unknown section [", section, "]");
        for (const std::string &key : ini.keys(section)) {
            if (!keys->second.count(key))
                return Status::error("unknown key '", key, "' in [",
                                     section, "]");
        }
    }

    NeatConfig cfg = base;
    for (const NeatConfigKey &k : neatConfigKeys()) {
        if (!ini.has(k.section, k.key))
            continue;
        auto read = [&](auto field) { return readValue(ini, k, cfg.*field); };
        if (Status s = std::visit(read, k.member); !s.ok())
            return s;
    }
    if (Status valid = cfg.validate(); !valid.ok())
        return valid;
    return cfg;
}

Result<NeatConfig>
loadNeatConfig(const std::string &path, const NeatConfig &base)
{
    Result<IniFile> ini = IniFile::load(path);
    if (!ini.ok())
        return ini.status();
    return neatConfigFromIni(*ini, base);
}

std::string
neatConfigToIni(const NeatConfig &cfg)
{
    IniFile ini;
    for (const NeatConfigKey &k : neatConfigKeys()) {
        auto text = [&](auto member) { return formatValue(cfg.*member); };
        ini.set(k.section, k.key, std::visit(text, k.member));
    }
    return ini.str();
}

} // namespace e3
