#include "common/ini.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace e3 {

namespace {

std::string
trim(const std::string &s)
{
    const auto first = s.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    const auto last = s.find_last_not_of(" \t\r");
    return s.substr(first, last - first + 1);
}

} // namespace

Result<IniFile>
IniFile::parse(std::istream &in)
{
    IniFile ini;
    std::string line;
    std::string section;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const std::string t = trim(line);
        if (t.empty() || t[0] == '#' || t[0] == ';')
            continue;
        if (t.front() == '[') {
            if (t.back() != ']' || t.size() < 3)
                return Status::error("ini line ", lineNo,
                                     ": malformed section '", t, "'");
            section = trim(t.substr(1, t.size() - 2));
            continue;
        }
        const auto eq = t.find('=');
        if (eq == std::string::npos)
            return Status::error("ini line ", lineNo,
                                 ": expected key = value, got '", t,
                                 "'");
        const std::string key = trim(t.substr(0, eq));
        const std::string value = trim(t.substr(eq + 1));
        if (key.empty())
            return Status::error("ini line ", lineNo, ": empty key");
        if (!ini.data_[section].emplace(key, value).second)
            return Status::error("ini line ", lineNo, ": duplicate key '",
                                 key, "' in [", section, "]");
    }
    return ini;
}

Result<IniFile>
IniFile::parseString(const std::string &text)
{
    std::istringstream iss(text);
    return parse(iss);
}

Result<IniFile>
IniFile::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::error("cannot open config file '", path, "'");
    return parse(in);
}

bool
IniFile::has(const std::string &section, const std::string &key) const
{
    const auto sit = data_.find(section);
    return sit != data_.end() && sit->second.count(key) > 0;
}

std::string
IniFile::get(const std::string &section, const std::string &key,
             const std::string &fallback) const
{
    const auto sit = data_.find(section);
    if (sit == data_.end())
        return fallback;
    const auto kit = sit->second.find(key);
    return kit == sit->second.end() ? fallback : kit->second;
}

// The numeric accessors accept exactly what std::stod/std::stol
// accept — they wrap the same strtod/strtol calls — and refuse a value
// that does not parse whole, or overflows or underflows (ERANGE).

Result<double>
IniFile::getDouble(const std::string &section, const std::string &key,
                   double fallback) const
{
    if (!has(section, key))
        return fallback;
    const std::string v = get(section, key, "");
    char *end = nullptr;
    errno = 0;
    const double parsed = std::strtod(v.c_str(), &end);
    if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE)
        return Status::error("[", section, "] ", key, " = '", v,
                             "' is not a number");
    return parsed;
}

Result<long>
IniFile::getInt(const std::string &section, const std::string &key,
                long fallback) const
{
    if (!has(section, key))
        return fallback;
    const std::string v = get(section, key, "");
    char *end = nullptr;
    errno = 0;
    const long parsed = std::strtol(v.c_str(), &end, 10);
    if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE)
        return Status::error("[", section, "] ", key, " = '", v,
                             "' is not an integer");
    return parsed;
}

Result<bool>
IniFile::getBool(const std::string &section, const std::string &key,
                 bool fallback) const
{
    if (!has(section, key))
        return fallback;
    std::string v = get(section, key, "");
    std::transform(v.begin(), v.end(), v.begin(), ::tolower);
    if (v == "true" || v == "1" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "no")
        return false;
    return Status::error("[", section, "] ", key, " = '", v,
                         "' is not a boolean");
}

void
IniFile::set(const std::string &section, const std::string &key,
             const std::string &value)
{
    data_[section][key] = value;
}

std::set<std::string>
IniFile::keys(const std::string &section) const
{
    std::set<std::string> out;
    const auto sit = data_.find(section);
    if (sit != data_.end()) {
        for (const auto &[key, value] : sit->second)
            out.insert(key);
    }
    return out;
}

std::set<std::string>
IniFile::sections() const
{
    std::set<std::string> out;
    for (const auto &[section, kvs] : data_)
        out.insert(section);
    return out;
}

std::string
IniFile::str() const
{
    std::ostringstream oss;
    for (const auto &[section, kvs] : data_) {
        if (!section.empty())
            oss << '[' << section << "]\n";
        for (const auto &[key, value] : kvs)
            oss << key << " = " << value << '\n';
        oss << '\n';
    }
    return oss.str();
}

} // namespace e3
