#include "obs/metrics.hh"

#include <cstdio>
#include <fstream>

#include "common/csv.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "obs/trace.hh"

namespace e3::obs {

namespace {

std::string
formatValue(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

} // namespace

MetricsRegistry::MetricsRegistry(const MetricsRegistry &other)
{
    MutexLock lock(other.mutex_);
    MutexLock selfLock(mutex_); // fresh object: trivially uncontended
    metrics_ = other.metrics_;
    rows_ = other.rows_;
}

MetricsRegistry &
MetricsRegistry::operator=(const MetricsRegistry &other)
{
    if (this == &other)
        return *this;
    // std::scoped_lock underneath: deadlock-free whichever order two
    // threads cross-assign registries.
    MutexLockPair lock(mutex_, other.mutex_);
    metrics_ = other.metrics_;
    rows_ = other.rows_;
    return *this;
}

size_t
MetricsRegistry::indexOf(const std::string &name, bool gauge)
{
    for (size_t i = 0; i < metrics_.size(); ++i) {
        if (metrics_[i].name == name) {
            e3_assert(metrics_[i].gauge == gauge,
                      "metric '", name, "' used as both counter and "
                      "gauge");
            return i;
        }
    }
    Metric m;
    m.name = name;
    m.gauge = gauge;
    metrics_.push_back(std::move(m));
    return metrics_.size() - 1;
}

size_t
MetricsRegistry::findIndex(const std::string &name) const
{
    for (size_t i = 0; i < metrics_.size(); ++i) {
        if (metrics_[i].name == name)
            return i;
    }
    return metrics_.size();
}

void
MetricsRegistry::add(const std::string &name, double delta)
{
    MutexLock lock(mutex_);
    metrics_[indexOf(name, /*gauge=*/false)].current += delta;
}

void
MetricsRegistry::setCounter(const std::string &name, double cumulative)
{
    MutexLock lock(mutex_);
    metrics_[indexOf(name, /*gauge=*/false)].current = cumulative;
}

void
MetricsRegistry::setGauge(const std::string &name, double value)
{
    MutexLock lock(mutex_);
    metrics_[indexOf(name, /*gauge=*/true)].current = value;
}

void
MetricsRegistry::importCounters(const std::string &scope,
                                const Counters &src)
{
    const std::string prefix = scope.empty() ? "" : scope + ".";
    for (const auto &name : src.names())
        setCounter(prefix + name, src.get(name));
}

double
MetricsRegistry::value(const std::string &name) const
{
    MutexLock lock(mutex_);
    const size_t i = findIndex(name);
    return i < metrics_.size() ? metrics_[i].current : 0.0;
}

void
MetricsRegistry::snapshotGeneration(int generation)
{
    MutexLock lock(mutex_);
    Row row;
    row.generation = generation;
    row.values.reserve(metrics_.size());
    for (auto &metric : metrics_) {
        if (metric.gauge) {
            row.values.push_back(metric.current);
        } else {
            row.values.push_back(metric.current - metric.lastSnapshot);
            metric.lastSnapshot = metric.current;
        }
    }
    rows_.push_back(std::move(row));
}

std::vector<std::string>
MetricsRegistry::names() const
{
    MutexLock lock(mutex_);
    std::vector<std::string> out;
    out.reserve(metrics_.size());
    for (const auto &metric : metrics_)
        out.push_back(metric.name);
    return out;
}

size_t
MetricsRegistry::metricCount() const
{
    MutexLock lock(mutex_);
    return metrics_.size();
}

size_t
MetricsRegistry::snapshotCount() const
{
    MutexLock lock(mutex_);
    return rows_.size();
}

int
MetricsRegistry::snapshotGenerationAt(size_t row) const
{
    MutexLock lock(mutex_);
    e3_assert(row < rows_.size(), "snapshot row ", row,
              " out of range");
    return rows_[row].generation;
}

double
MetricsRegistry::snapshotValue(size_t row,
                               const std::string &name) const
{
    MutexLock lock(mutex_);
    e3_assert(row < rows_.size(), "snapshot row ", row,
              " out of range");
    const size_t i = findIndex(name);
    if (i >= rows_[row].values.size())
        return 0.0;
    return rows_[row].values[i];
}

std::string
MetricsRegistry::toCsv() const
{
    MutexLock lock(mutex_);
    CsvWriter csv;
    std::vector<std::string> header;
    header.reserve(metrics_.size() + 1);
    header.push_back("generation");
    for (const auto &metric : metrics_)
        header.push_back(metric.name);
    csv.header(std::move(header));
    for (const auto &row : rows_) {
        std::vector<std::string> cells;
        cells.reserve(metrics_.size() + 1);
        cells.push_back(std::to_string(row.generation));
        for (size_t i = 0; i < metrics_.size(); ++i) {
            cells.push_back(i < row.values.size()
                                ? formatValue(row.values[i])
                                : "0");
        }
        csv.row(std::move(cells));
    }
    return csv.str();
}

std::string
MetricsRegistry::toJson() const
{
    MutexLock lock(mutex_);
    std::string out = "{\"metrics\":[";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        if (i)
            out += ",";
        out += jsonQuote(metrics_[i].name);
    }
    out += "],\"snapshots\":[\n";
    for (size_t r = 0; r < rows_.size(); ++r) {
        if (r)
            out += ",\n";
        out += "{\"generation\":" + std::to_string(rows_[r].generation);
        for (size_t i = 0; i < metrics_.size(); ++i) {
            out += ",";
            out += jsonQuote(metrics_[i].name);
            out += ":";
            out += formatValue(i < rows_[r].values.size()
                                   ? rows_[r].values[i]
                                   : 0.0);
        }
        out += "}";
    }
    out += "\n]}\n";
    return out;
}

bool
MetricsRegistry::writeCsv(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot open metrics file '", path, "' for writing");
        return false;
    }
    out << toCsv();
    return static_cast<bool>(out);
}

bool
MetricsRegistry::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot open metrics file '", path, "' for writing");
        return false;
    }
    out << toJson();
    return static_cast<bool>(out);
}

void
MetricsRegistry::reset()
{
    MutexLock lock(mutex_);
    metrics_.clear();
    rows_.clear();
}

std::string
combinedMetricsCsv(
    const std::vector<std::pair<std::string, const MetricsRegistry *>>
        &labeled)
{
    // Union of metric names in first-seen order.
    std::vector<std::string> columns;
    for (const auto &[label, reg] : labeled) {
        for (const auto &name : reg->names()) {
            bool known = false;
            for (const auto &existing : columns)
                known = known || existing == name;
            if (!known)
                columns.push_back(name);
        }
    }

    CsvWriter csv;
    std::vector<std::string> header;
    header.push_back("label");
    header.push_back("generation");
    for (const auto &name : columns)
        header.push_back(name);
    csv.header(std::move(header));

    for (const auto &[label, reg] : labeled) {
        for (size_t r = 0; r < reg->snapshotCount(); ++r) {
            std::vector<std::string> cells;
            cells.push_back(label);
            cells.push_back(
                std::to_string(reg->snapshotGenerationAt(r)));
            for (const auto &name : columns)
                cells.push_back(formatValue(reg->snapshotValue(r, name)));
            csv.row(std::move(cells));
        }
    }
    return csv.str();
}

} // namespace e3::obs
