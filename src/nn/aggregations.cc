#include "nn/aggregations.hh"

#include <algorithm>

#include "common/logging.hh"

namespace e3 {

double
applyAggregation(Aggregation agg, const std::vector<double> &values)
{
    Aggregator a(agg);
    for (double v : values)
        a.add(v);
    return a.result();
}

Aggregator::Aggregator(Aggregation agg) : agg_(agg)
{
}

void
Aggregator::add(double v)
{
    if (count_ == 0) {
        // Every aggregation seeds from its first element; sum/mean fold
        // additively afterwards.
        acc_ = v;
    } else {
        switch (agg_) {
          case Aggregation::Sum:
          case Aggregation::Mean:
            acc_ += v;
            break;
          case Aggregation::Product:
            acc_ *= v;
            break;
          case Aggregation::Max:
            acc_ = std::max(acc_, v);
            break;
          case Aggregation::Min:
            acc_ = std::min(acc_, v);
            break;
        }
    }
    ++count_;
}

double
Aggregator::result() const
{
    if (count_ == 0)
        return 0.0;
    if (agg_ == Aggregation::Mean)
        return acc_ / static_cast<double>(count_);
    return acc_;
}

std::string
aggregationName(Aggregation agg)
{
    switch (agg) {
      case Aggregation::Sum: return "sum";
      case Aggregation::Product: return "product";
      case Aggregation::Max: return "max";
      case Aggregation::Min: return "min";
      case Aggregation::Mean: return "mean";
    }
    e3_panic("unhandled aggregation");
}

Result<Aggregation>
parseAggregation(const std::string &name)
{
    Aggregation agg;
    if (!tryParseAggregation(name, agg))
        return Status::error("unknown aggregation '", name, "'");
    return agg;
}

bool
tryParseAggregation(std::string_view name, Aggregation &out)
{
    for (int i = 0; i < numAggregations; ++i) {
        const Aggregation agg = aggregationFromIndex(i);
        if (aggregationName(agg) == name) {
            out = agg;
            return true;
        }
    }
    return false;
}

Aggregation
aggregationFromIndex(int index)
{
    e3_assert(index >= 0 && index < numAggregations,
              "aggregation index ", index, " out of range");
    return static_cast<Aggregation>(index);
}

} // namespace e3
