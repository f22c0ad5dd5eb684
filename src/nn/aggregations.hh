/**
 * @file
 * Node aggregation functions: how a node combines its weighted inputs
 * before the bias and activation are applied. Sum is the MLP default;
 * the alternatives mirror neat-python's aggregation options.
 */

#ifndef E3_NN_AGGREGATIONS_HH
#define E3_NN_AGGREGATIONS_HH

#include <string>
#include <string_view>
#include <vector>

#include "common/result.hh"

namespace e3 {

/** Supported aggregation functions. */
enum class Aggregation
{
    Sum,
    Product,
    Max,
    Min,
    Mean,
};

/** Number of Aggregation enumerators (see kActivationCount). */
inline constexpr int kAggregationCount = 5;

/** Combine weighted input contributions; empty input yields 0. */
double applyAggregation(Aggregation agg,
                        const std::vector<double> &values);

/** Streaming form: fold one more value into an accumulator. */
class Aggregator
{
  public:
    explicit Aggregator(Aggregation agg);

    /** Fold in one weighted input contribution. */
    void add(double v);

    /** Final aggregate (0 if nothing was added). */
    double result() const;

  private:
    Aggregation agg_;
    double acc_ = 0.0;
    size_t count_ = 0;
};

/** Stable lowercase name, e.g. "sum". */
std::string aggregationName(Aggregation agg);

/** Parse a name produced by aggregationName(); error on unknown. */
Result<Aggregation> parseAggregation(const std::string &name);

/**
 * Parse a name into @p out and return true; false on unknown names
 * (for load paths that must not terminate the process).
 */
bool tryParseAggregation(std::string_view name, Aggregation &out);

/** Number of distinct aggregations (for mutation sampling). */
constexpr int numAggregations = 5;

/** Map a dense index [0, numAggregations) to an Aggregation. */
Aggregation aggregationFromIndex(int index);

} // namespace e3

#endif // E3_NN_AGGREGATIONS_HH
