/**
 * @file
 * Lane-indexed scratch for the rollout loop.
 *
 * Every lane of a population evaluation writes a few doubles per env
 * step (its network outputs, its decoded action). Each lane gets its
 * own 64-byte-aligned, whole-cache-line slot, sized once per
 * evaluation; steps never allocate. Workers run contiguous blocks of
 * lanes, so dense slots would share lines across workers only at block
 * edges, where a thief steals from the far end of a victim's block;
 * the padded slots still measured faster than dense ones on the
 * mountain_car rollout.
 */

#ifndef E3_RUNTIME_LANE_BUFFER_HH
#define E3_RUNTIME_LANE_BUFFER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace e3::runtime {

/** One cache-line-aligned slot of `width` doubles per lane. */
class LaneBuffer
{
  public:
    static constexpr size_t kLineDoubles = 64 / sizeof(double);

    LaneBuffer(size_t lanes, size_t width)
        : stride_((width + kLineDoubles - 1) / kLineDoubles *
                  kLineDoubles),
          storage_(lanes * stride_ + kLineDoubles - 1, 0.0)
    {
        const auto addr = reinterpret_cast<uintptr_t>(storage_.data());
        const size_t skew = addr % 64 / sizeof(double);
        base_ = storage_.data() + (skew ? kLineDoubles - skew : 0);
    }

    LaneBuffer(const LaneBuffer &) = delete;
    LaneBuffer &operator=(const LaneBuffer &) = delete;

    /** First double of a lane's slot. */
    double *lane(size_t i) { return base_ + i * stride_; }

  private:
    size_t stride_;
    std::vector<double> storage_;
    double *base_ = nullptr;
};

} // namespace e3::runtime

#endif // E3_RUNTIME_LANE_BUFFER_HH
