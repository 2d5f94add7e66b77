/**
 * @file
 * Rotation-based load-balancing shuffle (paper Section III).
 *
 * Unstructured sparsity leaves some lanes with many more nonzeros than
 * others; the window can only advance as fast as the most loaded lane
 * drains.  The paper shuffles A and B along their second axis (k2)
 * before scheduling: element (i1, i2, i3) relocates within its step to
 * a rotated lane.  A full K0 x K0 crossbar is too expensive, so the
 * rotation is *local*: lanes are split into groups of `groupSize`
 * (paper: 4) consecutive lanes, realised as K0/4 cheap 4x4 crossbars,
 * and each group rotates by (i1 mod groupSize).
 *
 * Because both A and B rotate identically, A[m][k] still meets B[k][n]
 * at the same multiplier — lanes are merely relabelled per step, so
 * GEMM results are unchanged (tests verify).
 */

#ifndef GRIFFIN_TENSOR_SHUFFLE_HH
#define GRIFFIN_TENSOR_SHUFFLE_HH

#include <cstdint>

#include "common/logging.hh"

namespace griffin {

/**
 * The lane permutation applied per temporal step.  apply() maps an
 * original lane to its post-shuffle position; invert() undoes it.
 */
class Shuffler
{
  public:
    /**
     * @param enabled     identity permutation when false
     * @param lanes       K0, the dot-product width
     * @param group_size  crossbar granularity; `lanes` means a full
     *                    K0 x K0 crossbar, 4 is the paper's choice
     */
    Shuffler(bool enabled, int lanes, int group_size = 4);

    bool enabled() const { return enabled_; }
    int lanes() const { return lanes_; }
    int groupSize() const { return groupSize_; }

    /** Steps after which the permutation repeats:
     *  apply(step, lane) == apply(step % period(), lane). */
    int period() const { return enabled_ ? groupSize_ : 1; }

    /** Post-shuffle lane of the element originally at (step, lane). */
    int
    apply(std::int64_t step, int lane) const
    {
        GRIFFIN_ASSERT(lane >= 0 && lane < lanes_,
                       "lane ", lane, " out of ", lanes_);
        if (!enabled_)
            return lane;
        const int group = lane / groupSize_;
        const int offset = lane % groupSize_;
        const int rot = static_cast<int>(step % groupSize_);
        return group * groupSize_ + (offset + rot) % groupSize_;
    }

    /** Original lane of the element now at (step, lane). */
    int
    invert(std::int64_t step, int lane) const
    {
        GRIFFIN_ASSERT(lane >= 0 && lane < lanes_,
                       "lane ", lane, " out of ", lanes_);
        if (!enabled_)
            return lane;
        const int group = lane / groupSize_;
        const int offset = lane % groupSize_;
        const int rot = static_cast<int>(step % groupSize_);
        return group * groupSize_ +
               (offset - rot % groupSize_ + groupSize_) % groupSize_;
    }

  private:
    bool enabled_;
    int lanes_;
    int groupSize_;
};

} // namespace griffin

#endif // GRIFFIN_TENSOR_SHUFFLE_HH
