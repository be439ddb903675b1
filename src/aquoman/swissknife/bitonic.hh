/**
 * @file
 * Pipelined bitonic vector sorter (Sec. VI-C). Sorts one hardware
 * vector (power-of-two length) per pipeline beat using the classic
 * bitonic network; the model executes the actual compare-and-swap
 * network so stage and comparator counts are real.
 */

#ifndef AQUOMAN_AQUOMAN_SWISSKNIFE_BITONIC_HH
#define AQUOMAN_AQUOMAN_SWISSKNIFE_BITONIC_HH

#include "aquoman/swissknife/kv.hh"

namespace aquoman {

/** Bitonic sorting network over fixed-size vectors. */
class BitonicSorter
{
  public:
    /** @param vector_size hardware vector length (power of two). */
    explicit BitonicSorter(int vector_size);

    /** Pipeline depth: number of compare stages of the network. */
    int numStages() const { return stages; }

    /** Sort @p v ascending in place via the network. */
    void sortVector(Kv *v);

    /** Compare-and-swap operations executed so far. */
    std::int64_t casOps() const { return ops; }

  private:
    int size;
    int stages;
    std::int64_t ops = 0;
};

} // namespace aquoman

#endif // AQUOMAN_AQUOMAN_SWISSKNIFE_BITONIC_HH
