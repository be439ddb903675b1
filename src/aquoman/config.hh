/**
 * @file
 * Static configuration of one AQUOMAN device instance. Defaults follow
 * the paper's FPGA prototype (Sec. VII) and simulator (Sec. VIII-A):
 * 125MHz / 4GB/s pipeline fed by a 2.4GB/s flash card, 4 Column
 * Predicate Evaluators, 4 PEs with 8-instruction memories, a 1024-bucket
 * Aggregate Group-By with 16B group identifiers, a 1MB regex-accelerator
 * string cache, and a 1GB-block streaming sorter.
 */

#ifndef AQUOMAN_AQUOMAN_CONFIG_HH
#define AQUOMAN_AQUOMAN_CONFIG_HH

#include <cstdint>
#include <string>

namespace aquoman {

/** AQUOMAN device parameters (Table VI + Sec. VII). */
struct AquomanConfig
{
    /** Device DRAM for intermediate tables (paper: 40GB / 16GB). */
    std::int64_t dramBytes = 40ll << 30;

    /** Peak processing rate of the fixed pipeline in bytes/second. */
    double processingRate = 4.0e9;

    /** Pipeline clock in Hz (125MHz on the VCU108 prototype). */
    double clockHz = 125e6;

    /** Column Predicate Evaluators in the Row Selector. */
    int numPredicateEvaluators = 4;

    /** Processing engines in the Row Transformer systolic array. */
    int numProcessingEngines = 4;

    /** Instruction-memory slots per PE. */
    int peInstructionSlots = 8;

    /** Buckets in the Aggregate Group-By hash table. */
    int groupByBuckets = 1024;

    /** Maximum group-identifier size in bytes. */
    int groupIdBytes = 16;

    /** Aggregate columns one bucket slot can hold. */
    int aggSlotsPerBucket = 8;

    /** Regex-accelerator string-heap cache (Sec. VI-B). */
    std::int64_t regexCacheBytes = 1 << 20;

    /** Streaming-sorter block size (1GB in hardware; tests shrink it). */
    std::int64_t sorterBlockBytes = 1ll << 30;

    /** Fan-in of each merger layer in the streaming sorter. */
    int sorterMergeFanIn = 256;

    /**
     * Ratio between the paper's SF-1000 dataset and the simulated one
     * (1000 / sf). The benches record it on the config; no model
     * reads it.
     */
    double paperScaleRatio = 1.0;

    /**
     * Label naming this device run's simulation-trace tracks (e.g.
     * "q6#3" in the service, "q6 dram40" in the benches). Empty falls
     * back to the query name.
     */
    std::string traceLabel;

    /** The paper's AQUOMAN setup: 40GB device DRAM. */
    static AquomanConfig
    paper40()
    {
        return AquomanConfig{};
    }
};

} // namespace aquoman

#endif // AQUOMAN_AQUOMAN_CONFIG_HH
