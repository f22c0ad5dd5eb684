/**
 * @file
 * Processing-Element cost model (paper Sec. IV-E).
 *
 * Each PE holds a DSP (multiply-accumulate) plus an activation unit and
 * runs an output-stationary dataflow: it owns one node's output,
 * accumulates the partial sum over the node's ingress connections one
 * MAC per cycle, then spends the pipeline latency on bias add and
 * activation. The node's execution time therefore varies with its
 * in-degree — the source of the PE-synchronization issue in Sec. V-A.
 */

#ifndef E3_INAX_PE_HH
#define E3_INAX_PE_HH

#include <cstddef>
#include <cstdint>

#include "inax/hw_config.hh"

namespace e3 {

/** Cycles for one PE to compute a node with the given in-degree. */
uint64_t peNodeCycles(size_t inDegree, const InaxConfig &cfg);

} // namespace e3

#endif // E3_INAX_PE_HH
