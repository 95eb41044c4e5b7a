#ifndef PDS2_PERFBENCH_WORKLOADS_H_
#define PDS2_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

WorkloadResult RunLifecycle(const Options& opt, Checker& check);
WorkloadResult RunChainTransfer(const Options& opt, Checker& check);
WorkloadResult RunDesRumor(const Options& opt, Checker& check);

}  // namespace perfbench

#endif  // PDS2_PERFBENCH_WORKLOADS_H_
