#include "parallel/parallel_mdjoin.h"

#include "core/detail_scan.h"

namespace mdjoin {

Result<Table> ParallelMdJoin(const Table& base, const Table& detail,
                             const std::vector<AggSpec>& aggs, const ExprPtr& theta,
                             int num_partitions, int num_threads,
                             const MdJoinOptions& options, MdJoinStats* stats) {
  if (num_partitions < 1 || num_threads < 1) {
    return Status::InvalidArgument("ParallelMdJoin: partitions and threads must be >= 1");
  }
  MdJoinOptions eff = options;
  eff.num_threads = num_threads;
  return RunMdJoin("ParallelMdJoin", base, DetailSource(detail),
                   {MdJoinComponent{aggs, theta}}, eff, stats, num_partitions);
}

}  // namespace mdjoin
