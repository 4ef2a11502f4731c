#include "core/morsel_scheduler.h"

#include "common/logging.h"

namespace mdjoin {

MorselScheduler::MorselScheduler(int64_t num_jobs, int64_t rows_per_job,
                                 int64_t morsel_size)
    : rows_per_job_(rows_per_job),
      morsel_size_(morsel_size > 0 ? morsel_size : 1),
      morsels_per_job_(rows_per_job > 0
                           ? (rows_per_job + morsel_size_ - 1) / morsel_size_
                           : 0),
      total_(num_jobs * morsels_per_job_) {
  MDJ_CHECK(num_jobs >= 0 && rows_per_job >= 0);
  // morsels_per_job_ == 0 (empty detail relation) makes total_ 0; Next()
  // then returns false immediately, which is the correct degenerate case.
  // Guard the divisor so Next()'s u / morsels_per_job_ stays defined even
  // though it can never be reached with total_ == 0.
  if (morsels_per_job_ == 0) morsels_per_job_ = 1;
}

}  // namespace mdjoin
