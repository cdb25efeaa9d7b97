#ifndef FIM_API_TASK_POOL_H_
#define FIM_API_TASK_POOL_H_

#include <cstddef>
#include <functional>

#include "data/itemset.h"

namespace fim {

/// Mines one task: reports the task's closed sets, in the sequential
/// order, to `sink`. `worker` is the calling thread's index in
/// [0, workers), for per-thread state kept in plain arrays.
using TaskMiner = std::function<void(std::size_t worker, std::size_t task,
                                     const ClosedSetCallback& sink)>;

/// The worker pool of the miners that fan first-level subtrees out (LCM,
/// Carpenter table): runs mine(worker, task, sink) once for every task
/// in [0, num_tasks) on `workers` threads (at least 1 when there are
/// tasks) and returns once they have all joined. Each thread claims the
/// lowest task no thread has claimed yet.
///
/// The calling thread passes every set to `callback`, in task order and
/// in report order within a task: the output of a run that mines the
/// tasks one after the other. A task hands its sets over in chunks of
/// about 256 KiB while it mines, so the lowest unfinished task streams
/// to `callback`, and only the tasks after it hold theirs. An exception
/// from mine or callback stops further claims and calls, and is
/// rethrown here after the join.
void RunTasksInOrder(std::size_t num_tasks, std::size_t workers,
                     const TaskMiner& mine, const ClosedSetCallback& callback);

}  // namespace fim

#endif  // FIM_API_TASK_POOL_H_
