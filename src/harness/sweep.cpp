#include "harness/sweep.hpp"

#include "telemetry/capture.hpp"

namespace hxsp {

ParallelSweep::ParallelSweep(int workers) : pool_(workers) {}

std::vector<TaskResult> ParallelSweep::run_tasks(
    const std::vector<TaskSpec>& tasks,
    const std::function<void(std::size_t, const TaskResult&)>& on_result,
    int step_threads, std::vector<TelemetryCapture>* captures) {
  if (captures) captures->assign(tasks.size(), TelemetryCapture{});
  return map<TaskResult>(
      tasks.size(),
      [&tasks, step_threads, captures](std::size_t i) {
        return run_task(tasks[i], step_threads,
                        captures ? &(*captures)[i] : nullptr);
      },
      on_result);
}

} // namespace hxsp
