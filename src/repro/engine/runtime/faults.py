"""Deterministic fault injection for the task runtime.

Tests (and chaos-style experiments) register *kill plans* against a
context's fault injector; the scheduler consults the plans as it builds
each dispatch and marks the doomed attempts, which then die inside the
worker with :class:`~repro.errors.InjectedFault` -- the same path a
preempted or crashed worker would take, minus the nondeterminism.

Stages are addressed by **dispatch ordinal**: the executor numbers the
task sets a job *can* dispatch 0, 1, 2, ... in plan order at planning
time (see :mod:`repro.engine.dag`), before anything runs.  Because the
numbering is fixed by the plan rather than by what ran before, a plan
keyed on ``(stage, task)`` hits the same task whether or not an earlier
shuffle was elided at run time, and each job of a ``ctx.gather`` draws
one contiguous range.
Plans can alternatively match on the operator name of the dispatched
task (``"ReduceByKey"``, ``"Map[phase1]"``, substring match), which is
stabler across plan refactors.

Thread safety: concurrently gathered jobs consult the injector from
one thread each, so consuming a planned failure is atomic -- each
planned failure is injected exactly once no matter how dispatches
interleave.
"""

import threading


class _KillPlan:
    __slots__ = ("stage", "operator", "task_index", "remaining")

    def __init__(self, stage, operator, task_index, times):
        self.stage = stage
        self.operator = operator
        self.task_index = task_index
        self.remaining = times

    def matches(self, stage_ordinal, operator, task_index):
        if self.remaining <= 0:
            return False
        if self.task_index is not None and task_index != self.task_index:
            return False
        if self.stage is not None and stage_ordinal != self.stage:
            return False
        if self.operator is not None and self.operator not in operator:
            return False
        return True


class FaultInjector:
    """Plans deterministic task failures; consulted at dispatch time."""

    def __init__(self):
        self._plans = []
        self._lock = threading.Lock()
        #: Count of faults actually injected (handy for assertions).
        self.injected = 0

    def kill_task(self, task_index=None, stage=None, operator=None,
                  times=1):
        """Plan ``times`` consecutive failures of a matching task.

        Args:
            task_index: Task (partition) index to kill, or ``None`` for
                any task.
            stage: Dispatch ordinal to match, or ``None`` for any.
            operator: Substring of the dispatched operator name to
                match, or ``None`` for any.
            times: How many attempts to kill before letting the task
                succeed (set it at or above the retry budget to force a
                permanent failure).
        """
        if stage is None and operator is None and task_index is None:
            raise ValueError(
                "kill_task needs at least one of task_index, stage, "
                "operator"
            )
        if times < 1:
            raise ValueError("times must be >= 1")
        with self._lock:
            self._plans.append(
                _KillPlan(stage, operator, task_index, times)
            )

    def should_fail(self, stage_ordinal, operator, task_index):
        """Consume one planned failure for this attempt, if any."""
        with self._lock:
            for plan in self._plans:
                if plan.matches(stage_ordinal, operator, task_index):
                    plan.remaining -= 1
                    self.injected += 1
                    return True
        return False

    @property
    def pending(self):
        """Failures planned but not yet injected."""
        with self._lock:
            return sum(plan.remaining for plan in self._plans)

    def reset(self):
        with self._lock:
            self._plans.clear()
            self.injected = 0
