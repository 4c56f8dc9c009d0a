"""Exception hierarchy shared across the repro packages."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class PlanError(ReproError):
    """A logical plan was constructed or used incorrectly."""


class ExecutionError(ReproError):
    """A job failed while executing on the engine."""


class UdfError(ExecutionError):
    """A user-defined function raised an exception.

    The original exception is available as ``__cause__``.
    """

    def __init__(self, operator, original):
        super().__init__(
            "UDF raised %s in operator %r: %s"
            % (type(original).__name__, operator, original)
        )
        self.operator = operator
        self.original = original

    def __reduce__(self):
        # Exceptions with non-message __init__ signatures do not pickle
        # by default; task results cross process boundaries, so every
        # engine error spells out how to rebuild itself.
        return (type(self), (self.operator, self.original))


class SimulatedOutOfMemory(ExecutionError):
    """An executor's working set exceeded the configured memory.

    Raised by the engine wherever real Spark would die with an
    ``OutOfMemoryError``: materializing a group that does not fit on one
    executor, broadcasting a dataset larger than executor memory, or
    collecting an oversized result to the driver.
    """

    def __init__(self, what, needed_bytes, limit_bytes):
        super().__init__(
            "simulated OOM while %s: needs %d bytes but executor limit is %d"
            % (what, needed_bytes, limit_bytes)
        )
        self.what = what
        self.needed_bytes = needed_bytes
        self.limit_bytes = limit_bytes

    def __reduce__(self):
        return (
            type(self), (self.what, self.needed_bytes, self.limit_bytes)
        )


class SerializationError(PlanError):
    """A closure or task result could not cross a process boundary.

    Raised with the name of the operator whose closure (or output)
    failed to serialize, so the offending UDF is easy to find.
    """


class InjectedFault(ExecutionError):
    """A deterministic fault planted by the test fault-injection hook.

    The scheduler treats it as a transient task failure (a killed
    worker) and retries the task, unlike deterministic UDF bugs.
    """


class WorkerLostError(ExecutionError):
    """A worker process died while the task was in flight on its pool.

    Retryable: a dead worker breaks the whole pool, so the task that
    killed it and every innocent one in flight beside it are lost alike.
    The scheduler retries them on a fresh pool under the per-task
    attempt budget; a task that kills every worker it meets ends in
    :class:`TaskFailedError`.
    """

    retryable = True


class TaskFailedError(ExecutionError):
    """A task kept failing after exhausting its retry budget."""

    def __init__(self, stage, task_index, attempts, last_error):
        super().__init__(
            "task %d of stage dispatch %d failed %d time(s); last error: %s"
            % (task_index, stage, attempts, last_error)
        )
        self.stage = stage
        self.task_index = task_index
        self.attempts = attempts
        self.last_error = last_error

    def __reduce__(self):
        return (
            type(self),
            (self.stage, self.task_index, self.attempts, self.last_error),
        )


class FlatteningError(ReproError):
    """The flattening machinery was used in an unsupported way."""


class ParsingError(ReproError):
    """The parsing phase (AST rewriter) could not translate a UDF."""


class UnsupportedConstructError(ParsingError):
    """A ``@nested_udf`` body uses a construct the rewriter cannot lift.

    Raised eagerly at decoration time, before any rewriting happens, so
    the failure points at the offending source construct instead of a
    downstream rewrite or staging error.

    Attributes:
        code: The diagnostic code (``NPL1xx``) of the construct.
        line / col: 1-based source location in the defining file.
    """

    def __init__(self, message, code=None, line=None, col=None):
        super().__init__(message)
        self.code = code
        self.line = line
        self.col = col

    def __reduce__(self):
        return (
            type(self), (self.args[0], self.code, self.line, self.col)
        )


class AnalysisError(ReproError):
    """Static analysis (:mod:`repro.analysis`) found error diagnostics.

    The structured findings are available as ``diagnostics`` (a list of
    :class:`repro.analysis.Diagnostic`).
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__(
            "static analysis found %d problem(s):\n%s"
            % (
                len(self.diagnostics),
                "\n".join(str(d) for d in self.diagnostics),
            )
        )

    def __reduce__(self):
        return (type(self), (self.diagnostics,))


class UnsupportedFeatureError(ReproError):
    """A baseline system does not support the requested feature.

    Used by the DIQL baseline, which (like the original prototype) rejects
    control flow statements at inner nesting levels.
    """
