"""The online Sensing Scheduler service.

"For each application, the Sensing Scheduler applies an online algorithm
to calculate a sensing schedule (that specifies when to sense for each
participating user) for a scheduling period based on runtime
participation information."

Online operation: participants arrive one at a time (a barcode scan).
The service keeps, per application, the incremental coverage objective
over everything already scheduled; a new participant's budget is spent
greedily on the instants with maximum marginal coverage inside their
remaining presence window. This is exactly the paper's greedy restricted
to the elements that are still selectable, and inherits its guarantee
for the instants scheduled so far.
"""

from __future__ import annotations

import numpy as np

from repro.common.clock import Clock
from repro.common.errors import SchedulingError
from repro.core.scheduling import (
    DEFAULT_BACKEND,
    GaussianKernel,
    SchedulingPeriod,
    greedy_window_picks,
    make_objective,
    validate_greedy_options,
)
from repro.obs import MetricsRegistry, Tracer, get_metrics, get_tracer
from repro.server.app_manager import Application
from repro.server.participation import ParticipationManager


class _AppSchedulerState:
    """Per-application incremental coverage state."""

    def __init__(
        self,
        application: Application,
        backend: str = DEFAULT_BACKEND,
        *,
        mode: str = "exact",
        sample_epsilon: float = 0.1,
        seed: int = 2014,
    ) -> None:
        self.period = SchedulingPeriod(
            application.period_start,
            application.period_end,
            application.num_instants,
        )
        self.kernel = GaussianKernel(sigma=application.coverage_sigma_s)
        self.backend = backend
        self.mode = mode
        self.sample_epsilon = sample_epsilon
        # One seeded stream per application state: schedules stay
        # deterministic for a fixed arrival order, and rehydrate rebuilds
        # coverage from the persisted times rather than replaying draws.
        self._rng = (
            np.random.default_rng(seed) if mode == "stochastic" else None
        )
        self.objective = make_objective(self.period, self.kernel, backend)
        self.scheduled_counts: dict[str, int] = {}

    def schedule_user(
        self, user_id: str, *, from_time: float, until_time: float, budget: int
    ) -> tuple[list[int], int]:
        """Greedily pick up to ``budget`` instants in the user's window.

        Returns the chosen instants and the number of candidate instants
        whose marginal gain was evaluated (the service reports it); see
        :func:`~repro.core.scheduling.greedy_window_picks`, which in
        ``mode="stochastic"`` scores a seeded sample per pick.
        """
        lo, hi = self.period.window_indices(
            max(from_time, self.period.start), min(until_time, self.period.end)
        )
        if hi <= lo:
            return [], 0
        chosen, evaluated = greedy_window_picks(
            self.objective,
            lo,
            hi,
            budget,
            rng=self._rng,
            sample_epsilon=self.sample_epsilon,
        )
        self.scheduled_counts[user_id] = (
            self.scheduled_counts.get(user_id, 0) + len(chosen)
        )
        return sorted(chosen), evaluated

    @property
    def average_coverage(self) -> float:
        return self.objective.average_coverage()


class SensingSchedulerService:
    """Schedules each participation request as it arrives."""

    def __init__(
        self,
        participation: ParticipationManager,
        clock: Clock,
        *,
        backend: str = DEFAULT_BACKEND,
        mode: str = "exact",
        sample_epsilon: float = 0.1,
        seed: int = 2014,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        validate_greedy_options(mode, sample_epsilon)
        self.participation = participation
        self.clock = clock
        self.backend = backend
        self.mode = mode
        self.sample_epsilon = sample_epsilon
        self.seed = seed
        self._states: dict[str, _AppSchedulerState] = {}
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._m_tasks = self.metrics.counter(
            "sor_scheduler_tasks_total", "participation tasks scheduled"
        )
        self._m_instants_assigned = self.metrics.counter(
            "sor_scheduler_instants_assigned_total",
            "sensing instants handed to phones",
        )
        self._m_instants_evaluated = self.metrics.counter(
            "sor_scheduler_instants_evaluated_total",
            "candidate instants whose marginal gain was evaluated online",
        )
        self._m_coverage = self.metrics.gauge(
            "sor_scheduler_coverage",
            "average coverage of the pooled schedule, per application",
            labels=("app",),
        )

    def state_for(self, application: Application) -> _AppSchedulerState:
        """The per-application incremental coverage state (lazily built)."""
        state = self._states.get(application.app_id)
        if state is None:
            state = _AppSchedulerState(
                application,
                self.backend,
                mode=self.mode,
                sample_epsilon=self.sample_epsilon,
                seed=self.seed,
            )
            self._states[application.app_id] = state
        return state

    def rehydrate(self, application: Application) -> int:
        """Rebuild coverage state from persisted schedules after a restart.

        The objective over already-scheduled instants is in-memory only;
        the schedules themselves are durable on the task rows. Re-adding
        each persisted sensing time (via its nearest instant index) makes
        post-recovery scheduling see exactly the coverage that existed
        before the crash. Returns the number of instants restored.
        """
        state = self.state_for(application)
        restored = 0
        for task in self.participation.tasks_for_app(application.app_id):
            times = task.get("schedule_times") or []
            if not times:
                continue
            for timestamp in times:
                state.objective.add(state.period.nearest_instant(float(timestamp)))
            state.scheduled_counts[task["user_id"]] = (
                state.scheduled_counts.get(task["user_id"], 0) + len(times)
            )
            restored += len(times)
        if restored:
            self._m_coverage.set(state.average_coverage, app=application.app_id)
        return restored

    def schedule_task(
        self,
        application: Application,
        task_id: str,
        *,
        budget: int,
        departure_time: float | None = None,
    ) -> list[float]:
        """Compute and record the sensing times for a new task.

        The schedule starts from *now* (a user cannot sense in the past)
        and runs to their expected departure or the period end.
        """
        if budget <= 0:
            raise SchedulingError("budget must be positive")
        state = self.state_for(application)
        now = self.clock.now()
        until = departure_time if departure_time is not None else state.period.end
        task = self.participation.get_task(task_id)
        if task is None:
            raise SchedulingError(f"unknown task {task_id!r}")
        with self.tracer.span(
            "scheduler.schedule_task", app_id=application.app_id, budget=budget
        ) as span:
            instants, evaluated = state.schedule_user(
                task["user_id"], from_time=now, until_time=until, budget=budget
            )
            span.set_attribute("instants", len(instants))
        self._m_tasks.inc()
        self._m_instants_assigned.inc(len(instants))
        self._m_instants_evaluated.inc(evaluated)
        self._m_coverage.set(state.average_coverage, app=application.app_id)
        times = [state.period.instant_time(index) for index in instants]
        self.participation.record_schedule(task_id, times)
        return times

    def coverage_for(self, application: Application) -> float:
        """Current average coverage of an application's pooled schedule."""
        return self.state_for(application).average_coverage
