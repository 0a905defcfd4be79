"""Whole-system live simulation: publications -> broker -> schedulers.

The figure benchmarks replay pre-labelled per-user traces (as the paper's
evaluation does).  This module runs the *deployed* composition instead,
end to end on one round clock (:func:`repro.runtime.columnar.round_arrivals`):

1. publications enter the topic broker in time order;
2. at every round boundary the broker flushes (optionally through the
   broker-side capacity selector of :mod:`repro.pubsub.capacity` -- the
   real-time overload control RichNote is positioned against); released
   notifications are labelled with synthetic mouse activity (ground truth
   for metrics only), scored *online* by a previously trained
   content-utility classifier
   (:class:`repro.core.utility.LearnedContentUtility` -- train on history,
   serve live), wrapped with their presentation ladder and enqueued to the
   recipient's scheduler;
3. each user's round-based scheduler selects and delivers under its own
   budgets, connectivity and battery.

This is the integration a downstream adopter would deploy; the
:class:`SystemReport` surfaces broker-side and user-side metrics together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.core.presentations import build_audio_ladder
from repro.core.utility import LearnedContentUtility
from repro.core.budgets import DataBudget, EnergyBudget
from repro.experiments.adapters import record_to_item
from repro.experiments.config import ExperimentConfig, Method, MethodSpec
from repro.experiments.metrics import UserMetrics, aggregate, compute_user_metrics
from repro.experiments.runner import _build_device, _forest_factory
from repro.ml.dataset import FeatureExtractor, build_training_set
from repro.pubsub.broker import Broker
from repro.pubsub.capacity import CapacityConfig, select_satisfied_subscribers
from repro.runtime import registry
from repro.runtime.columnar import round_arrivals
from repro.runtime.loop import RoundLoop
from repro.runtime.types import Delivery
from repro.trace.entities import Catalog
from repro.trace.generator import TraceConfig, TraceGenerator, Workload
from repro.trace.interactions import InteractionSimulator
from repro.trace.records import NotificationRecord
from repro.trace.socialgraph import SocialGraph


#: Per-user inbox cap of the broker's capacity filter (when it is on).
USER_INBOX_CAPACITY = 200


@dataclass(frozen=True)
class SystemConfig:
    """Knobs of the live-system run."""

    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    method: MethodSpec = field(default_factory=lambda: MethodSpec(Method.RICHNOTE))
    #: Per-round broker fan-out cap; None disables broker-side filtering.
    broker_capacity_per_round: int | None = None


@dataclass
class SystemReport:
    """Joint broker-side and user-side outcome of a run."""

    publications: int
    notifications_matched: int
    notifications_dropped_at_broker: int
    records: list[NotificationRecord]
    per_user: dict[int, UserMetrics]
    deliveries: list[Delivery]

    @property
    def aggregate(self):
        return aggregate(list(self.per_user.values()))

    @property
    def broker_drop_rate(self) -> float:
        if self.notifications_matched == 0:
            return 0.0
        return self.notifications_dropped_at_broker / self.notifications_matched


class SystemSimulation:
    """Composes generator, broker, classifier and schedulers on one clock."""

    def __init__(
        self,
        catalog: Catalog,
        graph: SocialGraph,
        trace_config: TraceConfig,
        system_config: SystemConfig | None = None,
        training_workload: Workload | None = None,
    ) -> None:
        self.catalog = catalog
        self.graph = graph
        self.trace_config = trace_config
        self.config = system_config or SystemConfig()
        self._generator = TraceGenerator(catalog, graph, trace_config)
        # Train the content-utility model on history: a separate workload
        # from the same world but a shifted seed (yesterday's logs).
        if training_workload is None:
            import dataclasses

            history_config = dataclasses.replace(
                trace_config, seed=trace_config.seed + 1000
            )
            training_workload = TraceGenerator(
                catalog, graph, history_config
            ).generate()
        extractor = FeatureExtractor()
        x, y = build_training_set(training_workload.records, extractor)
        forest = _forest_factory(self.config.experiment.seed).fit(x, y)
        self._scorer = LearnedContentUtility(forest, extractor)

    # -- wiring -----------------------------------------------------------------

    def _build_schedulers(
        self, user_ids: list[int], duration: float
    ) -> dict[int, RoundLoop]:
        """One round loop per user, policies resolved through the registry."""
        config = self.config.experiment
        spec = self.config.method
        schedulers: dict[int, RoundLoop] = {}
        for user_id in user_ids:
            device = _build_device(user_id, config, duration)
            data = DataBudget(theta_bytes=config.theta_bytes_per_round)
            energy = EnergyBudget(kappa_joules=config.kappa_joules_per_round)
            schedulers[user_id] = RoundLoop(
                device, data, energy, config.utility_model(),
                policy=registry.create(
                    spec.policy_name, **spec.policy_params(config)
                ),
            )
        return schedulers

    # -- the run ----------------------------------------------------------------

    def run(self) -> SystemReport:
        subscriptions = self._generator.build_subscriptions()
        broker = Broker(subscriptions)
        capacity_config = None
        if self.config.broker_capacity_per_round is not None:
            capacity_config = CapacityConfig(
                broker_capacity=self.config.broker_capacity_per_round,
                default_user_capacity=USER_INBOX_CAPACITY,
            )

        labeller = InteractionSimulator(
            catalog=self.catalog,
            graph=self.graph,
            interest_model=self._generator.interest_model,
        )
        ladder = build_audio_ladder(self.config.experiment.presentation_spec)
        duration = self.trace_config.duration_hours * 3600.0
        user_ids = sorted(self.catalog.users)
        schedulers = self._build_schedulers(user_ids, duration)

        records: list[NotificationRecord] = []
        deliveries: list[Delivery] = []
        dropped = 0

        publications = self._generator.generate_publications()
        arrivals = sorted(publications, key=attrgetter("timestamp"))
        round_seconds = self.config.experiment.round_seconds
        published = 0
        for now, end in round_arrivals(
            [p.timestamp for p in arrivals], round_seconds, duration
        ):
            for publication in arrivals[published:end]:
                broker.publish(publication)
            published = end
            released = broker.flush()
            if capacity_config is not None:
                selection = select_satisfied_subscribers(released, capacity_config)
                dropped += len(selection.dropped)
                released = selection.delivered
            for notification in released:
                record = labeller.label(notification)
                records.append(record)
                item = record_to_item(record, ladder)
                self._scorer.annotate([item])
                schedulers[record.recipient_id].enqueue(item)
            for scheduler in schedulers.values():
                result = scheduler.run_round(now, round_seconds)
                deliveries.extend(result.deliveries)
        # Publications after the last round still reach the broker up to
        # the run's horizon, ``duration + 2 s``: they are matched (and
        # counted in the report) but no round is left to flush them.
        for publication in arrivals[published:]:
            if publication.timestamp < duration + 2.0:
                broker.publish(publication)

        by_user: dict[int, list[NotificationRecord]] = {u: [] for u in user_ids}
        for record in records:
            by_user[record.recipient_id].append(record)
        deliveries_by_user: dict[int, list[Delivery]] = {u: [] for u in user_ids}
        for delivery in deliveries:
            deliveries_by_user[delivery.user_id].append(delivery)
        per_user = {
            user_id: compute_user_metrics(
                user_id, by_user[user_id], deliveries_by_user[user_id]
            )
            for user_id in user_ids
            if by_user[user_id]
        }
        return SystemReport(
            publications=len(publications),
            notifications_matched=broker.stats.notifications,
            notifications_dropped_at_broker=dropped,
            records=records,
            per_user=per_user,
            deliveries=deliveries,
        )
