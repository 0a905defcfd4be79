"""Claims: round length, budget rollover and round batching (DESIGN.md Sec. 5).

* **Round length** -- Section II argues round duration should be "tuned ...
  proportional to the frequency of the feed".  Sweeping the round length at
  a fixed weekly budget shows the latency/batching trade-off: shorter
  rounds cut queuing delay; longer rounds pool arrivals (bigger selection
  pools, better-amortized radio overhead) at the cost of delay.
* **Rollover** -- Algorithm 2 lets unused budget roll over.  Capping the
  data budget at one round's allowance (no rollover) strands capacity in
  quiet rounds: delivered bytes and utility drop, most visibly for
  fixed-level baselines whose item size exceeds one round's theta.
* **Energy batching** -- one burst per round pays the radio's ramp+tail
  overhead once instead of once per notification.
"""

from dataclasses import replace

import pytest

from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.presentations import build_audio_ladder
from repro.core.utility import CombinedUtilityModel, ExponentialAging
from repro.experiments.adapters import record_to_item
from repro.experiments.config import ExperimentConfig, Method, MethodSpec
from repro.experiments.runner import _build_device, run_experiment
from repro.runtime import RoundLoop, registry
from repro.runtime.columnar import round_arrivals
from repro.sim.energy import TransferEnergyModel
from repro.sim.network import NetworkState


def test_round_length(world):
    lengths = (900.0, 3600.0, 4 * 3600.0)
    rows = {}
    for round_seconds in lengths:
        config = replace(
            ExperimentConfig(weekly_budget_mb=10.0),
            round_seconds=round_seconds,
        )
        result = run_experiment(
            world.workload, MethodSpec(Method.RICHNOTE), config,
            world.annotations, world.users,
        )
        rows[round_seconds] = (
            result.aggregate.mean_queuing_delay_s,
            result.aggregate.total_utility,
            result.aggregate.energy_kilojoules,
        )
    print()
    print("# Ablation: round length (RichNote, 10MB/week)")
    print("round      delay_s   total_util  energy_kJ")
    for round_seconds, (delay, utility, energy) in rows.items():
        print(f"{round_seconds / 60:>5.0f}min {delay:>9.0f} {utility:>12.1f} "
              f"{energy:>10.2f}")
    delays = [rows[length][0] for length in lengths]
    # Delay scales with round length (items wait ~half a round).
    assert delays[0] < delays[1] < delays[2]
    assert delays[1] == pytest.approx(3600.0 / 2, rel=0.15)
    # Longer rounds amortize radio overhead across bigger batches.
    energies = [rows[length][2] for length in lengths]
    assert energies[2] < energies[0]


def test_rollover(world):
    """No-rollover ablation via the DataBudget cap, driven per user.

    The experiment harness always rolls over (Algorithm 2); here we rebuild
    the per-user replay with ``cap_bytes = theta`` to model a plan whose
    unused round allowance expires.
    """
    config = ExperimentConfig(weekly_budget_mb=5.0)
    theta = config.theta_bytes_per_round
    duration = world.workload.config.duration_hours * 3600.0
    ladder = build_audio_ladder()

    def replay(policy: str, rollover: bool) -> tuple[int, float]:
        delivered = 0
        total_utility = 0.0
        for user_id in world.users[:10]:
            records = world.workload.records_for_user(user_id)
            device = _build_device(user_id, config, duration)
            budget = DataBudget(
                theta_bytes=theta, cap_bytes=None if rollover else theta
            )
            energy = EnergyBudget(kappa_joules=config.kappa_joules_per_round)
            utility_model = CombinedUtilityModel(
                aging=ExponentialAging(config.aging_tau_seconds)
            )
            params = {} if policy == "richnote" else {"fixed_level": 3}
            scheduler = RoundLoop(
                device, budget, energy, utility_model,
                policy=registry.create(policy, **params),
            )
            items = []
            for record in records:
                item = record_to_item(record, ladder)
                item.content_utility = world.annotations.scores[record.notification_id]
                items.append(item)
            items.sort(key=lambda item: item.created_at)
            arrived = 0
            for now, end in round_arrivals(
                [item.created_at for item in items], config.round_seconds, duration
            ):
                for item in items[arrived:end]:
                    scheduler.enqueue(item)
                arrived = end
                result = scheduler.run_round(now, config.round_seconds)
                delivered += len(result.deliveries)
                total_utility += result.delivered_utility
        return delivered, total_utility

    rows = {
        (policy, rollover): replay(policy, rollover)
        for policy in ("richnote", "util")
        for rollover in (True, False)
    }
    print()
    print("# Ablation: budget rollover (5MB/week, 10 users)")
    print("policy     rollover   delivered   total_util")
    for (policy, rollover), (delivered, utility) in rows.items():
        print(f"{policy:<10} {str(rollover):<10} {delivered:>9} {utility:>12.1f}")
    # UTIL-L3's item size (200 KB) exceeds theta (~30 KB/round): without
    # rollover it can never afford a delivery.
    assert rows[("util", False)][0] == 0
    assert rows[("util", True)][0] > 0
    # RichNote degrades but keeps delivering (metadata fits every round).
    assert rows[("richnote", False)][0] > 0
    assert rows[("richnote", True)][1] >= rows[("richnote", False)][1]


def test_energy_batching():
    """Why round batching matters for energy: tail amortization.

    The Balasubramanian et al. model charges a fixed ramp+tail overhead per
    communication burst (3.5 J on 3G).  Delivering a round's notifications
    in one burst -- what the round-based model does -- pays it once; a
    push-per-notification design pays it every time.  For metadata-sized
    notifications the saving is the batch size (~30x here); for preview-
    sized payloads the per-byte cost dominates and batching saves little.
    """
    model = TransferEnergyModel()
    sizes_metadata = [200.0] * 30  # 30 metadata notifications in a round
    sizes_previews = [200_200.0] * 30  # 30 ten-second previews
    rows = {}
    for label, sizes in (("metadata", sizes_metadata),
                         ("10s-preview", sizes_previews)):
        per_item = sum(
            model.item_energy(NetworkState.CELL, s) for s in sizes
        )
        batched = model.batch_energy(NetworkState.CELL, sizes)
        rows[label] = (per_item, batched)
    print()
    print("# Ablation: per-item pushes vs one round burst (30 items, 3G)")
    print("payload        per-item J   batched J   saving")
    for label, (per_item, batched) in rows.items():
        print(f"{label:<14} {per_item:>10.1f} {batched:>11.1f} "
              f"{per_item / batched:>8.1f}x")
    meta_per_item, meta_batched = rows["metadata"]
    assert meta_per_item / meta_batched > 20  # tail dominates tiny payloads
    preview_per_item, preview_batched = rows["10s-preview"]
    assert preview_per_item / preview_batched < 2  # payload dominates big ones
