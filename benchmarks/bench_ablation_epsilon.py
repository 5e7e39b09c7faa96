"""Ablation — Minimum Slack's allowed-slack eps and step budget.

Algorithm 1 trades solution quality against search effort through the
allowed slack eps (early exit) and the step budget (eps escalation).
This bench sweeps both on a fixed packing instance and reports slack
achieved vs steps spent — the knob a deployment tunes for large
migration lists.
"""

import numpy as np

from repro.packing.mbs import minimum_bin_slack
from repro.util.tables import format_table


def _instance(n_items: int, seed: int):
    rng = np.random.default_rng(seed)
    sizes = rng.uniform(0.1, 1.5, size=n_items)
    mems = rng.choice([512.0, 1024.0, 2048.0], size=n_items)
    return sizes, mems


def test_ablation_epsilon_and_budget(benchmark, report):
    sizes, mems = _instance(26, seed=11)
    capacity = 11.4
    mem_capacity = 16384.0
    grid = [
        (0.0, 200_000),
        (0.0, 5_000),
        (0.0, 500),
        (0.05, 200_000),
        (0.2, 200_000),
        (0.5, 200_000),
    ]

    def run():
        rows = []
        for eps, budget in grid:
            res = minimum_bin_slack(
                list(sizes), capacity,
                memory_sizes=list(mems), memory_capacity=mem_capacity,
                epsilon=eps, max_steps=budget,
            )
            rows.append((eps, budget, res.slack, res.steps, res.epsilon_used,
                         res.early_exit))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            ["eps (GHz)", "step budget", "slack achieved", "steps used",
             "eps after escalation", "early exit"],
            rows,
            title=f"Ablation: Minimum Slack eps / budget sweep "
            f"(26 items, bin {capacity} GHz)",
        )
    )
    by_key = {(e, b): r for (e, b, *_), r in zip(grid, rows)}
    exhaustive_slack = by_key[(0.0, 200_000)][2]
    # Looser eps never yields a *smaller* slack than the exhaustive run.
    for (eps, budget), row in by_key.items():
        assert row[2] >= exhaustive_slack - 1e-9
    # Larger eps terminates in fewer steps.
    assert by_key[(0.5, 200_000)][3] <= by_key[(0.05, 200_000)][3]
    # The slack found with a generous budget is near-perfect here.
    assert exhaustive_slack < 0.05
