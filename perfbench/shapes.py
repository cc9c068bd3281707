"""Fixed-shape medians of the hot-loop layers.

Times value_and_grad (monopolist payoff, eta = 0, epsilon = 5 cells),
soft_partition, hard_assign and the monopolist phi_grad at the soft
barycenters, on the [0,2]^2 grid at M in {64, 128, 256} with n = 12 sites
and at n in {4, 32} with M = 128. This is the (M, n) scaling that a
separable kernel or a vectorised payoff should change.
"""

from __future__ import annotations

import statistics
import sys
import time

SHAPES = [(64, 12), (128, 12), (256, 12), (128, 4), (128, 32)]
FUNCTIONS = ["value_and_grad", "soft_partition", "hard_assign", "phi_grad"]


def metric_names() -> list[str]:
    return [f"shape.{fn}.M{m}_n{n}.ms" for fn in FUNCTIONS for m, n in SHAPES]


def _median_ms(call, reps: int) -> float:
    call()  # warm caches and lazy imports
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def shape_medians(seed: int, reps: int = 7) -> tuple[dict, list]:
    """Median milliseconds per call for every shape; names whose call
    fails (an API that moved on) are returned as absent with value 0."""
    from persuade_ot import entropic, grid, objective, optimizer, payoffs, power_diagram

    out: dict[str, float] = {}
    absent: list[str] = []
    for m, n in SHAPES:
        try:
            g = grid.build_grid(((0.0, 2.0), (0.0, 2.0)), m)
            payoff = payoffs.monopolist_payoff(
                payoffs.MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0))
            ent = entropic.EntropicConfig(5.0 * g.spacing[0])
            obj = objective.ObjectiveConfig(eta=0.0, entropic=ent, payoff=payoff)
            params = optimizer.init_sites(n, g, seed)
            _, stats = entropic.soft_partition(params, g, ent)
        except (AttributeError, TypeError, ValueError) as exc:
            print(f"shape M={m} n={n}: set-up failed: {exc!r}", file=sys.stderr)
            for fn in FUNCTIONS:
                absent.append(f"shape.{fn}.M{m}_n{n}.ms")
                out[absent[-1]] = 0.0
            continue
        calls = {
            "value_and_grad": lambda: objective.value_and_grad(params, g, obj),
            "soft_partition": lambda: entropic.soft_partition(params, g, ent),
            "hard_assign": lambda: power_diagram.hard_assign(params, g),
            "phi_grad": lambda: payoffs.phi_grad(payoff, stats.barycenters),
        }
        for fn, call in calls.items():
            name = f"shape.{fn}.M{m}_n{n}.ms"
            try:
                out[name] = _median_ms(call, reps)
            except (AttributeError, TypeError, ValueError) as exc:
                print(f"{name}: {exc!r}", file=sys.stderr)
                absent.append(name)
                out[name] = 0.0
    return out, absent
