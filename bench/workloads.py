"""Request schedules for the three benchmark workloads.

Every workload is a closed loop with one client: the next request is sent
only after the previous one has returned.  Requests come in cycles whose
composition (dimensions, strategies, target classes) is fixed; the workload
seed draws everything else -- channel seeds, master seeds, element targets
and the order of the requests inside each cycle.  A fixed composition keeps
the latency percentiles on the same request kinds from seed to seed, so
runs with different seeds are comparable.

Only the standard library is used here, so schedules can be built without
importing the library under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

SHOTS = 10_000

# Mixes: (strategy, tp_shortcut, dim, local_dim, n_sites, copies per cycle).
# The copies fix where the 50th and 90th latency percentiles fall in the
# sorted request mix, so each reads the same kind of request in every run.
# They fall inside classes with several copies per cycle: the median of
# many requests of one class is a steady figure, that of a few is less so.

# Weighted toward small D.  D stops at 6, and choi-four at 5, because one
# choi-four request at D = 6 already costs about 2 s.  p50 falls on
# choi-four D = 2 without the shortcut (about 7 ms), p90 on choi-four D = 3
# (about 60 ms); the five heaviest requests are 8% of the cycle.
FULL_EXACT_MIX = (
    ("product-hermitian", False, 2, None, None, 24),
    ("product-hermitian", False, 3, None, None, 1),
    ("choi-four", False, 2, None, None, 20),
    ("choi-four", True, 2, None, None, 4),
    ("product-hermitian", False, 4, None, None, 1),
    ("product-hermitian", False, 4, 2, 2, 1),
    ("choi-four", False, 3, None, None, 3),
    ("choi-four", True, 3, None, None, 3),
    ("product-hermitian", False, 5, None, None, 1),
    ("choi-four", False, 4, None, None, 1),
    ("choi-four", True, 4, None, None, 1),
    ("product-hermitian", False, 6, None, None, 1),
    ("choi-four", False, 5, None, None, 1),
)

# Same strategy mix through the CLI entry point at D = 2..5.  p50 falls on
# choi-four D = 2 (about 10 ms, with or without the shortcut), p90 on
# choi-four D = 3 (about 65 ms), just below the two heaviest kinds.
CLI_SAMPLED_MIX = (
    ("product-hermitian", False, 2, None, None, 4),
    ("choi-four", False, 2, None, None, 5),
    ("choi-four", True, 2, None, None, 5),
    ("product-hermitian", False, 3, None, None, 5),
    ("choi-four", False, 3, None, None, 2),
    ("choi-four", True, 3, None, None, 2),
    ("product-hermitian", False, 4, 2, 2, 1),
    ("product-hermitian", False, 5, None, None, 1),
    ("choi-four", False, 4, None, None, 1),
)

# (dim, settings per element, copies per cycle): diagonal targets need one
# setting, one-side-diagonal targets four, off-diagonal targets sixteen.
# p50 falls on 4-setting D = 8 (about 2 ms), p90 on 16-setting D = 8
# (about 7 ms), just below 4-setting D = 16, which is bound by the channel.
ELEMENT_DIMS = (2, 4, 8, 16)
ELEMENT_STREAM_MIX = (
    (2, 1, 4), (2, 4, 2), (2, 16, 5),
    (4, 1, 4), (4, 4, 2), (4, 16, 5),
    (8, 1, 2), (8, 4, 5), (8, 16, 2),
    (16, 1, 6), (16, 4, 2), (16, 16, 1),
)

WORKLOADS = ("full-exact", "cli-sampled", "element-stream")


@dataclass(frozen=True)
class Request:
    """One request of a workload; `kind` is "full", "cli" or "element"."""

    kind: str
    dim: int
    channel_seed: int
    strategy: str = "choi-four"
    tp_shortcut: bool = False
    local_dim: int | None = None
    n_sites: int | None = None
    master_seed: int = 0
    target: tuple[int, int, int, int] | None = None
    settings: int = 0

    @property
    def elements(self) -> int:
        """chi elements the request delivers."""
        return 1 if self.kind == "element" else self.dim**4

    @property
    def cost_class(self) -> tuple:
        """Requests equal in this do the same work on different inputs."""
        return (self.kind, self.strategy, self.tp_shortcut, self.dim,
                self.local_dim, self.n_sites, self.settings)

    def cli_argv(self, output: str) -> list[str]:
        argv = [
            "full", "--preset", "random-cptp", "--param", str(self.channel_seed),
            "--dim", str(self.dim), "--strategy", self.strategy,
            "--backend", "sampled", "--shots", str(SHOTS),
            "--seed", str(self.master_seed), "--output", output,
        ]
        if self.tp_shortcut:
            argv.append("--tp-shortcut")
        if self.local_dim is not None:
            argv += ["--local-dim", str(self.local_dim), "--sites", str(self.n_sites)]
        return argv


def _draw_seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def _draw_target(rng: random.Random, dim: int, settings: int) -> tuple[int, int, int, int]:
    """A chi[e*D+f, g*D+h] target whose plan needs `settings` settings.

    The input unit |f><h| and the observable |g><e| each expand over one
    projector when diagonal and over four otherwise.
    """

    def pair(diagonal: bool) -> tuple[int, int]:
        a = rng.randrange(dim)
        if diagonal:
            return a, a
        b = rng.randrange(dim - 1)
        return a, b + (b >= a)

    if settings == 1:
        input_diag = observable_diag = True
    elif settings == 4:
        input_diag = rng.random() < 0.5
        observable_diag = not input_diag
    else:
        input_diag = observable_diag = False
    f, h = pair(input_diag)
    g, e = pair(observable_diag)
    return e, f, g, h


def cycles(workload: str, seed: int) -> Iterator[list[Request]]:
    """Endless request cycles of a workload, fully determined by the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "element-stream":
        # one device per dimension, probed element by element
        channel_seeds = {dim: _draw_seed(rng) for dim in ELEMENT_DIMS}
        master_seed = _draw_seed(rng)
    while True:
        cycle = []
        if workload == "element-stream":
            for dim, settings, copies in ELEMENT_STREAM_MIX:
                for _ in range(copies):
                    cycle.append(Request(
                        "element", dim, channel_seeds[dim], master_seed=master_seed,
                        target=_draw_target(rng, dim, settings), settings=settings,
                    ))
        else:
            kind, mix = (
                ("full", FULL_EXACT_MIX) if workload == "full-exact" else ("cli", CLI_SAMPLED_MIX)
            )
            for strategy, tp, dim, local_dim, n_sites, copies in mix:
                for _ in range(copies):
                    cycle.append(Request(
                        kind, dim, _draw_seed(rng), strategy, tp, local_dim, n_sites,
                        master_seed=_draw_seed(rng),
                    ))
        rng.shuffle(cycle)
        yield cycle
