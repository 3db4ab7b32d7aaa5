"""The benchmark workloads: the argv of every op, cycled in a fixed order.

Each workload is a fixed, ordered list of op kinds.  One cycle runs each
kind once, in that order, so every run has the same mix whatever its
length.  The workload seed (``--seed`` of the benchmark) is turned into
the per-op ``--seed`` values here; the program only sees the argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

# criterion 06's parameters
_MOMENTS = ("moments", "--system", "eratosthenes", "--x", "2950",
            "--delta", "0.001", "--force-z", "200", "--force-scales", "3",
            "--trials", "10")

# workload -> kind -> (argv without --seed, whether the op takes a seed)
KINDS: dict[str, dict[str, tuple[tuple[str, ...], bool]]] = {
    "construct": {
        "default": (("construct", "--system", "eratosthenes",
                     "--x", "10000"), True),
        "sample": (("construct", "--system", "eratosthenes", "--x", "10000",
                    "--force-scales", "2", "3", "--mode", "sample"), True),
        "cover": (("construct", "--system", "eratosthenes", "--x", "10000",
                   "--force-scales", "2", "3", "--mode", "cover"), True),
    },
    "moments": {
        "ii-j1": (_MOMENTS + ("--identity", "ii-j1"), True),
        "iii-j1": (_MOMENTS + ("--identity", "iii-j1"), True),
        "iii-j2": (_MOMENTS + ("--identity", "iii-j2"), True),
    },
    "cover": {
        "cover-demo": (("cover-demo", "--vertices", "10000", "--c2", "4",
                        "--eta", "0.05", "--trials", "2"), True),
    },
    "poly": {
        "system-info": (("system-info", "--file", "poly:n^3+2",
                         "--x", "20000"), False),
        "composite-runs": (("composite-runs", "--poly", "n^2+1",
                            "--X", "100000"), False),
    },
}

WORKLOADS = tuple(KINDS)


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    seed: int | None


def cycles(workload: str, seed: int | str) -> Iterator[list[Op]]:
    """Endless cycles of ops; the same (workload, seed) gives the same ops."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    kinds = KINDS[workload]
    while True:
        cycle = []
        for kind, (argv, seeded) in kinds.items():
            if seeded:
                s = rng.randrange(1 << 48)
                cycle.append(Op(kind, argv + ("--seed", str(s)), s))
            else:
                cycle.append(Op(kind, argv, None))
        yield cycle
