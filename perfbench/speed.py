"""Correction for the changing speed of a shared machine.

On a small shared machine, neighbours slow whole stretches of a run, often
by half for ten or twenty seconds; median latencies of the same code then
differ between runs by more than any bound worth setting.  The benchmark
therefore times a fixed piece of its own pure-Python work, the yardstick,
before every group of operations, and scales each operation's latency by
``REFERENCE_S`` over the median yardstick time of the seconds around it.  The yardstick
does the same kinds of work as the program (creating small frozen objects,
hashing, grouping, sorting strings), so a neighbour slows both alike; and
as it never calls the program, a change to the program cannot move it.
Corrected times read as if the yardstick had taken ``REFERENCE_S``.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from time import perf_counter

# The yardstick's time on a quiet 2-core machine with CPython 3.11.  It only
# sets the scale of the corrected times.
REFERENCE_S = 0.008
# Yardstick times within this many seconds of a group enter its correction.
WINDOW_S = 2.0


@dataclass(frozen=True)
class _Node:
    op: str
    index: int
    kids: tuple[int, ...]


def yardstick() -> float:
    """Seconds taken by a fixed piece of work."""
    start = perf_counter()
    rng = random.Random(7)
    nodes = [_Node("leaf", i, ()) for i in range(300)]
    for i in range(300, 2300):
        nodes.append(_Node(rng.choice("ab"), i, (rng.randrange(i), rng.randrange(i - 50, i))))
    distinct = set(nodes)
    index: dict = {}
    for node in nodes[300:]:
        index.setdefault((node.op, node.kids[0] % 97), []).append(node)
    labels = sorted(f"{node.op}{node.index}" for node in nodes)
    blocks: dict = {}
    for node in nodes:
        blocks.setdefault(frozenset(nodes[k].op + str(k % 50) for k in node.kids), []).append(node)
    if len(distinct) != len(labels) or not (index and blocks):
        raise AssertionError("the yardstick did not do its work")
    return perf_counter() - start


def factors(marks: list[tuple[float, float]]) -> list[float]:
    """Per group, REFERENCE_S over the median yardstick time near it.

    ``marks`` holds, per group, when the yardstick ran and how long it took.
    """
    result = []
    for at, _ in marks:
        near = [took for when, took in marks if abs(when - at) <= WINDOW_S]
        result.append(REFERENCE_S / statistics.median(near))
    return result
