"""A fixed computation that measures the machine's current speed.

It imitates the package's work without using the package: exact rational
elimination on a small dense system, breadth-first searches over a random
graph held in dicts and sets, and tuple-keyed dict updates.  Its code never
changes with the program under test.
"""

from __future__ import annotations

import random
from fractions import Fraction


def reference_work() -> int:
    rng = random.Random(12345)
    n = 10
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n + 1)] for _ in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    succ = {v: [rng.randrange(400) for _ in range(2)] for v in range(400)}
    total = 0
    for start in range(0, 400, 25):
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for t in succ[v]:
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt
        total += len(seen)
    table: dict[tuple, int] = {}
    for i in range(6000):
        key = (i % 37, (i * 7) % 53, i % 5)
        table[key] = table.get(key, 0) + i
    return total + len(table) + sum(1 for row in rows if row[-1] > 0)
