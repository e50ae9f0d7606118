"""Where ``sizeof_many``'s bulk path starts to pay: the ``_BULK_MIN`` table.

    PYTHONPATH=src python benchmarks/bench_sizeof_threshold.py

Prints, per collection length, the cost in ns (best of 9) of the
per-element walk next to the cost with the type inspection forced on, for
the three shapes that take a bulk path (a fixed-width column, a ``str``
column, a batch of key-value pairs) and for a mixed collection that is
inspected and then walked anyway. ``_BULK_MIN`` is the shortest length from
which no bulk shape loses to the walk; DESIGN.md §6.1 quotes this table.
"""

import timeit

from repro.common import sizeof

LENGTHS = (1, 2, 3, 4, 5, 6, 8, 12, 16, 32)
MIXED = ("w", 1, 2.0, None, b"x", "y", 3)
SHAPES = {
    "int column": lambda n: list(range(n)),
    "str column": lambda n: ["word%d" % i for i in range(n)],
    "(str, int) pairs": lambda n: [("word%d" % i, i) for i in range(n)],
    "mixed": lambda n: tuple(MIXED[i % len(MIXED)] for i in range(n)),
}


def walk(items):
    return sum(map(sizeof.logical_sizeof, items))


def best_ns(fn, items, number=20_000, repeat=9):
    return min(timeit.repeat(lambda: fn(items), number=number, repeat=repeat)) / number * 1e9


def main():
    committed = sizeof._BULK_MIN
    print(f"{'shape':18}{'path':10}" + "".join(f"{'n=%d' % n:>7}" for n in LENGTHS))
    try:
        for name, make in SHAPES.items():
            rows = {"walk": [], "inspected": []}
            for n in LENGTHS:
                items = make(n)
                sizeof._BULK_MIN = committed
                rows["walk"].append(best_ns(walk, items))
                sizeof._BULK_MIN = 0  # inspect whatever the length
                assert sizeof.sizeof_many(items) == walk(items)
                rows["inspected"].append(best_ns(sizeof.sizeof_many, items))
            for path, row in rows.items():
                print(f"{name:18}{path:10}" + "".join(f"{value:7.0f}" for value in row))
    finally:
        sizeof._BULK_MIN = committed
    print(f"committed _BULK_MIN = {committed}")


if __name__ == "__main__":
    main()
