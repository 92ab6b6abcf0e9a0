"""Seeded request mixes for the isocert benchmark.

A workload is a list of slots.  Each slot holds the variants one request of
the cycle may take; every variant is a complete `isocert` argv (without
`--out`).  The seed picks one variant per slot and the order of the slots, so
the composition of a cycle (subcommands, measure kinds, entropy kinds, cost
kinds, families, displays) is the same for every seed and only the
parameters and the order change.  Pooled slots instead take the k-th entry
of a seeded permutation of their pool in cycle k, so their `expr:`
potentials differ from cycle to cycle until the pool wraps.

The union of all slot variants is the catalogue that `record_reference.py`
runs to store the expected outcome of every request a mix can produce.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("certify", "empirical", "paper-examples", "tables")

K_VALUES = ("2", "3", "4")
ENTROPIES = {
    "log": ("log", "log", "log"),
    "ftau": ("ftau:0.5", "ftau:0.75", "ftau:0.9"),
    "expr": ("expr:log(x)", "expr:2*(x^0.5-1)", "expr:log(x)"),
}
COSTS = {
    "quadratic": ("quadratic:0.25", "quadratic:0.5", "quadratic:1"),
    "closed": ("c:1:3", "c:1:1.5", "c:2:4"),
    "sampled": ("expr:x^2/2+x^3/3", "expr:x^2/2+x^4/4", "expr:x^2+abs(x)^3/3"),
}
EXP_POWER = ("exp_power:1.4", "exp_power:1.6", "exp_power:1.8")
README_EXPR = ("expr:abs(x)*log(1+x^2)", "expr:x^2/2+x^4/4")

FAMILIES = (
    ("exponential", "0.25,0.5,1"),
    ("bump", "0.5,1,2"),
    ("shifted_linear", "0.1,0.2,0.4"),
    ("random_smooth", "0,1,2"),
    ("stretched_exp", "0.25,0.5,1"),
)
POOL_SIZE = 96


def _pick(options, i):
    return options[i % len(options)]


class Pool(tuple):
    """A slot whose variant advances with the cycle index instead of being
    fixed by the seed."""


# -- certify: 6 measures x (2 check + 1 certify) ---------------------------------


def _certify_slots():
    measures = ("gauss", "exp", "loglog", EXP_POWER, README_EXPR[0], README_EXPR[1])
    ent_kinds = ("log", "ftau", "expr")
    cost_kinds = ("quadratic", "closed", "sampled")
    slots = []
    for j, measure in enumerate(measures):
        for s in range(3):
            command = "certify" if (s + 2 * j) % 3 == 0 else "check"
            ent = ENTROPIES[ent_kinds[s]]
            cost = COSTS[cost_kinds[(s + j) % 3]]
            variants = []
            for v in range(3):
                m = _pick(measure, v) if isinstance(measure, tuple) else measure
                variants.append(
                    (
                        command,
                        "--measure", m,
                        "--entropy", _pick(ent, v + j),
                        "--cost", _pick(cost, v + s),
                        "--K", _pick(K_VALUES, v + j + s),
                    )
                )
            slots.append(variants)
    return slots


# -- empirical: 3 displays x 5 families of `test` ---------------------------------


def pool_potential(q, p):
    """The p-th never-repeating potential of pooled slot q (convex, so the
    measure is log-concave and every display accepts it)."""
    a = 0.5 + 0.01 * (p % 50)
    b = 0.05 * (q + 1) + 0.5 * (p // 50)
    tail = "x^4/4" if q % 2 == 0 else "abs(x)"
    return f"expr:{a:g}*x^2/2+{b:g}*{tail}"


def _empirical_slots():
    displays = ("restricted", "exp-power", "power-beta")
    restricted_costs = ("quadratic", "closed", "sampled", "sampled", "closed")
    builtin = {
        "restricted": ("gauss", "exp_power:1.5", "loglog"),
        "exp-power": ("gauss", "gauss", "exp_power:1.5"),
        "power-beta": ("gauss", "exp_power:1.5", "gauss"),
    }
    slots = []
    q = 0
    for d, display in enumerate(displays):
        for i, (family, params) in enumerate(FAMILIES):
            pooled = (i + d) % 5 in (0, 1)
            variants = []
            n_variants = POOL_SIZE if pooled else 3
            for v in range(n_variants):
                measure = pool_potential(q, v) if pooled else _pick(builtin[display], v + i)
                argv = ["test", "--display", display, "--measure", measure, "--family", family, "--params", params]
                if family == "random_smooth":
                    argv += ["--seed", str((v + d) % 3)]
                if display == "restricted":
                    argv += [
                        "--entropy", _pick(("log", "ftau:0.5", "ftau:0.75"), v + i),
                        "--cost", _pick(COSTS[restricted_costs[i]], v + i),
                        "--K", _pick(K_VALUES, v),
                    ]
                elif display == "exp-power":
                    alpha, tau = _pick((("1.5", "0.8"), ("1.8", "0.9"), ("2", "1")), v + i)
                    argv += ["--alpha", alpha, "--tau", tau, "--A", _pick(("1", "2"), v)]
                else:
                    argv += ["--alpha", _pick(("1.3", "1.5"), v + i)]
                variants.append(tuple(argv))
            slots.append(Pool(variants) if pooled else variants)
            q += pooled
    return slots


# -- tables: conjugate tables and isoperimetric profiles --------------------------


def _tables_slots():
    slots = []
    conj = (("closed", 1000), ("closed", 5000), ("closed", 10000), ("quadratic", 2000),
            ("sampled", 1000), ("sampled", 2000), ("sampled", 5000), ("sampled", 10000))
    for s, (kind, n) in enumerate(conj):
        slots.append(
            [("conjugate", "--cost", _pick(COSTS[kind], v + s), "--grid", f"0:{_pick((5, 10, 20), v)}:{n}") for v in range(3)]
        )
    tilde = ("gauss", EXP_POWER, README_EXPR[0], README_EXPR[1])
    t_grids = ("0.000001:0.5:500", "0.001:0.5:1000", "0.0001:0.5:2000")
    for s, measure in enumerate(tilde):
        slots.append(
            [
                ("profile", "--profile-kind", "tilde",
                 "--measure", _pick(measure, v) if isinstance(measure, tuple) else measure,
                 "--t-grid", _pick(t_grids, v + s))
                for v in range(3)
            ]
        )
    radii = ("0:8:400", "0:6:800", "0:10:1000")
    for s, measure in enumerate(("loglog", "exp", README_EXPR[0], README_EXPR[1])):
        slots.append(
            [
                ("profile", "--profile-kind", "if", "--measure", measure,
                 "--entropy", _pick(("log", "ftau:0.5", "ftau:0.75"), v + s), "--grid", _pick(radii, v + s))
                for v in range(3)
            ]
        )
    return slots


def _paper_slots():
    # the fixed reference command; four per cycle so that a cycle lasts ~1 s
    return [[("paper-examples",)] for _ in range(4)]


_SLOTS = {
    "certify": _certify_slots,
    "empirical": _empirical_slots,
    "paper-examples": _paper_slots,
    "tables": _tables_slots,
}


def catalogue(workload):
    """Every argv the workload can produce, for any seed and cycle."""
    seen = {}
    for slot in _SLOTS[workload]():
        for argv in slot:
            seen.setdefault(argv, None)
    return list(seen)


class Mix:
    """The seeded request mix of one workload; `cycle(k)` is deterministic."""

    def __init__(self, workload, seed):
        if workload not in _SLOTS:
            raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
        rng = random.Random(f"isocert-perfbench:{workload}:{seed}")
        self._plan = []
        for slot in _SLOTS[workload]():
            if isinstance(slot, Pool):
                order = list(range(len(slot)))
                rng.shuffle(order)
                self._plan.append((slot, order))
            else:
                self._plan.append((slot, [rng.randrange(len(slot))]))
        rng.shuffle(self._plan)

    def __len__(self):
        return len(self._plan)

    def cycle(self, k):
        return [variants[order[k % len(order)]] for variants, order in self._plan]

    def dump(self, cycles):
        """Canonical bytes of the first `cycles` cycles (for the self-check)."""
        return json.dumps([self.cycle(k) for k in range(cycles)]).encode("utf-8")

