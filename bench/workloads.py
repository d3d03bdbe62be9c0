"""The benchmark's workloads: inputs made from the seed, the ops, and the
answer gate for every op.

Every expected answer here is derived from the mathematics, not from the
package: the class count (q^(n^2) - 1)/(q - 1) of the codimension-one
census, the nilpotent counts q^(n(n-1)) of M_n(F_q) and p of F_p[t]/(t^2),
and the pure-Python ``radical_member`` replay of sampled radical verdicts,
which never touches the numpy kernels in ``_scan``.

Import this module only after :func:`checkout.use_source_tree`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

from mathieu_kit import cli, experiments, mathieu
from mathieu_kit.algebra import field_algebra, matrix_algebra, poly_quotient_algebra
from mathieu_kit.errors import ConsistencyError
from mathieu_kit.fields import GF, Poly
from mathieu_kit.subspace import Subspace

CENSUS_N, CENSUS_Q = 3, 5
CENSUS_ARGV = ("--json", "mat", "codim1", "--n", str(CENSUS_N), "--q", str(CENSUS_Q))
#: Projective classes of nonzero dual vectors of M_3(F_5): (5^9 - 1) / 4.
CENSUS_CLASSES = (CENSUS_Q ** (CENSUS_N * CENSUS_N) - 1) // (CENSUS_Q - 1)

#: (label, kind, parameters); "mat" is M_n(F_q), "trunc" is F_p[t]/(t^2).
RADICAL_ALGEBRAS = (
    ("M_3(F_3)", "mat", (3, 3)),
    ("M_2(F_11)", "mat", (2, 11)),
    ("F_31[t]/(t^2)", "trunc", (31,)),
)
WARM_CALLS = 20
#: Elements replayed through ``radical_member`` inside and outside each answer.
RADICAL_SAMPLE = 3
#: A prime above 127: the int8 power storage in ``_scan`` cannot hold it.
PROBE_PRIME = 257

#: Rounds of distinct inputs a run cycles through.
INPUT_ROUNDS = 16

SUITE_NAME = "idempotent_criterion"
SUITE_CHECKS = 45


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a workload feeds the program, as plain JSON data.

    ``suites`` and ``radical`` get fresh inputs for each of INPUT_ROUNDS
    rounds (then cycle), so one run averages over many draws of the seed.
    """
    if workload == "census":
        return {"argv": list(CENSUS_ARGV)}
    rng = random.Random(seed)
    if workload == "suites":
        return {
            "argv": ["--json", "suite", "run", SUITE_NAME, "--seed"],
            "suite_seeds": [rng.randrange(10**6) for _ in range(INPUT_ROUNDS)],
        }
    if workload != "radical":
        raise ValueError(f"unknown workload {workload!r}")
    algebras = []
    for label, kind, params in RADICAL_ALGEBRAS:
        a = _build_algebra(kind, params)
        q = a.field.order
        # dimensions cycle through 0..d so every draw has the same mix of
        # constraint counts, the property warm-call cost depends on
        warm = [
            [
                [[rng.randrange(q) for _ in range(a.dim)] for _ in range(k % (a.dim + 1))]
                for k in range(WARM_CALLS)
            ]
            for _ in range(INPUT_ROUNDS)
        ]
        algebras.append({"label": label, "kind": kind, "params": list(params), "warm": warm})
    return {"algebras": algebras, "probe_prime": PROBE_PRIME, "sample_seed": seed}


def _build_algebra(kind: str, params):
    if kind == "mat":
        n, q = params
        return matrix_algebra(n, GF(q))
    (p,) = params
    return poly_quotient_algebra(Poly.from_ints(GF(p), [0, 0, 1]))


def nilpotent_count(kind: str, params) -> int:
    """|rad 0|: q^(n(n-1)) nilpotent matrices in M_n(F_q), p in F_p[t]/(t^2)."""
    if kind == "mat":
        n, q = params
        return q ** (n * (n - 1))
    (p,) = params
    return p


# -- answer gates: each returns None for a right answer, else the reason ------------


def check_census(rc: int, stdout: str) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "output is not one JSON document"
    identity = [["1" if i % (CENSUS_N + 1) == 0 else "0" for i in range(CENSUS_N**2)]]
    if doc.get("total") != CENSUS_CLASSES:
        return f"total {doc.get('total')} != {CENSUS_CLASSES}"
    if doc.get("decision") != "witness":
        return f"decision {doc.get('decision')!r} != 'witness'"
    per_theta = doc.get("per_theta", {})
    reps = doc.get("representatives", {})
    variants = ("left", "right", "pre_two_sided", "two_sided")
    if sorted(per_theta) != sorted(variants) or sorted(reps) != sorted(variants):
        return "variants missing from the census"
    for variant in variants:
        if per_theta[variant] != 1:
            return f"{variant}: {per_theta[variant]} Mathieu classes != 1"
        if reps[variant] != identity:
            return f"{variant}: representatives {reps[variant]} != identity"
    return None


def check_suite(rc: int, stdout: str) -> Optional[str]:
    lines = stdout.splitlines()
    if len(lines) != SUITE_CHECKS:
        return f"{len(lines)} check lines != {SUITE_CHECKS}"
    for line in lines:
        try:
            doc = json.loads(line)
        except ValueError:
            return f"not JSON: {line[:80]!r}"
        if doc.get("pass") is not True or doc.get("suite") != SUITE_NAME:
            return f"failed check: {line[:120]}"
    if rc != 0:
        return f"exit code {rc}"
    return None


def check_radical(v: Subspace, members, rng: random.Random, expected_count=None) -> Optional[str]:
    """Count (when known) and a seeded replay through ``radical_member``."""
    if expected_count is not None and len(members) != expected_count:
        return f"{len(members)} radical elements != {expected_count}"
    a = v.ambient
    coords = {x.coords for x in members}
    if len(coords) != len(members):
        return "repeated elements in the radical"
    inside = rng.sample(members, min(RADICAL_SAMPLE, len(members)))
    for x in inside:
        if not mathieu.radical_member(v, x):
            return f"{x.coords} returned but not in the radical"
    outside = 0
    for _ in range(20 * RADICAL_SAMPLE):
        if outside == RADICAL_SAMPLE:
            break
        c = tuple(rng.randrange(a.field.order) for _ in range(a.dim))
        if c in coords:
            continue
        outside += 1
        if mathieu.radical_member(v, a.element(c)):
            return f"{c} is in the radical but was not returned"
    return None


# -- ops ----------------------------------------------------------------------------------


@dataclass
class Outcome:
    """One op as the gate saw it.  ``status`` is ok, wrong, raised or known_defect;
    ``seconds`` is wall time."""

    kind: str
    units: int
    seconds: float
    status: str
    detail: str = ""
    #: seconds scaled to nominal host speed (see ``hostspeed``)
    scaled: float = 0.0


#: run_op(kind, units, call, check) times ``call`` and gates its result with
#: ``check(result) -> Optional[str]`` outside the timed region.
RunOp = Callable[[str, int, Callable[[], object], Callable[[object], Optional[str]]], None]


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


class Workload:
    """One workload's round of ops; a round is the unit per-layer counts use."""

    def __init__(self, name: str, inputs: dict):
        self.name = name
        self.inputs = inputs
        self.rounds = 0
        # the lru_cache object itself: a traced run wraps the module attribute
        self._catalog_cache = experiments.catalog

    def round(self, run_op: RunOp) -> None:
        k = self.rounds % INPUT_ROUNDS
        self.rounds += 1
        if self.name == "census":
            run_op("op", CENSUS_CLASSES, lambda: _cli(self.inputs["argv"]),
                   lambda res: check_census(*res))
        elif self.name == "suites":
            argv = self.inputs["argv"] + [str(self.inputs["suite_seeds"][k])]
            self._catalog_cache.cache_clear()
            run_op("op", SUITE_CHECKS, lambda: _cli(argv), lambda res: check_suite(*res))
        else:
            self._radical_round(run_op, k)

    def _radical_round(self, run_op: RunOp, k: int) -> None:
        seed = self.inputs["sample_seed"]
        for spec in self.inputs["algebras"]:
            kind, params = spec["kind"], tuple(spec["params"])
            a = _build_algebra(kind, params)
            zero = Subspace.zero(a)
            warm = [Subspace.span(a, rows) for rows in spec["warm"][k]]
            rng = random.Random(f"{seed}:{k}:{spec['label']}")
            expected = nilpotent_count(kind, params)
            run_op("cold", a.size, lambda: mathieu.radical_enumerate(zero),
                   lambda out: check_radical(zero, out, rng, expected))
            for v in warm:
                run_op("warm", a.size, lambda v=v: mathieu.radical_enumerate(v),
                       lambda out, v=v: check_radical(v, out, rng))
        probe = Subspace.zero(field_algebra(GF(self.inputs["probe_prime"])))

        def check_probe(out) -> Optional[str]:
            coords = [x.coords for x in out]
            return None if coords == [(0,)] else f"probe returned {coords[:4]}"

        run_op("probe", probe.ambient.size, lambda: mathieu.radical_enumerate(probe), check_probe)


def classify(kind: str, error: Optional[BaseException], wrong: Optional[str]) -> str:
    """The status of one op: the probe's ConsistencyError is the known
    int8 power-storage defect; any other exception or wrong answer is not."""
    if error is None:
        return "ok" if wrong is None else "wrong"
    if kind == "probe" and isinstance(error, ConsistencyError):
        return "known_defect"
    return "raised"
