"""Print the CLI output that a behaviour-preserving change must leave unchanged.

Runs ``mathieu_kit.cli.main`` in process on a fixed list of commands and
prints, for each one, the argv, the exit code and stdout.  Timings are the
only part of the output allowed to differ between runs, so every
``"millis":N`` and every text-mode ``(N ms)`` is replaced by 0.

Usage, from the root of a checkout::

    python scripts/gate_outputs.py > outputs.txt

Run it on two checkouts and ``diff`` the files: any difference is a change
of verdicts, witnesses or output format.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from mathieu_kit import cli, experiments  # noqa: E402

MILLIS_JSON = re.compile(r'"millis":\d+')
MILLIS_TEXT = re.compile(r"\(\d+ ms\)")

WITNESS_ELEMENTS = (
    ("mat:2:5", "2,3,1,4"),  # top-right entry nonzero
    ("mat:2:5", "2,0,3,4"),  # only the bottom-left entry nonzero
    ("mat:2:5", "2,0,0,4"),  # diagonal with distinct entries
    ("mat:2:5", "3,0,0,3"),  # scalar: refused
    ("mat:3:5", "1,2,0,0,3,4,0,0,1"),
    ("mat:3:5", "1,0,0,0,1,0,0,0,2"),  # first non-scalar pair is (0, 2)
    ("mat:3:5", "0,0,0,0,0,0,0,1,0"),  # first non-scalar pair is (1, 2)
    ("mat:3:5", "4,0,0,0,4,3,0,0,4"),
    ("mat:2:0", "1,2,3,4"),
    ("mat:2:0", "1/2,0,0,-3"),
    ("mat:3:0", "1,0,0,0,1,0,0,0,2"),
    ("mat:3:0", "0,0,5/3,0,2,0,-1,0,0"),
)


def _units(n: int, indices) -> str:
    """The matrix units E_ij of M_n at the given row-major indices, as a basis."""
    return ";".join(",".join("1" if j == i else "0" for j in range(n * n)) for i in indices)


RADICAL_ALGEBRAS = ("mat:3:3", "mat:2:11", "polyq:31:0,0,1")

# nonzero subspaces: their membership test has constraint rows to check
RADICAL_SUBSPACES = (
    ("mat:2:3", "1,0,0,2;0,1,0,0;0,0,1,0"),  # the trace-zero hyperplane
    ("mat:2:3", "1,0,0,0;0,1,0,0;0,0,0,1"),  # the upper triangular matrices
    ("polyq:31:0,0,1", "1,3"),  # a line
    ("mat:2:5", "1,0,0,0;0,0,0,1"),  # the diagonal: a plane that is no ideal
    ("dsum:mat:1:3+mat:2:3", "1,0,0,0,0;0,0,1,0,0"),
    # the full space, all of its elements, and the trace-zero hyperplane
    ("mat:3:3", _units(3, range(9))),
    ("mat:3:3", "0,1,0,0,0,0,0,0,0;0,0,1,0,0,0,0,0,0;0,0,0,1,0,0,0,0,0;0,0,0,0,0,1,0,0,0;"
                "0,0,0,0,0,0,1,0,0;0,0,0,0,0,0,0,1,0;1,0,0,0,0,0,0,0,2;0,0,0,0,1,0,0,0,2"),
    ("mat:2:23", "1,2,3,4;0,1,0,22"),  # a plane in a table of 30 chunks
    ("polyq:257:0,1", ""),  # F_257's zero subspace: no basis row to sum
)

VARIANTS = ("left", "right", "pre_two_sided", "two_sided")

# each is refuted by an idempotent in at least three of the four variants
REFUTED_SUBSPACES = (
    ("mat:2:3", "1,0,0,0;0,1,0,0"),
    ("opp:mat:2:3", "0,1,0,0;1,0,0,0"),
    ("dsum:mat:2:2+mat:1:2", "1,0,0,0,0;0,1,0,0,0"),
    ("polyq:2:0,0,0,1", "1,0,0;0,1,0"),
)

# the idempotent walk on E_11 = 0 of M_3(F_5) (416 idempotents) finds its
# right witness at the 177th; the first two columns of M_3(F_3) are a left
# ideal whose idempotents span it, every one of them cleared
WALK_SUBSPACES = (
    ("mat:3:5", _units(3, range(1, 9)), VARIANTS),
    ("mat:3:3", _units(3, (0, 1, 3, 4, 6, 7)), ("left",)),
)

IDEAL_SUBSPACES = REFUTED_SUBSPACES + (
    ("mat:2:3", "1,0,0,0;0,1,0,0;0,0,1,0"),  # holds the first column, a left ideal
    ("mat:3:2", "1,0,0,0,0,0,0,0,0;0,0,0,1,0,0,0,0,0;0,0,0,0,0,0,1,0,0;"
                "0,1,0,0,0,0,0,0,0;0,0,0,0,1,0,0,0,0"),
    ("mat:2:0", "1,0,0,0;0,1,0,0"),
    ("mat:2:0", "1,2,0,0;0,0,1,2"),
    ("mat:2:0", "1,0,0,0;0,0,1,0;0,1,0,-1/2"),
    ("polyq:3:1,0,1", "1,2"),  # F_9, where t*t = 2
    # t^3 - t/4 = t(t - 1/2)(t + 1/2) over Q: the ideal tA, and a plane holding no ideal
    ("polyq:0:0,-1/4,0,1", "0,1,0;0,0,1"),
    ("polyq:0:0,-1/4,0,1", "1,0,0;0,1,2"),
    ("dsum:mat:2:2+mat:1:2", "1,0,0,0,0;0,1,0,0,0;0,0,1,0,0;0,0,0,1,0"),  # M_2(F_2) + 0
)

THETA_ELEMENTS = (
    ("mat:2:3", "1,2,0,0"),
    ("opp:mat:2:3", "0,1,0,0"),
    ("dsum:mat:2:2+mat:1:2", "1,0,0,0,1"),
    ("polyq:2:0,0,0,1", "0,1,0"),
    ("mat:3:2", "1,0,0,0,0,0,0,0,0"),
    ("mat:2:0", "1/2,0,3,0"),
    ("polyq:3:1,0,1", "1,2"),
    ("polyq:3:1,0,1", "0,0"),
    ("dsum:mat:2:2+mat:1:2", "1,0,0,0,0"),  # generates M_2(F_2) + 0, not the whole algebra
    ("polyq:0:0,-1/4,0,1", "1/2,1,0"),  # t + 1/2 generates a plane
    ("polyq:0:0,-1/4,0,1", "0,1,-2"),  # t - 2t^2 generates a line
)

README_COMMANDS = (
    ["space", "check", "--algebra", "mat:2:3", "--basis", "1,0,0,2;0,1,0,0;0,0,1,0",
     "--theta", "two_sided"],
    ["mat", "codim1", "--n", "2", "--q", "2"],
    ["--json", "mat", "codim1", "--n", "2", "--q", "3"],
    ["--json", "mat", "lines", "--n", "3", "--q", "3"],
    ["--json", "elem", "pofa", "--algebra", "mat:2:0", "--elem", "1,0,0,0"],
    ["alg", "quasi-stable", "--algebra", "polyq:2:1,1,1"],
    ["alg", "find-ms", "--algebra", "mat:2:2"],
    ["suite", "run", "codim1"],
)

# exact sums over Q and at a prime whose products pass 2^62
SCALAR_COMMANDS = (
    ["--json", "elem", "minpoly", "--algebra", "mat:3:0", "--elem", "1,2,0,0,1,0,3,0,2"],
    ["--json", "elem", "classify", "--algebra", "mat:3:0", "--elem", "0,1,0,0,0,1,0,0,0"],
    ["--json", "elem", "minpoly", "--algebra", "polyq:0:1,0,-1/2,1", "--elem", "0,1,1/3"],
    ["--json", "space", "radical-member", "--algebra", "mat:2:0", "--basis", "0,1,0,0;1,0,0,-1",
     "--elem", "0,1,0,0"],
    ["--json", "space", "certify", "--algebra", "mat:2:0", "--basis", "0,1,0,0;1,0,0,-1",
     "--elem", "0,1,0,0", "--theta", "left"],
    ["--json", "mat", "dual", "--algebra", "mat:2:0", "--basis", "1,0,0,2;0,1,0,0;0,0,1,0"],
    ["--json", "elem", "cycle", "--algebra", "mat:2:7", "--elem", "1,2,3,4"],
    ["--json", "elem", "minpoly", "--algebra", "polyq:2147483647:0,0,1",
     "--elem", "2147483646,5"],
)


def commands() -> list[list[str]]:
    out = [["--json", "suite", "run", name, "--seed", "1234"] for name in experiments.SUITE_NAMES]
    # a second seed draws other samples of the seeded checks
    out += [["--json", "suite", "run", name, "--seed", "99"]
            for name in ("radical_laws", "idempotent_criterion")]
    # tight budgets: the oracle refuses on M3(F2) and M2(F3), naming the
    # price of the first variant in ALL_VARIANTS order that is over budget
    out += [["--json", "--max-scan", budget, "suite", "run", "idempotent_criterion",
             "--seed", "1234"] for budget in ("20000", "100000")]
    # budgets that refuse idempotent scans, power scans and oracle walks: each
    # check records the refusal of the first fact it needs that is over budget
    out += [["--json", "--max-scan", budget, "suite", "run", name, "--seed", "1234"]
            for name, budget in (("radical_laws", "8"), ("radical_laws", "100"),
                                 ("closure_laws", "8"), ("idempotent_criterion", "8"))]
    out.append(["--json", "mat", "codim1", "--n", "3", "--q", "5"])
    # witness-mode censuses; n = 4 repairs its columns over six index pairs
    out += [["--json", "mat", "codim1", "--n", n, "--q", q] for n, q in (("3", "3"), ("4", "2"))]
    # scan-mode censuses: every class's verdict comes from the idempotent search
    out += [["--json", "mat", "codim1", "--n", n, "--q", q] for n, q in (("2", "7"), ("3", "2"))]
    # the line census: every projective line of M_n(F_q), 9,841 of them on M_3(F_3)
    out += [["--json", "mat", "lines", "--n", n, "--q", q]
            for n, q in (("2", "2"), ("2", "3"), ("3", "2"), ("3", "3"))]
    out.append(["--json", "alg", "quasi-stable", "--algebra", "mat:3:3"])
    # algebras off matrix units list their idempotents by one scan of every
    # element; the last is past the budget and refused
    out += [["--json", "alg", "quasi-stable", "--algebra", spec]
            for spec in ("dsum:mat:2:3+mat:1:3", "polyq:3:0,0,0,1", "polyq:65537:0,0,1")]
    out.append(["--json", "alg", "stable", "--algebra", "opp:mat:2:2"])
    # M_3(F_5) has 488,281 lines; the search stops at the second one
    out += [["--json", "alg", "find-ms", "--algebra", spec]
            for spec in ("dsum:mat:1:3+mat:1:3", "mat:3:5")]
    # the line enumeration is charged to --max-scan: M_2(F_2)'s 15 lines
    # are refused at 5, M_4(F_3)'s 21,523,360 answered at 10^8 and M_3(F_7)'s
    # 6,725,601 at the default
    out += [["--json", *budget, "alg", "find-ms", "--algebra", spec]
            for budget, spec in ((["--max-scan", "5"], "mat:2:2"),
                                 (["--max-scan", "100000000"], "mat:4:3"), ([], "mat:3:7"))]
    # E_11 = 0 in M_4(F_3): 3^15 vectors, priced at the 12,692 idempotents it filters
    out.append(["--json", "space", "check", "--algebra", "mat:4:3", "--basis",
                _units(4, range(1, 16)), "--theta", "two_sided"])
    out += [["--json", "mat", "witness", "--algebra", spec, "--elem", elem]
            for spec, elem in WITNESS_ELEMENTS]
    out += [["--json", "space", "radical-enum", "--algebra", spec, "--basis", ""]
            for spec in RADICAL_ALGEBRAS]
    out += [["--json", "space", "radical-enum", "--algebra", spec, "--basis", basis]
            for spec, basis in RADICAL_SUBSPACES]
    # M_2(F_23) has 279,841 elements, a power table of 65,536-power blocks
    out.append(["--json", "space", "radical-enum", "--algebra", "mat:2:23", "--basis", ""])
    # 81 elements at 2d-1 = 7 powers each are past the budget: refused, exit 2
    out.append(["--json", "--max-scan", "100", "space", "radical-enum", "--algebra", "mat:2:3",
                "--basis", ""])
    out += [["--json", "space", "check", "--algebra", spec, "--basis", basis, "--theta", theta]
            for spec, basis in REFUTED_SUBSPACES for theta in VARIANTS]
    out += [["--json", "space", "check", "--algebra", spec, "--basis", basis, "--theta", theta]
            for spec, basis, thetas in WALK_SUBSPACES for theta in thetas]
    out += [["--json", "space", "max-ideal", "--algebra", spec, "--basis", basis,
             "--theta", theta]
            for spec, basis in IDEAL_SUBSPACES for theta in VARIANTS]
    out += [["--json", "space", "theta-ideal", "--algebra", spec, "--elem", elem,
             "--theta", theta]
            for spec, elem in THETA_ELEMENTS for theta in VARIANTS]
    out.append(["--json", "space", "certify", "--algebra", "polyq:3:0,0,0,1",
                "--basis", "0,1,0;0,0,1", "--theta", "left", "--elem", "0,2,1"])
    out += [list(argv) for argv in README_COMMANDS + SCALAR_COMMANDS]
    return out


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = MILLIS_JSON.sub('"millis":0', buf.getvalue())
    return code, MILLIS_TEXT.sub("(0 ms)", text)


def main() -> int:
    for argv in commands():
        code, text = run(argv)
        print("$ " + " ".join(repr(a) if not a or " " in a else a for a in argv))
        print(f"exit {code}")
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
