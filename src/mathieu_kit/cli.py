"""Command-line front end.

``suite run`` and ``algebra validate`` print their own output.  Every other
verb runs in three steps: parse each input it takes once, in the order
algebra, basis, element, theta (so input errors are reported in that
order); answer in one branch of an ``if`` chain, as a JSON document, its
text form and a yes/no; and emit that answer once, with the exit code
from the yes/no.

Exit codes: 0 on success, 1 when a check verb answers a mathematical "no"
(or any suite check fails), 2 on usage or input errors.  With ``--json``
every verb prints machine output (canonical key order); ``suite run`` prints
one JSON object per line per check.  Identical invocations of the
mathematical verbs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments, matrixlab, serialize
from .algebra import (
    build_p_of_a,
    classify_element,
    minimal_polynomial,
    power_cycle,
)
from .errors import MAX_SCAN_DEFAULT, MathieuKitError
from .mathieu import (
    certify_radical_membership,
    decide_mathieu,
    find_nontrivial_mathieu,
    is_quasi_stable,
    is_stable,
    radical_enumerate,
    radical_member,
)
from .subspace import Sidedness, max_theta_ideal, theta_ideal

CHECK_TRUE, CHECK_FALSE, USAGE_ERROR = 0, 1, 2


def _scan_budget(text: str) -> int:
    """A budget is a non-negative integer; anything else is a usage error."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"invalid budget {text!r}, not a non-negative integer "
            "(from --max-scan or MATHIEU_KIT_MAX_SCAN)"
        )
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mathieu-kit",
        description="Exact decision procedures for Mathieu subspaces of "
        "finite-dimensional associative algebras.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--max-scan",
        type=_scan_budget,
        # argparse converts a string default only when --max-scan is absent,
        # so a malformed MATHIEU_KIT_MAX_SCAN is a usage error, --help never
        # reads it and an explicit --max-scan wins
        default=os.environ.get("MATHIEU_KIT_MAX_SCAN") or str(MAX_SCAN_DEFAULT),
        help="budget for every exhaustive job, in evaluations of the route "
        "it runs (default 10^7, or MATHIEU_KIT_MAX_SCAN)",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    def with_algebra(p):
        p.add_argument("--algebra", required=True, help="mat:n:p, polyq:p:c0,..., dsum:a+b, opp:a or @file")

    algebra = groups.add_parser("algebra").add_subparsers(dest="verb", required=True)
    for verb in ("validate", "info"):
        with_algebra(algebra.add_parser(verb))

    elem = groups.add_parser("elem").add_subparsers(dest="verb", required=True)
    for verb in ("minpoly", "classify", "pofa", "cycle"):
        p = elem.add_parser(verb)
        with_algebra(p)
        p.add_argument("--elem", required=True, help="comma-separated coordinates or @file")

    space = groups.add_parser("space").add_subparsers(dest="verb", required=True)
    for verb, needs_theta, needs_elem in (
        ("check", True, False),
        ("radical-member", False, True),
        ("radical-enum", False, False),
        ("certify", True, True),
        ("max-ideal", True, False),
        ("theta-ideal", True, True),
    ):
        p = space.add_parser(verb)
        with_algebra(p)
        if verb != "theta-ideal":
            p.add_argument("--basis", required=True, help="rows 'c,c,..;c,c,..' or @file")
        if needs_theta:
            p.add_argument(
                "--theta",
                required=True,
                choices=[v.value for v in Sidedness],
            )
        if needs_elem:
            p.add_argument("--elem", required=True)

    mat = groups.add_parser("mat").add_subparsers(dest="verb", required=True)
    for verb in ("codim1", "lines"):
        p = mat.add_parser(verb)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--q", type=int, required=True)
    p = mat.add_parser("dual")
    with_algebra(p)
    p.add_argument("--basis", required=True)
    p = mat.add_parser("witness")
    with_algebra(p)
    p.add_argument("--elem", required=True)

    alg = groups.add_parser("alg").add_subparsers(dest="verb", required=True)
    for verb in ("quasi-stable", "stable", "find-ms"):
        with_algebra(alg.add_parser(verb))

    suite = groups.add_parser("suite").add_subparsers(dest="verb", required=True)
    p = suite.add_parser("run")
    p.add_argument("name", choices=list(experiments.SUITE_NAMES))
    p.add_argument("--seed", type=int, default=experiments.DEFAULT_SEED)

    return parser


def _emit(args, doc, text: str) -> None:
    print(serialize.dumps(doc) if args.json else text)


def _fmt_vec(field, coords) -> str:
    return "[" + ", ".join(field.format(c) for c in coords) + "]"


def _fmt_basis(field, basis) -> str:
    if not basis:
        return "(zero subspace)"
    return "; ".join(_fmt_vec(field, row) for row in basis)


def _run(args) -> int:
    cmd = f"{args.group} {args.verb}"
    if cmd == "suite run":
        report = experiments.run_suite(args.name, seed=args.seed, max_scan=args.max_scan)
        if args.json:
            for check in report.checks:
                doc = check.to_dict()
                if "seed=" in check.instance:
                    doc["seed"] = report.seed
                print(serialize.dumps(doc))
        else:
            width = max(len(c.check) for c in report.checks)
            for check in report.checks:
                status = "pass" if check.passed else "FAIL"
                print(f"{status}  {check.check:<{width}}  {check.instance}  ({check.millis} ms)")
                if not check.passed and check.witness is not None:
                    print(f"      {check.witness}")
            print(
                f"{report.suite}: {sum(c.passed for c in report.checks)}/{len(report.checks)} "
                f"checks passed (seed {report.seed})"
            )
        return CHECK_TRUE if report.passed else CHECK_FALSE
    if cmd == "algebra validate":
        try:
            label = serialize.parse_algebra_spec(args.algebra).label
        except MathieuKitError as exc:
            _emit(args, {"valid": False, "reason": str(exc)}, f"invalid: {exc}")
            return CHECK_FALSE
        _emit(args, {"valid": True, "label": label}, f"valid: {label}")
        return CHECK_TRUE

    # parse: each input once, in the order algebra, basis, element, theta
    given = vars(args)
    a = serialize.parse_algebra_spec(args.algebra) if "algebra" in given else None
    v = serialize.parse_subspace_spec(a, args.basis) if "basis" in given else None
    x = serialize.parse_element_spec(a, args.elem) if "elem" in given else None
    theta = Sidedness.parse(args.theta) if "theta" in given else None
    f = a.field if a is not None else None

    # answer: the JSON document, the text line(s) and the yes/no of the verb
    ok = True
    if cmd == "algebra info":
        doc = serialize.algebra_to_dict(a)
        text = (
            f"{a.label}: dim {a.dim} over {a.field!r}, "
            f"commutative={a.is_commutative}, matrix_size={a.matrix_size}"
        )
    elif cmd == "elem minpoly":
        data = minimal_polynomial(x)
        doc = {"minpoly": data.minpoly.to_strings(), "k": data.k, "h": data.h.to_strings()}
        text = f"minpoly {data.minpoly!r}  k={data.k}  h={data.h!r}"
    elif cmd == "elem classify":
        cls = classify_element(x)
        doc = {
            "nilpotent": cls.nilpotent,
            "invertible": cls.invertible,
            "idempotent": cls.idempotent,
            "quasi_idempotent": cls.quasi_idempotent,
            "degree": cls.degree,
        }
        names = ", ".join(k for k, on in doc.items() if on is True)
        text = f"degree {cls.degree}: {names or 'none'}"
    elif cmd == "elem pofa":
        e = build_p_of_a(x)
        doc, text = serialize.element_to_list(e), f"p(a) = {_fmt_vec(f, e.coords)}"
    elif cmd == "elem cycle":
        info = power_cycle(x)
        doc = {"preperiod": info.preperiod, "period": info.period}
        text = f"preperiod {info.preperiod}, period {info.period}"
    elif cmd == "space check":
        verdict = decide_mathieu(v, theta, args.max_scan)
        ok = verdict.is_mathieu
        doc = serialize.verdict_to_dict(f, verdict)
        text = "true" if ok else f"false (witness e={_fmt_vec(f, verdict.witness.e)})"
    elif cmd == "space radical-member":
        ok = radical_member(v, x)
        doc, text = {"member": ok}, "true" if ok else "false"
    elif cmd == "space radical-enum":
        members = radical_enumerate(v, args.max_scan)
        doc = {"count": len(members), "members": [serialize.element_to_list(m) for m in members]}
        text = f"{len(members)} elements: " + "; ".join(_fmt_vec(f, m.coords) for m in members)
    elif cmd == "space certify":
        cert = certify_radical_membership(v, theta, x)
        doc = serialize.certificate_to_dict(cert)
        text = f"N = {cert.exponent}, ideal = {_fmt_basis(f, cert.ideal.basis)}"
    elif cmd in ("space max-ideal", "space theta-ideal"):
        ideal = max_theta_ideal(v, theta) if args.verb == "max-ideal" else theta_ideal(x, theta)
        doc, text = serialize.subspace_to_dict(ideal), _fmt_basis(f, ideal.basis)
    elif cmd in ("mat codim1", "mat lines"):
        if args.verb == "codim1":
            report = matrixlab.classify_codim1(args.n, args.q, args.max_scan)
            head = f"{report.total_classes} classes, decided by {report.decision}"
            noun = "class(es)"
        else:
            report = matrixlab.classify_lines(args.n, args.q, args.max_scan)
            head = (
                f"{report.total_lines} lines, "
                f"{report.quasi_idempotent_lines} quasi-idempotent generated"
            )
            noun = "line(s)"
        doc = report.to_dict()
        text = "\n".join(
            [f"M_{args.n}(F_{args.q}): {head}"]
            + [f"  {t:<14} {count} Mathieu {noun}" for t, count in report.per_theta.items()]
        )
    elif cmd == "mat dual":
        dual = matrixlab.trace_dual(v)
        doc = {
            "x": serialize.element_to_list(dual.x),
            "canonical": serialize.element_to_list(dual.canonical),
        }
        text = f"X ~ {_fmt_vec(f, dual.canonical.coords)}"
    elif cmd == "mat witness":
        left, right = matrixlab.witness_idempotents(x)
        doc = {"a": serialize.element_to_list(left), "b": serialize.element_to_list(right)}
        text = f"A = {_fmt_vec(f, left.coords)}\nB = {_fmt_vec(f, right.coords)}"
    elif cmd == "alg quasi-stable":
        ok = is_quasi_stable(a, args.max_scan)
        doc, text = {"quasi_stable": ok}, "true" if ok else "false"
    elif cmd == "alg stable":
        ok = is_stable(a, args.max_scan)
        doc, text = {"stable": ok}, "true" if ok else "false"
    else:  # alg find-ms
        found = find_nontrivial_mathieu(a, args.max_scan)
        doc = serialize.subspace_to_dict(found)
        text = f"dim {found.dim}: {_fmt_basis(f, found.basis)}"

    _emit(args, doc, text)
    return CHECK_TRUE if ok else CHECK_FALSE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except MathieuKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
