"""Command-line front end.

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
from .errors import MathieuKitError
from .mathieu import (
    MAX_SCAN_DEFAULT,
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
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid budget {text!r} (from --max-scan or MATHIEU_KIT_MAX_SCAN)"
        ) from None


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
        help="budget for exhaustive element scans (default 10^7, "
        "or MATHIEU_KIT_MAX_SCAN)",
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
    if args.group == "algebra":
        if args.verb == "validate":
            try:
                a = serialize.parse_algebra_spec(args.algebra)
            except MathieuKitError as exc:
                _emit(args, {"valid": False, "reason": str(exc)}, f"invalid: {exc}")
                return CHECK_FALSE
            _emit(args, {"valid": True, "label": a.label}, f"valid: {a.label}")
            return CHECK_TRUE
        a = serialize.parse_algebra_spec(args.algebra)
        doc = serialize.algebra_to_dict(a)
        text = (
            f"{a.label}: dim {a.dim} over {a.field!r}, "
            f"commutative={a.is_commutative}, matrix_size={a.matrix_size}"
        )
        _emit(args, doc, text)
        return CHECK_TRUE

    if args.group == "elem":
        a = serialize.parse_algebra_spec(args.algebra)
        x = serialize.parse_element_spec(a, args.elem)
        f = a.field
        if args.verb == "minpoly":
            data = minimal_polynomial(x)
            doc = {
                "minpoly": data.minpoly.to_strings(),
                "k": data.k,
                "h": data.h.to_strings(),
            }
            _emit(args, doc, f"minpoly {data.minpoly!r}  k={data.k}  h={data.h!r}")
            return CHECK_TRUE
        if args.verb == "classify":
            cls = classify_element(x)
            doc = {
                "nilpotent": cls.nilpotent,
                "invertible": cls.invertible,
                "idempotent": cls.idempotent,
                "quasi_idempotent": cls.quasi_idempotent,
                "degree": cls.degree,
            }
            text = ", ".join(k for k, v in doc.items() if v is True) or "none"
            _emit(args, doc, f"degree {cls.degree}: {text}")
            return CHECK_TRUE
        if args.verb == "pofa":
            e = build_p_of_a(x)
            _emit(args, serialize.element_to_list(e), f"p(a) = {_fmt_vec(f, e.coords)}")
            return CHECK_TRUE
        info = power_cycle(x)
        doc = {"preperiod": info.preperiod, "period": info.period}
        _emit(args, doc, f"preperiod {info.preperiod}, period {info.period}")
        return CHECK_TRUE

    if args.group == "space":
        a = serialize.parse_algebra_spec(args.algebra)
        f = a.field
        if args.verb == "theta-ideal":
            x = serialize.parse_element_spec(a, args.elem)
            ideal = theta_ideal(x, Sidedness.parse(args.theta))
            _emit(args, serialize.subspace_to_dict(ideal), _fmt_basis(f, ideal.basis))
            return CHECK_TRUE
        v = serialize.parse_subspace_spec(a, args.basis)
        if args.verb == "check":
            verdict = decide_mathieu(v, Sidedness.parse(args.theta), args.max_scan)
            _emit(
                args,
                serialize.verdict_to_dict(f, verdict),
                "true" if verdict.is_mathieu else f"false (witness e={_fmt_vec(f, verdict.witness.e)})",
            )
            return CHECK_TRUE if verdict.is_mathieu else CHECK_FALSE
        if args.verb == "radical-member":
            x = serialize.parse_element_spec(a, args.elem)
            ok = radical_member(v, x)
            _emit(args, {"member": ok}, "true" if ok else "false")
            return CHECK_TRUE if ok else CHECK_FALSE
        if args.verb == "radical-enum":
            members = radical_enumerate(v, args.max_scan)
            doc = {"count": len(members), "members": [serialize.element_to_list(m) for m in members]}
            _emit(args, doc, f"{len(members)} elements: " + "; ".join(_fmt_vec(f, m.coords) for m in members))
            return CHECK_TRUE
        if args.verb == "certify":
            x = serialize.parse_element_spec(a, args.elem)
            cert = certify_radical_membership(v, Sidedness.parse(args.theta), x)
            _emit(
                args,
                serialize.certificate_to_dict(cert),
                f"N = {cert.exponent}, ideal = {_fmt_basis(f, cert.ideal.basis)}",
            )
            return CHECK_TRUE
        ideal = max_theta_ideal(v, Sidedness.parse(args.theta))
        _emit(args, serialize.subspace_to_dict(ideal), _fmt_basis(f, ideal.basis))
        return CHECK_TRUE

    if args.group == "mat":
        if args.verb == "codim1":
            report = matrixlab.classify_codim1(args.n, args.q, args.max_scan)
            doc = report.to_dict()
            lines = [
                f"M_{args.n}(F_{args.q}): {report.total_classes} classes, decided by {report.decision}",
            ]
            for theta, count in report.per_theta.items():
                lines.append(f"  {theta:<14} {count} Mathieu class(es)")
            _emit(args, doc, "\n".join(lines))
            return CHECK_TRUE
        if args.verb == "lines":
            report = matrixlab.classify_lines(args.n, args.q, args.max_scan)
            doc = report.to_dict()
            lines = [
                f"M_{args.n}(F_{args.q}): {report.total_lines} lines, "
                f"{report.quasi_idempotent_lines} quasi-idempotent generated",
            ]
            for theta, count in report.per_theta.items():
                lines.append(f"  {theta:<14} {count} Mathieu line(s)")
            _emit(args, doc, "\n".join(lines))
            return CHECK_TRUE
        a = serialize.parse_algebra_spec(args.algebra)
        f = a.field
        if args.verb == "dual":
            v = serialize.parse_subspace_spec(a, args.basis)
            dual = matrixlab.trace_dual(v)
            doc = {
                "x": serialize.element_to_list(dual.x),
                "canonical": serialize.element_to_list(dual.canonical),
            }
            _emit(args, doc, f"X ~ {_fmt_vec(f, dual.canonical.coords)}")
            return CHECK_TRUE
        x = serialize.parse_element_spec(a, args.elem)
        left, right = matrixlab.witness_idempotents(x)
        doc = {
            "a": serialize.element_to_list(left),
            "b": serialize.element_to_list(right),
        }
        _emit(
            args,
            doc,
            f"A = {_fmt_vec(f, left.coords)}\nB = {_fmt_vec(f, right.coords)}",
        )
        return CHECK_TRUE

    if args.group == "alg":
        a = serialize.parse_algebra_spec(args.algebra)
        if args.verb == "quasi-stable":
            ok = is_quasi_stable(a, args.max_scan)
            _emit(args, {"quasi_stable": ok}, "true" if ok else "false")
            return CHECK_TRUE if ok else CHECK_FALSE
        if args.verb == "stable":
            ok = is_stable(a, args.max_scan)
            _emit(args, {"stable": ok}, "true" if ok else "false")
            return CHECK_TRUE if ok else CHECK_FALSE
        found = find_nontrivial_mathieu(a, args.max_scan)
        _emit(
            args,
            serialize.subspace_to_dict(found),
            f"dim {found.dim}: {_fmt_basis(a.field, found.basis)}",
        )
        return CHECK_TRUE

    # suite run
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
