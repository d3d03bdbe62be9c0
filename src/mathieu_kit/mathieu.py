"""Decision procedures for Mathieu subspaces and their radicals.

A subspace M is a Mathieu subspace (in one of the four sidedness variants)
when for every element a all of whose powers lie in M, the one- or two-sided
translates of large powers of a eventually stay in M.  Over a finite field
everything here is decided exactly:

* ``decide_mathieu`` collects the idempotents of M and checks that each
  one's sided ideal stays inside M.  For finite-dimensional algebras this
  criterion is equivalent to the definition, and a failing idempotent is a
  replayable refutation since its powers are constant.  The idempotents of
  M come from one function, ``_scan.idempotents``, with one rule for every
  algebra, after one budget check on the q^dim M vectors of M.  Each
  algebra lists its own idempotents once, when that costs no more than
  scanning M: by construction for M_n(F_q) (one per image and
  complementary kernel, checked when built), by one scan of every element
  otherwise.  Once listed, they are filtered by M's constraint rows
  N x = 0; until then M's q^dim M vectors are scanned.  Both routes give
  the same sorted list.
* ``oracle_mathieu`` is the deliberately naive definition-level check, kept
  free of the theory above so the two can be compared on everything small.
  It lists the elements of M once and reads membership from that set, not
  from M's constraint rows, and ``oracle_all_variants`` answers all four
  variants from one such walk, each element's power cycle computed once.
  Each requested variant is priced in turn, in ``ALL_VARIANTS`` order,
  before M is listed; the first one over budget is refused at its price.
* ``radical_member`` decides membership in the radical through a finite
  power window derived from the minimal polynomial: with minpoly t^k h,
  h(0) != 0 and e = deg h >= 1, the tail powers satisfy a linear recurrence
  with invertible constant term, so membership of the e consecutive powers
  a^s, ..., a^(s+e-1) (s = max(k, 1)) propagates to the whole tail in both
  directions.  Nilpotent elements always qualify.  Since k + e <= d = dim A,
  the fixed window a^d, ..., a^(2d-1) decides it for every element at once,
  nilpotent ones included, with no minimal polynomial at all.
  ``radical_enumerate`` reads both windows from one table of the powers
  a^1, ..., a^(2d-1) and refuses to return on any disagreement.

Over the rationals the scans are impossible and only the element-level
operations are offered: the window-based ``radical_member``, the
one-dimensional ``line_is_mathieu`` rule, and ``verify_witness`` for
replaying a claimed refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

import numpy as np

from . import _scan
from .algebra import (
    Algebra,
    Coords,
    Element,
    elem_power,
    is_quasi_idempotent,
    minimal_polynomial,
    power_cycle,
)
from .errors import (
    AlgebraMismatch,
    ConsistencyError,
    InfiniteField,
    InfiniteFieldNoDecision,
    NotCommutative,
    NotInRadical,
    NotMathieu,
    OnlyTrivial,
    TooLarge,
    ZeroElement,
)
from .subspace import (
    ALL_VARIANTS,
    Sidedness,
    Subspace,
    enumerate_subspaces,
    is_theta_ideal,
    theta_ideal,
    translates,
)

MAX_SCAN_DEFAULT = 10**7


@dataclass(frozen=True)
class Witness:
    """A replayable refutation: an idempotent of V whose translate escapes V.

    ``product`` is b*e (left), e*c (right), or b*e*c (two-sided); since
    e^m = e for every m, the recorded product violates the defining tail
    condition for all exponents at once.
    """

    e: Coords
    b: Optional[Coords]
    c: Optional[Coords]
    product: Coords


@dataclass(frozen=True)
class MathieuVerdict:
    is_mathieu: bool
    theta: str
    method: str
    witness: Optional[Witness] = None


@dataclass(frozen=True)
class RadicalCertificate:
    """Certifies a in sqrt(M) by exhibiting N with the ideal of a^N inside M."""

    exponent: int
    ideal: Subspace


# -- radicals -----------------------------------------------------------------


def radical_member(v: Subspace, a: Element) -> bool:
    """Whether all sufficiently large powers of ``a`` lie in ``v``.

    Total over every supported field; see the module docstring for the
    finite decision window.
    """
    if a.algebra != v.ambient:
        raise AlgebraMismatch("element and subspace live in different algebras")
    data = minimal_polynomial(a)
    e = data.h.degree
    if e == 0:
        return True
    s = max(data.k, 1)
    x = elem_power(a, s)
    for _ in range(e):
        if not v.member(x):
            return False
        x = x * a
    return True


def _cycle_radical_member(member: Callable[[Coords], bool], a: Element) -> bool:
    """Cycle-based reference definition: tail powers a^mu .. a^(mu+lam-1) all
    pass ``member``, a test on coordinate tuples (a subspace's
    ``member_coords`` or any set's ``__contains__``)."""
    info = power_cycle(a)
    return all(member(x) for x in info.powers[info.preperiod - 1 :])


def radical_enumerate(
    v: Subspace, max_scan: int = MAX_SCAN_DEFAULT
) -> list[Element]:
    """The exact radical of ``v`` as a list of elements, by full enumeration.

    Membership in ``v`` (N x = 0) is tested once per element of the algebra,
    once the power scan has accepted the budget, and read for every stored
    power a^1 .. a^(2d-1) through its element index.  Every element's
    verdict is computed twice: through the fixed window a^d .. a^(2d-1) and
    through the minimal-polynomial window (see the module docstring).  Any
    disagreement raises :class:`ConsistencyError` (it would mean a bug, not
    a property of the input).  Elements come back in lexicographic
    coordinate order.
    """
    a = v.ambient
    if not a.field.is_finite:
        raise InfiniteField("radical enumeration needs a finite field")
    p, d, size = a.field.order, a.dim, a.size
    constraints = v.constraints()
    exponents = np.arange(1, 2 * d)  # column j of a chunk holds a^(j+1)
    in_a = None
    out: list[Element] = []
    for chunk in _scan.power_chunks(a, max_scan):
        if in_a is None:  # built only once power_chunks has accepted the budget
            in_a = np.concatenate([
                _scan.membership_bitmap(
                    _scan.coeff_block(p, d, s, min(s + _scan.DEFAULT_BLOCK, size)),
                    constraints,
                    p,
                )
                for s in range(0, size, _scan.DEFAULT_BLOCK)
            ])
        in_v = in_a[chunk.rows].reshape(chunk.count, 2 * d - 1)
        fixed = in_v[:, d - 1 :].all(axis=1)
        first = np.maximum(chunk.k, 1)[:, None]
        window = (exponents >= first) & (exponents < first + chunk.hdeg[:, None])
        minpoly = (in_v | ~window).all(axis=1)
        elements = _scan.coeff_block(p, d, chunk.start, chunk.start + chunk.count)
        if not np.array_equal(fixed, minpoly):
            b = int(np.nonzero(fixed != minpoly)[0][0])
            raise ConsistencyError(
                f"fixed power window and minimal-polynomial window disagree on "
                f"{tuple(elements[b].tolist())} in {a.label}"
            )
        out += [Element(a, tuple(coords)) for coords in elements[fixed].tolist()]
    return out


def certify_radical_membership(
    m: Subspace, variant: Sidedness, a: Element
) -> RadicalCertificate:
    """Least N >= 0 with the sided ideal of a^N contained in m.

    Existence (for m a Mathieu subspace and a in its radical) is bounded by
    n*k, where n = max(k_a, 1) makes every power of a^n lie in m and k is
    the zero-root multiplicity for a^n; the search from 0 upward returns the
    minimum, which is a strengthening over the mere existence bound.
    Exhausting the bound proves m was not a Mathieu subspace.
    """
    variant = Sidedness.parse(variant)
    if not radical_member(m, a):
        raise NotInRadical(f"{a!r} is not in the radical")
    n = max(minimal_polynomial(a).k, 1)
    k2 = minimal_polynomial(elem_power(a, n)).k
    bound = n * max(k2, 0)
    for exponent in range(bound + 1):
        ideal = theta_ideal(elem_power(a, exponent), variant)
        if m.contains(ideal):
            return RadicalCertificate(exponent, ideal)
    raise NotMathieu(
        f"no exponent up to {bound} works; {m!r} is not a "
        f"{variant.value} Mathieu subspace"
    )


# -- idempotent-criterion decision ------------------------------------------------


def _idempotents_of(v: Subspace, max_scan: int) -> list[Coords]:
    """All idempotent vectors of v, sorted by coordinates.

    Over the rationals it refuses before any search.  See
    :func:`_scan.idempotents` for the budget check and the route.  The
    algebra's own list is read only after that check, so a budget refused
    once is refused every time.
    """
    if not v.ambient.field.is_finite:
        raise InfiniteFieldNoDecision(
            "no full decision over the rationals; use line_is_mathieu, "
            "radical_member or verify_witness"
        )
    return _scan.idempotents(v.ambient, v.basis, v.constraints(), max_scan)


def decide_mathieu(
    v: Subspace, variant: Sidedness, max_scan: int = MAX_SCAN_DEFAULT
) -> MathieuVerdict:
    """Exact decision by the idempotent criterion (finite fields).

    Collects the idempotents of v, by filtering the algebra's own list of
    idempotents by v's constraint rows once that list is built, or by
    scanning the q^dim(v) vectors of v (see the module docstring for the
    rule), and requires each one's sided ideal to stay inside v.  On failure
    the witness is the first violation in lexicographic order of
    (idempotent coordinates, left basis index, right basis index).
    """
    variant = Sidedness.parse(variant)
    return _verdicts(v, _idempotents_of(v, max_scan), (variant,))[variant]


def decide_all_variants(
    v: Subspace, max_scan: int = MAX_SCAN_DEFAULT
) -> dict[Sidedness, MathieuVerdict]:
    """All four verdicts, each as :func:`decide_mathieu` gives it, from one
    idempotent search and its one budget check."""
    return _verdicts(v, _idempotents_of(v, max_scan), ALL_VARIANTS)


def _verdicts(v: Subspace, idempotents, variants) -> dict[Sidedness, MathieuVerdict]:
    """Per variant the verdict on v from its sorted ``idempotents``: the first
    violation, in order of (idempotent coordinates, left basis index, right
    basis index), or none."""
    member = cache(v.member_coords)  # one test per distinct translate, for every variant
    verdicts = {}
    for variant in variants:
        witness = next((
            Witness(e, b, c, prod) for e in idempotents
            for b, c, prod in translates(v.ambient, e, variant) if not member(prod)
        ), None)
        verdicts[variant] = MathieuVerdict(
            witness is None, variant.value, "idempotent_criterion", witness
        )
    return verdicts


def verify_witness(v: Subspace, variant: Sidedness, witness: Witness) -> bool:
    """Replay a refutation: e in v, e idempotent, recorded product outside v.

    Works over every supported field; this is the decision path available
    over the rationals when a refuting idempotent is claimed.  Each vector
    is read through ``Algebra.element``, so a wrong coordinate count raises
    ``ValueError`` and an out-of-range residue ``FieldMismatch``.
    """
    variant = Sidedness.parse(variant)
    a = v.ambient
    e, product = a.element(witness.e), a.element(witness.product)
    b = None if witness.b is None else a.element(witness.b)
    c = None if witness.c is None else a.element(witness.c)
    if not v.member(e) or e * e != e:
        return False
    if variant is Sidedness.LEFT:
        if b is None or c is not None:
            return False
        prod = b * e
    elif variant is Sidedness.RIGHT:
        if c is None or b is not None:
            return False
        prod = e * c
    elif variant is Sidedness.PRE_TWO_SIDED:
        if (b is None) == (c is None):
            return False
        prod = b * e if b is not None else e * c
    else:
        if b is None or c is None:
            return False
        prod = b * e * c
    return prod == product and not v.member(prod)


# -- definition-level oracle ---------------------------------------------------------


def oracle_mathieu(
    v: Subspace, variant: Sidedness, max_scan: int = MAX_SCAN_DEFAULT
) -> bool:
    """Brute-force check straight from the definition, no theory shortcuts.

    Lists the elements of v once, as a set; membership in v is a lookup in
    that set, never v's constraint rows.  Then walks the elements a of v
    (an element whose powers all lie in v lies in v, since a^1 = a).  For
    every a with all powers inside v (tested over one full cycle of the
    power sequence), every required basis translate of every tail power
    must lie in v; eventual periodicity makes the tail check finite and
    exact.

    The price is charged before the first product and before v is listed:
    q^dim v walks, each of at most q^d powers (the distinct powers of a are
    elements of A), and each power with its d (left, right), 2d
    (pre-two-sided) or d + d^2 (two-sided) translate products, so
    q^dim v * q^d * (1 + t) products in all, t that translate count.  Past
    ``max_scan`` it raises ``TooLarge``.
    """
    variant = Sidedness.parse(variant)
    return _oracle(v, (variant,), max_scan)[variant]


def oracle_all_variants(
    v: Subspace, max_scan: int = MAX_SCAN_DEFAULT
) -> dict[Sidedness, bool]:
    """All four answers, each as :func:`oracle_mathieu` gives it, from one
    walk of v.  Each variant is priced in turn, in ``ALL_VARIANTS`` order,
    and the first one past ``max_scan`` is refused with its own price."""
    return _oracle(v, ALL_VARIANTS, max_scan)


def _oracle(v: Subspace, variants, max_scan: int) -> dict[Sidedness, bool]:
    """One walk of v: each element's power cycle once, its left products
    b*t shared by the left and two-sided checks, and pre-two-sided read as
    left and right together."""
    a = v.ambient
    if not a.field.is_finite:
        raise InfiniteField("the brute-force oracle needs a finite field")
    d = a.dim
    for variant in variants:
        t = {Sidedness.PRE_TWO_SIDED: 2 * d, Sidedness.TWO_SIDED: d + d * d}.get(variant, d)
        price = v.size() * a.size * (1 + t)
        if price > max_scan:
            raise TooLarge(price, max_scan, what=f"oracle walk of {a.label}")
    left, right, two = Sidedness.LEFT, Sidedness.RIGHT, Sidedness.TWO_SIDED
    pre = Sidedness.PRE_TWO_SIDED in variants
    holds = {s: s in variants or pre and s is not two for s in (left, right, two)}
    members = set(v.coord_vectors())
    basis, mul = a._basis, a._mul_coords
    for x in members:
        if not any(holds.values()):
            break
        info = power_cycle(Element(a, x))
        if not members.issuperset(info.powers):
            continue
        tail = info.powers[info.preperiod - 1 :]
        bt = [mul(b, t) for b in basis for t in tail] if holds[left] or holds[two] else ()
        holds[left] = holds[left] and members.issuperset(bt)
        holds[right] = holds[right] and members.issuperset(mul(t, c) for t in tail for c in basis)
        holds[two] = holds[two] and members.issuperset(mul(y, c) for y in bt for c in basis)
    holds[Sidedness.PRE_TWO_SIDED] = holds[left] and holds[right]
    return {variant: holds[variant] for variant in variants}


# -- special decision paths -------------------------------------------------------------


def is_mathieu_commutative(
    v: Subspace, max_scan: int = MAX_SCAN_DEFAULT
) -> bool:
    """Commutative criterion: v is Mathieu iff its radical is an ideal.

    The radical is enumerated, then tested by :func:`_radical_is_ideal`.
    """
    a = v.ambient
    if not a.is_commutative:
        raise NotCommutative(f"{a.label} is not commutative")
    return _radical_is_ideal(a, {x.coords for x in radical_enumerate(v, max_scan)})


def _radical_is_ideal(a: Algebra, rad: set) -> bool:
    """Whether the set ``rad`` of coordinate tuples is an ideal of the
    commutative algebra ``a``.  The set lies in its own span, so it is a
    subspace exactly when that span has as many elements; the span is then
    an ideal when it absorbs products with the basis (one side suffices,
    the algebra being commutative)."""
    closure = Subspace.span(a, rad)
    return closure.size() == len(rad) and is_theta_ideal(closure, Sidedness.LEFT)


def line_is_mathieu(a: Element, variant: Sidedness) -> bool:
    """One-dimensional rule, total over every supported field.

    The line through ``a`` is a Mathieu subspace exactly when it is itself
    the sided ideal of ``a``, or ``a`` is not a quasi-idempotent.
    """
    variant = Sidedness.parse(variant)
    if a.is_zero:
        raise ZeroElement("the zero element spans no line")
    if theta_ideal(a, variant).dim == 1:
        return True
    return not is_quasi_idempotent(a)


def find_nontrivial_mathieu(
    a: Algebra, max_scan: int = MAX_SCAN_DEFAULT
) -> Subspace:
    """First nontrivial two-sided Mathieu subspace in canonical order.

    Guaranteed to exist whenever dim >= 2 over a field; raises
    :class:`OnlyTrivial` exactly in dimension 1 (the base field itself).
    Lines are searched first through the one-dimensional rule, then higher
    dimensions through the full decision.
    """
    if not a.field.is_finite:
        raise InfiniteField("the search scans subspaces of a finite algebra")
    if a.dim == 1:
        raise OnlyTrivial(f"{a.label} has only trivial Mathieu subspaces")
    for line in enumerate_subspaces(a, 1):
        if line_is_mathieu(Element(a, line.basis[0]), Sidedness.TWO_SIDED):
            return line
    for r in range(2, a.dim):
        for v in enumerate_subspaces(a, r):
            if decide_mathieu(v, Sidedness.TWO_SIDED, max_scan).is_mathieu:
                return v
    raise ConsistencyError(
        f"{a.label} has dimension >= 2 but no nontrivial Mathieu subspace was found"
    )


# -- algebra-level classification ----------------------------------------------------------


def _nontrivial_idempotents(a: Algebra, max_scan: int) -> list[Coords]:
    """The idempotents of ``a`` other than 0 and 1, sorted by coordinates."""
    zero = tuple(a.field.zero for _ in range(a.dim))
    return [
        e for e in _idempotents_of(Subspace.full(a), max_scan) if e != zero and e != a.unit
    ]


def _is_two_copies_of_base_field(a: Algebra, nontrivial: list[Coords]) -> bool:
    """Exactly two nontrivial idempotents e and 1-e, orthogonal and spanning."""
    if a.dim != 2 or len(nontrivial) != 2:
        return False
    f = a.field
    e, g = nontrivial
    one_minus_e = tuple(f.sub(u, c) for u, c in zip(a.unit, e))
    if g != one_minus_e:
        return False
    zero = tuple(f.zero for _ in range(a.dim))
    if a._mul_coords(e, g) != zero or a._mul_coords(g, e) != zero:
        return False
    return Subspace.span(a, [e, g]).is_full


def is_quasi_stable(a: Algebra, max_scan: int = MAX_SCAN_DEFAULT) -> bool:
    """Whether every subspace avoiding the unit is a Mathieu subspace.

    Holds exactly when the algebra has no nontrivial idempotent at all
    (finite-dimensional local case) or is two copies of the base field.
    Decided from all idempotents of the algebra.
    """
    if not a.field.is_finite:
        raise InfiniteFieldNoDecision("idempotent scan needs a finite field")
    nontrivial = _nontrivial_idempotents(a, max_scan)
    if not nontrivial:
        return True
    return _is_two_copies_of_base_field(a, nontrivial)


def is_stable(a: Algebra, max_scan: int = MAX_SCAN_DEFAULT) -> bool:
    """Whether every subspace avoiding the unit is a sided ideal.

    Only the base field itself and, over F_2, the direct sum of two copies
    of F_2 qualify.
    """
    if not a.field.is_finite:
        raise InfiniteFieldNoDecision("stability decision needs a finite field")
    if a.dim == 1:
        return True
    if a.field.characteristic == 2 and a.dim == 2:
        return _is_two_copies_of_base_field(a, _nontrivial_idempotents(a, max_scan))
    return False
