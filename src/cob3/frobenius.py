"""Commutative Frobenius algebras over Q with labelled prime elements.

An algebra is given by structure constants, all exact Fractions:

    mul[k][i][j]    coefficient of e_k in e_i * e_j
    unit[i]         coordinates of 1
    trace[i]        the counit functional on e_i
    comul[i][j][k]  coefficient of e_j (x) e_k in comul(e_i)

plus a mapping from prime labels to distinguished elements 1_p; the
endomorphism attached to a label is multiplication by its element. The
comultiplication may be omitted and derived from the trace pairing
beta(i,j) = trace(e_i e_j), which must be nondegenerate.

An algebra is not changed after it is built. Its constructor builds the
linear map of every generator once, as a scaled-int `LinearMap`: id, swap,
m, unit, comul, tr, and pe and pu for each prime label. `generator` returns
them; both evaluators and the axiom checks read this one table, and each
axiom is an equation between two composites of its maps. Fractions stay for
algebra elements, idempotents, characters and JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from cob3.linmap import (
    LinearMap,
    fraction_to_scalar,
    identity_map,
    permutation_map,
    scalar_to_fraction,
)

__all__ = [
    "ShapeError",
    "DegeneratePairing",
    "UnknownPrime",
    "NotScalarOnBlock",
    "Violation",
    "VerifyReport",
    "FrobeniusAlgebra",
    "derive_comul",
    "algebra_from_json",
    "algebra_to_json",
    "IdempotentDecomposition",
    "idempotent_decomposition",
    "diagonal_algebra",
    "hadamard_algebra",
    "conjugate_algebra",
    "random_labelled_algebra",
]


class ShapeError(ValueError):
    """Structure constants with the wrong dimensions."""


class DegeneratePairing(ValueError):
    """The trace pairing is singular, so no comultiplication exists."""


class UnknownPrime(KeyError):
    """A label with no element attached to it."""

    def __str__(self) -> str:  # KeyError would print only the quoted label
        return f"unknown prime label {self.args[0]!r}"


class NotScalarOnBlock(ValueError):
    """The algebra does not split into one-dimensional blocks over Q."""


@dataclass(frozen=True)
class Violation:
    axiom: str
    indices: Tuple[int, ...]
    lhs: Fraction
    rhs: Fraction

    def describe(self) -> str:
        idx = ",".join(str(i) for i in self.indices)
        return (
            f"{self.axiom}[{idx}]: "
            f"{fraction_to_scalar(self.lhs)} != {fraction_to_scalar(self.rhs)}"
        )


@dataclass(frozen=True)
class VerifyReport:
    violations: Tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return "all axioms hold"
        lines = [f"{len(self.violations)} violation(s):"]
        lines.extend("  " + v.describe() for v in self.violations[:20])
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


def _list_of(v, d, what):
    n = len(v) if isinstance(v, (list, tuple)) else type(v).__name__
    if n != d:
        raise ShapeError(f"{what}: expected a list of length {d}, got {n}")
    return v


def _frac_vec(v, d, what) -> Tuple[Fraction, ...]:
    v = _list_of(v, d, what)
    try:
        return tuple(scalar_to_fraction(x) for x in v)
    except (TypeError, ValueError, ZeroDivisionError):
        msg = f'{what}: expected integers or "p/q" strings, got {v!r}'
        raise ShapeError(msg) from None


def _frac_cube(c, d, what) -> Tuple[Tuple[Tuple[Fraction, ...], ...], ...]:
    return tuple(
        tuple(_frac_vec(row, d, what) for row in _list_of(sl, d, what))
        for sl in _list_of(c, d, what)
    )


class FrobeniusAlgebra:
    def __init__(self, dim, mul, unit, trace, comul=None, primes=None):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ShapeError(f"dim: expected a positive integer, got {dim!r}")
        self.dim = dim
        self.mul = _frac_cube(mul, self.dim, "mul")
        self.unit = _frac_vec(unit, self.dim, "unit")
        self.trace = _frac_vec(trace, self.dim, "trace")
        if not isinstance(primes or {}, dict):
            raise ShapeError("primes: expected an object mapping labels to elements")
        self.primes: Dict[str, Tuple[Fraction, ...]] = {}
        for label, vec in (primes or {}).items():
            self.primes[str(label)] = _frac_vec(vec, self.dim, f"primes[{label}]")
        if comul is None:
            self.comul = derive_comul(self.mul, self.trace, self.dim)
        else:
            self.comul = _frac_cube(comul, self.dim, "comul")
        d, r = self.dim, range(self.dim)
        m = {(k, i * d + j): self.mul[k][i][j] for k in r for i in r for j in r}
        comul = {(j * d + k, i): self.comul[i][j][k] for i in r for j in r for k in r}
        self._generators: Dict[Tuple[str, Optional[str]], LinearMap] = {
            ("id", None): identity_map(d, 1),
            ("swap", None): permutation_map(d, (1, 0)),
            ("m", None): LinearMap(2, 1, d, m),
            ("unit", None): _vector_map(self.unit),
            ("comul", None): LinearMap(1, 2, d, comul),
            ("tr", None): LinearMap(1, 0, d, {(0, i): self.trace[i] for i in r}),
        }
        for label, vec in self.primes.items():
            self._generators["pu", label] = _vector_map(vec)
            self._generators["pe", label] = self.element_map(vec)
        self._surfaces: Dict[tuple, LinearMap] = {}
        # where a piece's entries go in a placed map, by layout (`evaluate._Places`)
        self._places: Dict[tuple, dict] = {}

    def generator(self, name: str, label: Optional[str] = None) -> LinearMap:
        """The map of a generator; pe and pu take the label of a prime."""
        try:
            return self._generators[name, label]
        except KeyError:
            raise UnknownPrime(label) from None

    def prime(self, label: str) -> Tuple[Fraction, ...]:
        """The element attached to a prime label."""
        if label not in self.primes:
            raise UnknownPrime(label)
        return self.primes[label]

    # -- elementwise operations -------------------------------------------

    def multiply(self, x: Sequence[Fraction], y: Sequence[Fraction]):
        d = self.dim
        xy = {i * d + j: a * b for i, a in enumerate(x) if a for j, b in enumerate(y) if b}
        out = self.generator("m").apply(xy)
        return tuple(out.get(k) or Fraction(0) for k in range(d))

    def trace_of(self, x: Sequence[Fraction]) -> Fraction:
        return sum((self.trace[i] * x[i] for i in range(self.dim)), Fraction(0))

    def element_map(self, v: Sequence[Fraction]) -> LinearMap:
        """Multiplication by the element v: m . (v * id)."""
        return self.generator("m").compose(_vector_map(v).tensor(self.generator("id")))

    def handle_element(self) -> Tuple[Fraction, ...]:
        """m(comul(1)): the element a closed genus handle multiplies by."""
        g = self.generator
        col = g("m").compose(g("comul")).compose(g("unit")).entries
        return tuple(col.get((i, 0), Fraction(0)) for i in range(self.dim))

    def surface_element(self, genus: int, primes=()) -> Tuple[Fraction, ...]:
        """handle^genus times the prime elements: what a surface multiplies by."""
        z = self.unit
        if genus:
            x = self.handle_element()
            for bit in bin(genus)[2:]:  # handle^genus by repeated squaring
                z = self.multiply(z, z)
                if bit == "1":
                    z = self.multiply(z, x)
        for p in primes:
            z = self.multiply(self.prime(p), z)
        return z

    def surface_map(self, a: int, b: int, genus: int = 0, primes=()) -> LinearMap:
        """The map of a connected surface with a inputs and b outputs:
        (b-fold comul) . (multiplication by the surface element) . (a-fold
        mul), where a 0-fold mul is the unit and a 0-fold comul the trace.
        Built on first use and kept. The middle map is the (1, 1) surface's,
        so each (genus, primes) builds its surface element once."""
        key = (a, b, genus, tuple(primes))
        if key not in self._surfaces:
            g, ident = self.generator, self.generator("id")
            mul = g("unit") if a == 0 else ident
            for _ in range(a - 1):
                mul = g("m").compose(mul.tensor(ident))
            comul = g("tr") if b == 0 else ident
            for _ in range(b - 1):
                comul = comul.tensor(ident).compose(g("comul"))
            if (a, b) == (1, 1):
                z = self.element_map(self.surface_element(genus, primes))
            else:
                z = self.surface_map(1, 1, genus, primes)
            self._surfaces[key] = comul.compose(z).compose(mul)
        return self._surfaces[key]

    # -- axiom verification ------------------------------------------------

    def verify_cf(self) -> VerifyReport:
        """Check the seven commutative-Frobenius axiom families.

        Each law equates two composites of generator maps (i is the identity
        on one wire); every entry where they differ is a witness with its
        basis indices, so a bad algebra pinpoints exactly which structure
        constant clash broke which law.
        """
        m, unit, comul, tr, i, swap = map(
            self.generator, ("m", "unit", "comul", "tr", "id", "swap")
        )
        mid = m.tensor(i).compose(i.tensor(comul))
        return VerifyReport((
            *_law("associativity", (m.compose(m.tensor(i)), m.compose(i.tensor(m)))),
            *_law("commutativity", (m, m.compose(swap))),
            *_law(
                "unit", (m.compose(unit.tensor(i)), i), (m.compose(i.tensor(unit)), i)
            ),
            *_law(
                "coassociativity",
                (comul.tensor(i).compose(comul), i.tensor(comul).compose(comul)),
            ),
            *_law("cocommutativity", (comul, swap.compose(comul))),
            *_law(
                "counit", (tr.tensor(i).compose(comul), i), (i.tensor(tr).compose(comul), i)
            ),
            *_law(
                "frobenius",
                (comul.compose(m), mid),
                (mid, i.tensor(m).compose(comul.tensor(i))),
            ),
        ))

    def verify_legs(self) -> VerifyReport:
        """Multiplication must accept a prime element on either input."""
        m, i = self.generator("m"), self.generator("id")
        bad: List[Violation] = []
        for n, label in enumerate(sorted(self.primes)):
            pe = self.generator("pe", label)
            sides = (m.compose(pe.tensor(i)), m.compose(i.tensor(pe)))
            bad += _law("legs", sides, prefix=(n,))
        return VerifyReport(tuple(bad))


def _vector_map(v) -> LinearMap:
    """The map Q -> Q^d that sends 1 to v."""
    return LinearMap(0, 1, len(v), {(i, 0): x for i, x in enumerate(v)})


def _law(axiom, *checks, prefix=()) -> List[Violation]:
    """A witness for each entry where the two maps of a check differ.

    Its indices are the prefix, the check's number when there are two
    checks, the input digits and then the output digits. Witnesses come in
    order of input, then output, then check.
    """
    d, a, b = checks[0][0].d, checks[0][0].dom_arity, checks[0][0].cod_arity
    bad = []
    for t, idx in enumerate(product(range(d), repeat=a + b)):
        col, row = divmod(t, d**b)
        for n, (lhs, rhs) in enumerate(checks):
            x = lhs.entries.get((row, col), Fraction(0))
            y = rhs.entries.get((row, col), Fraction(0))
            if x != y:
                check = (n,) if len(checks) > 1 else ()
                bad.append(Violation(axiom, prefix + check + idx, x, y))
    return bad


def _total(terms) -> Fraction:
    return sum(terms, Fraction(0))


# -- exact linear algebra helpers ------------------------------------------


def _rref(m, ncols):
    """Gauss-Jordan over Fraction: reduce the rows of m in place, pivoting
    only in the first ncols columns. Returns the pivot columns in order."""
    rows = len(m)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((rr for rr in range(r, rows) if m[rr][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for rr in range(rows):
            if rr != r and m[rr][c]:
                f = m[rr][c]
                m[rr] = [x - f * y for x, y in zip(m[rr], m[r])]
        pivots.append(c)
    return pivots


def _mat_invert(a):
    """Inverse of a square Fraction matrix; None when singular."""
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    if len(_rref(aug, n)) < n:
        return None
    return [row[n:] for row in aug]


def derive_comul(mul, trace, dim):
    """Comultiplication from the trace pairing.

    comul(x) = sum_{s,t} (beta^-1)_{st} (x e_s) (x) e_t with
    beta(i,j) = trace(e_i e_j); raises DegeneratePairing when beta is
    singular.
    """
    d = dim
    beta = [
        [
            sum((mul[k][i][j] * trace[k] for k in range(d)), Fraction(0))
            for j in range(d)
        ]
        for i in range(d)
    ]
    binv = _mat_invert(beta)
    if binv is None:
        raise DegeneratePairing("trace pairing is singular")
    comul = []
    for i in range(d):
        slab = [[Fraction(0)] * d for _ in range(d)]
        for s in range(d):
            for t in range(d):
                c = binv[s][t]
                if not c:
                    continue
                for j in range(d):
                    mj = mul[j][i][s]
                    if mj:
                        slab[j][t] += c * mj
        comul.append(tuple(tuple(row) for row in slab))
    return tuple(comul)


# -- JSON --------------------------------------------------------------------


def algebra_to_json(alg: FrobeniusAlgebra) -> str:
    def cube(c):
        return [[[fraction_to_scalar(x) for x in row] for row in sl] for sl in c]

    data = {
        "dim": alg.dim,
        "mul": cube(alg.mul),
        "unit": [fraction_to_scalar(x) for x in alg.unit],
        "trace": [fraction_to_scalar(x) for x in alg.trace],
        "comul": cube(alg.comul),
        "primes": {
            label: [fraction_to_scalar(x) for x in vec]
            for label, vec in sorted(alg.primes.items())
        },
    }
    return json.dumps(data, indent=2, sort_keys=True)


def algebra_from_json(text: str) -> FrobeniusAlgebra:
    try:
        data = json.loads(text)
    except RecursionError:
        raise ShapeError("the algebra file nests too deeply") from None
    if not isinstance(data, dict):
        raise ShapeError("an algebra file holds one JSON object")
    for key in ("dim", "mul", "unit", "trace"):
        if key not in data:
            raise ShapeError(f"missing field {key!r}")
    return FrobeniusAlgebra(
        data["dim"],
        data["mul"],
        data["unit"],
        data["trace"],
        data.get("comul"),
        data.get("primes"),
    )


# -- idempotent splitting ----------------------------------------------------


@dataclass(frozen=True)
class IdempotentDecomposition:
    """Primitive orthogonal idempotents of a split semisimple algebra."""

    idempotents: Tuple[Tuple[Fraction, ...], ...]

    def __len__(self):
        return len(self.idempotents)


def _horner(poly, x):
    acc = 0
    for c in poly:
        acc = acc * x + c
    return acc


def _poly_rem(a, b):
    """Remainder of `a` by `b` (coefficient lists, leading term first)."""
    a = [Fraction(c) for c in a]
    while len(a) >= len(b):
        q = a[0] / b[0]
        for i in range(1, len(b)):
            a[i] -= q * b[i]
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return a


def _rational_roots(coeffs):
    """Distinct rational roots of a monic Fraction polynomial, ascending.

    With D the lcm of the coefficients' denominators, y = D*x turns it into a
    monic integer polynomial, whose rational roots are integers. A Sturm
    sequence counts its distinct real roots between half-integers; bisection
    narrows each count down to one integer, which is then tested exactly.
    """
    n = len(coeffs) - 1
    if n == 0:
        return []
    den = lcm(*(c.denominator for c in coeffs))
    f = [int(c * den**i) for i, c in enumerate(coeffs)]
    sturm = [f, [c * (n - i) for i, c in enumerate(f[:-1])]]
    while len(sturm[-1]) > 1:
        r = _poly_rem(sturm[-2], sturm[-1])
        if not r:
            break
        sturm.append([-c for c in r])

    def changes(a):
        """Sign changes of the Sturm sequence at a + 1/2."""
        x = Fraction(2 * a + 1, 2)
        signs = [v > 0 for v in (_horner(p, x) for p in sturm) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    # Cauchy's bound: every root y has |y| < b
    b = 1 + max(abs(c) for c in f[1:])
    stack = [(-b - 1, changes(-b - 1), b, changes(b))]
    roots = []
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if _horner(f, hi) == 0:
                roots.append(Fraction(hi, den))
            continue
        mid = (lo + hi) // 2
        vmid = changes(mid)
        stack += [(lo, vlo, mid, vmid), (mid, vmid, hi, vhi)]
    return sorted(roots)


def _min_poly(alg: FrobeniusAlgebra, x):
    """Coefficients [1, c1, ..., ck] of the minimal polynomial of x.

    The powers 1, x, x^2, ... are the columns of a matrix. The first one that
    is not a pivot column lies in the span of the earlier ones, and its
    reduced column holds their coefficients.
    """
    powers = [alg.unit]
    while True:
        k = len(powers) - 1
        m = [list(row) for row in zip(*powers)]
        if len(_rref(m, k + 1)) == k:
            return [Fraction(1)] + [-m[j][k] for j in reversed(range(k))]
        powers.append(alg.multiply(powers[-1], x))


def idempotent_decomposition(alg: FrobeniusAlgebra) -> IdempotentDecomposition:
    """Split the algebra into one-dimensional blocks over Q.

    The eigenvalues of an element x are the roots of its minimal polynomial,
    and x separates the blocks when that polynomial has dim distinct rational
    roots; the idempotent of the eigenvalue l is then the product over the
    other eigenvalues m of (x - m) / (l - m). The candidates are
    x = sum_k c^k e_k for c = 0, 1, ...: two distinct characters agree at
    fewer than dim values of c, so one of the first
    1 + (dim - 1) * dim * (dim - 1) / 2 candidates separates a split algebra.
    Raises NotScalarOnBlock at once when the algebra is not semisimple, that
    is when it has a nonzero nilpotent element: over Q these elements are
    the kernel of the regular trace form t(ab), t(a) = Tr(L_a), a form
    unrelated to the algebra's own trace: a nilpotent element would give x a
    repeated root. Raises it later on an irrational eigenvalue.
    """
    d, mul, S = alg.dim, alg.mul, range(alg.dim)
    t = [_total(mul[k][i][k] for k in S) for i in S]
    form = [[_total(mul[k][i][j] * t[k] for k in S) for j in S] for i in S]
    if len(_rref(form, d)) < d:
        raise NotScalarOnBlock(
            "the algebra is not semisimple: it has a nonzero nilpotent element"
        )
    for c in range(1 + (d - 1) * d * (d - 1) // 2):
        x = tuple(Fraction(c**k) for k in S)
        poly = _min_poly(alg, x)
        roots = _rational_roots(poly)
        if len(roots) < len(poly) - 1:
            raise NotScalarOnBlock("an eigenvalue is irrational: no split over Q")
        if len(roots) == d:
            break
    else:
        raise NotScalarOnBlock("no element separates the blocks")
    idems = []
    for lam in roots:
        e = alg.unit
        for mu in roots:
            if mu != lam:
                shifted = [a - mu * u for a, u in zip(x, alg.unit)]
                e = tuple(v / (lam - mu) for v in alg.multiply(e, shifted))
        if alg.multiply(e, e) != e:
            raise NotScalarOnBlock("interpolated block element is not idempotent")
        idems.append(e)
    return IdempotentDecomposition(tuple(sorted(idems)))


def character_on_block(alg: FrobeniusAlgebra, idem, element) -> Fraction:
    """The scalar by which `element` acts on the block of `idem`."""
    y = alg.multiply(element, idem)
    chi = next((a / b for a, b in zip(y, idem) if b), Fraction(0))
    if any(a != chi * b for a, b in zip(y, idem)):
        raise NotScalarOnBlock("element does not act as a scalar on the block")
    return chi


# -- fixtures ----------------------------------------------------------------


def diagonal_algebra(thetas, primes=None) -> FrobeniusAlgebra:
    """Product of lines e_i e_j = delta_ij e_i with trace weights theta.

    The trace pairing gives it the comul e_i -> e_i (x) e_i / theta_i.
    """
    th = [scalar_to_fraction(t) for t in thetas]
    d = len(th)
    if any(t == 0 for t in th):
        raise DegeneratePairing("zero trace weight")
    mul = [
        [[Fraction(int(i == j == k)) for j in range(d)] for i in range(d)]
        for k in range(d)
    ]
    unit = [Fraction(1)] * d
    return FrobeniusAlgebra(d, mul, unit, th, None, primes)


def hadamard_algebra(primes=None) -> FrobeniusAlgebra:
    """Componentwise product on Q^2 with plain-sum trace.

    The default prime element is P = (2, 3).
    """
    if primes is None:
        primes = {"P": (2, 3)}
    return diagonal_algebra((1, 1), primes)


def conjugate_algebra(alg: FrobeniusAlgebra, p) -> FrobeniusAlgebra:
    """The same algebra written in the basis whose columns are p."""
    d = alg.dim
    pm = [[scalar_to_fraction(x) for x in row] for row in p]
    pinv = _mat_invert(pm)
    if pinv is None:
        raise ShapeError("change of basis is singular")

    def to_new(v):
        return tuple(
            sum((pinv[i][j] * v[j] for j in range(d)), Fraction(0)) for i in range(d)
        )

    basis_old = list(zip(*pm))
    mul = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            prod = to_new(alg.multiply(basis_old[i], basis_old[j]))
            for k in range(d):
                mul[k][i][j] = prod[k]
    unit = to_new(alg.unit)
    trace = tuple(alg.trace_of(b) for b in basis_old)
    primes = {label: to_new(vec) for label, vec in alg.primes.items()}
    return FrobeniusAlgebra(d, mul, unit, trace, None, primes)


def random_labelled_algebra(rng, max_dim: int = 3, labels=("P", "Q")) -> FrobeniusAlgebra:
    """A random split commutative Frobenius algebra with prime elements.

    Diagonal with random nonzero rational trace weights, then optionally
    rewritten in a random unimodular basis so nothing stays axis-aligned.
    """
    d = rng.randint(1, max_dim)
    thetas = []
    for _ in range(d):
        num = rng.choice([x for x in range(-4, 5) if x != 0])
        den = rng.randint(1, 4)
        thetas.append(Fraction(num, den))
    primes = {}
    for label in labels:
        primes[label] = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
    alg = diagonal_algebra(thetas, primes)
    if rng.random() < 0.5 and d > 1:
        p = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(range(d), 2)
            c = rng.randint(-2, 2)
            for i in range(d):
                p[i][a] += c * p[i][b]
        alg = conjugate_algebra(alg, p)
    return alg
