"""Smith normal forms over K[t^{+-1}] and homology module decompositions.

K[t^{+-1}] is a PID whose units are c*t^a, so invariant factors are
reported unit-normalized (monic, nonzero constant term).

:func:`boundary_smith_form` diagonalizes a twisted boundary by one engine
for every field K.  Its coefficient at (Y, X), Y = X minus a vertex v, is
+-W(X)/W(Y) with W(X) = p_X q_X, or 0 when v brings in a zero (resonant)
factor; see `twisted`.  So the boundary is diag(W(Y))^-1 B diag(W(X)),
where B is the signed simplicial boundary, +-1 over the prime field, kept
only where X and Y have the same zero factors: the resonant mask.

Let g be an irreducible factor of Phi_d over K, with char K not dividing
d.  In the local ring K[t]_(g), every t^n - 1 is a unit times a power of
g, so W(X) = unit * g^w(X), where w(X) = w_d(X) is the Phi_d-exponent of
W(X), p-power included (`t_minus_one_multiplicities`).  Scaling rows and
columns by units is unimodular, so locally the boundary is B with the
entry at (Y, X) scaled by g^(w(X) - w(Y)).  Sort rows and columns by
weight and reduce columns left to right, a persistence reduction
(Zomorodian and Carlsson, "Computing persistent homology", 2005).  Adding
an earlier column multiplies it by a power g^(>= 0), and so does clearing
a reduced column above its lowest row by row operations.  Each pivot then
leaves one entry g^(w(X) - w(low X)): these pivot gaps are the local
exponents of the invariant factors, and the pivot count is the rank.
Orders d with the same weight vector share one reduction.

Most weight vectors need no reduction at all.  A reduction's pivots
(C, R) make B[R, C] nonsingular over the prime field: the reduced columns
of C are the columns of B[:, C] times a unitriangular matrix, with
distinct lowest rows R, and clearing keeps this, as a cleared column lies
in the span of the columns before it.  So under every weight vector w,
the twisted minor on (R, C), +-det B[R, C] * prod W(C) / prod W(R), has
valuation delta = Sum_C w - Sum_R w at g.  The pivot gaps are >= 0 and sum to the
valuation of the r-th determinantal divisor, which divides that minor,
so delta = 0 forces every gap to be 0.  A vector is therefore reduced
only when no pivot set kept from an earlier reduction has delta = 0
under it; the first reduction gives the rank.

Clearing (Chen and Kerber, "Persistent homology computation with a twist",
2011): the masked signed boundary S_k has B_k = D'^-1 S_k D', D' the
nonzero part of W, so S_k S_(k+1) = 0.  A reduced column S_(k+1) v with
lowest row sigma then writes column sigma of S_k as a combination of the
columns before it, when the k-simplices stand in one order in both.  So
:func:`homology_modules` reduces from the top degree down and hands each
reduction's pivot rows, keyed by the weight tuple that orders them, to the
degree below, which skips them only under an equal column weight tuple;
they would reduce to zero.  A vector left unreduced hands down no pivot
rows.  Every irreducible factor of Phi_d gets the same exponents, so the
invariant factors are products of Phi_d (mod p over GF(p)) and nothing is
factored.
Each call walks the boundary's cells once, building no polynomial matrix
(the implicit boundary of Bauer's Ripser, 2021), and each reduction takes
the walk's columns as lazy pairs, re-keying one by weight only when it
reduces another (`linalg`).  The walk reads each entry once per key of
`BoundaryTables.entry_keys` and checks the weights against the real
entries, neither read from the other, and over Q the pivot count against
the rank at t = 2, which clears with the pivots of its own t = 2
reduction one degree up in simplex order (the boundaries compose to zero
at t = 2 too), never with the engine's: the check must not read the
result it checks.

:func:`smith_normal_form` (Euclidean reduction), :func:`taylor_block` and
:func:`cyclotomic_candidates` are references the tests hold the engine
to.

:func:`decompose_torsion` turns the nontrivial invariant factors of the
degree-(k+1) boundary into the torsion of the degree-k homology module,
reading the Phi_d-exponents.  The free rank comes from rank-nullity over
the fraction field K(t).  `cli.run` and :func:`homology_module` get their
modules from :func:`homology_modules`, each from one `BoundaryTables`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .flag import FlagComplex
from .graphs import Character, ResonanceSets
from .laurent import (cyclotomic_field, cyclotomic_product, dense_add, dense_divmod,
                      dense_monic, dense_mul, dense_sub, laurent_from_dense,
                      taylor_at_root, totient)
from .scalars import Field, divisors
# twisted_boundary is not called here; callers also reach it as smith.twisted_boundary
from .twisted import BoundaryTables, PolyMatrix, twisted_boundary  # noqa: F401


@dataclass
class SmithForm:
    invariant_factors: list  # unit-normalized, chain-divisible, len == rank
    rank: int
    # d -> ascending Phi_d-exponents of the `rank` invariant factors, for
    # the d that occur; None when the engine does not see them (Euclidean)
    exponents: dict | None = None
    # row weight tuple -> pivot rows of a reduction in that row order, for
    # the row orders that were reduced only (certified vectors are not)
    pivot_rows: dict | None = None
    # over Q: the lead rows of the rank check's reduction at t = 2
    point_pivots: set | None = None


def _clear_to_polys(m: PolyMatrix) -> list:
    """Multiply each column by a t-power so all entries land in K[t]."""
    field = m.field
    nr, nc = m.shape
    dense = [[[] for _ in range(nc)] for _ in range(nr)]
    for j, col in enumerate(m.columns):
        shift = -min((e.valuation() for e in col.values()), default=0)
        for i, e in col.items():
            cs, v = e.shift(shift).dense()
            assert v >= 0
            dense[i][j] = [field.zero] * v + cs
    return dense


def smith_normal_form(m: PolyMatrix) -> SmithForm:
    field = m.field
    a = _clear_to_polys(m)
    nr, nc = m.shape

    def row_sub(i, t, q):
        for jj in range(nc):
            a[i][jj] = dense_sub(field, a[i][jj], dense_mul(field, q, a[t][jj]))

    def col_sub(j, t, q):
        for ii in range(nr):
            a[ii][j] = dense_sub(field, a[ii][j], dense_mul(field, q, a[ii][t]))

    def row_swap(i, t):
        a[i], a[t] = a[t], a[i]

    def col_swap(j, t):
        for ii in range(nr):
            a[ii][j], a[ii][t] = a[ii][t], a[ii][j]

    def row_add(t, i):
        for jj in range(nc):
            a[t][jj] = dense_add(field, a[t][jj], a[i][jj])

    # rescaling a row or column by a nonzero scalar is unimodular; keeping
    # every line primitive over Q is what tames the coefficient growth
    rational = field.char == 0

    def _scale_of(polys):
        num, den = 0, 1
        for p in polys:
            for cf in p:
                num = math.gcd(num, cf.numerator)
                den = den * cf.denominator // math.gcd(den, cf.denominator)
        return None if num in (0,) else Fraction(den, num)

    def prim_row(i):
        if not rational:
            return
        s = _scale_of(a[i])
        if s is None or s == 1:
            return
        a[i] = [[cf * s for cf in p] for p in a[i]]

    def prim_col(j):
        if not rational:
            return
        s = _scale_of([a[ii][j] for ii in range(nr)])
        if s is None or s == 1:
            return
        for ii in range(nr):
            a[ii][j] = [cf * s for cf in a[ii][j]]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # minimal-degree pivot in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j]:
                    d = len(a[i][j])
                    if best is None or d < best[0]:
                        best = (d, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(bi, t)
        if bj != t:
            col_swap(bj, t)
        prim_row(t)
        while True:
            progress = True
            while progress:
                progress = False
                for i in range(t + 1, nr):
                    if a[i][t]:
                        q, _r = dense_divmod(field, a[i][t], a[t][t])
                        row_sub(i, t, q)
                        prim_row(i)
                        if a[i][t]:
                            row_swap(i, t)
                            progress = True
                for j in range(t + 1, nc):
                    if a[t][j]:
                        q, _r = dense_divmod(field, a[t][j], a[t][t])
                        col_sub(j, t, q)
                        prim_col(j)
                        if a[t][j]:
                            col_swap(j, t)
                            progress = True
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] and dense_divmod(field, a[i][j], a[t][t])[1]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender)
            prim_row(t)
        t += 1

    diagonal = [a[i][i] for i in range(limit)]
    rank = sum(1 for d in diagonal if d)
    factors = [laurent_from_dense(field, _strip_t(field, d)) for d in diagonal if d]
    return SmithForm(invariant_factors=factors, rank=rank)


def _strip_t(field, cs: list) -> list:
    i = 0
    while i < len(cs) and field.is_zero(cs[i]):
        i += 1
    return dense_monic(field, cs[i:])


# ---------------------------------------------------------------------------
# invariant factors by persistence of the weight filtration
# ---------------------------------------------------------------------------

SPECIALIZATION_POINT = 2       # t = 2 is neither zero nor on the unit circle


def specialized_rank(field, at_point: list, cleared=frozenset(), leads: set | None = None) -> int:
    """Rank of a matrix whose nonzero minors only vanish on the unit circle
    or at zero, from its sparse columns `at_point` evaluated exactly at
    SPECIALIZATION_POINT, skipping the columns `cleared` (which
    `signed_boundary` leaves empty); `leads` as in `linalg.rank`."""
    return linalg.rank(field, at_point, cleared, leads)


def taylor_block(m: PolyMatrix, d: int, order: int) -> list:
    """The K_d-matrix of m acting on (K_d[tau]/(tau^order))-columns, entries
    expanded as truncated series at a primitive d-th root of unity."""
    kd = cyclotomic_field(d)
    nr, nc = m.shape
    rows = [[kd.zero] * (nc * order) for _ in range(nr * order)]
    for j, col in enumerate(m.columns):
        for i, e in col.items():
            coeffs = taylor_at_root(e, d, order)
            for a, ca in enumerate(coeffs):
                if kd.is_zero(ca):
                    continue
                for shift in range(0, order - a):
                    rows[i * order + shift + a][j * order + shift] = ca
    return rows


def cyclotomic_candidates(g, c: Character) -> list:
    """Cyclotomic orders that can divide entries (hence minors) of the
    twisted boundaries over Q: divisors of the |m_v| and the q-factor
    orders."""
    out = {1}
    for v in g.vertices:
        if c.m(v):
            out.update(divisors(abs(c.m(v))))
    for (u, v) in g.edge_list:
        me = c.m_edge(u, v)
        if me == 0:
            continue
        out.update(d for d in divisors(abs(g.ell_tilde(u, v) * me)) if me % d)
    return sorted(out)


def _pivot_gaps(field, columns: list, row_w: tuple, col_w: tuple,
                cleared) -> tuple[list, list]:
    """Ascending w(X) - w(low X) over the pivots of one left-to-right
    column reduction of `columns` but `cleared`, rows and columns sorted by
    weight, and the pivots (column, low row).  A column goes in as a pair
    (lead slot, build), re-keyed by slot only when a reduction reads it."""
    rows = sorted(range(len(row_w)), key=row_w.__getitem__)
    slot = [0] * len(rows)
    for s, i in enumerate(rows):
        slot[i] = s
    order = [j for j in sorted(range(len(col_w)), key=col_w.__getitem__) if j not in cleared]
    lows = linalg.column_leads(field, [
        (max(map(slot.__getitem__, col)), lambda col=col: {slot[i]: x for i, x in col.items()})
        if col else col for col in map(columns.__getitem__, order)])
    pivots = [(j, rows[low]) for j, low in zip(order, lows) if low is not None]
    return sorted(col_w[j] - row_w[i] for j, i in pivots), pivots


def cyclotomic_invariant_factors(columns: list, row_weights: tuple, col_weights: tuple,
                                 field: Field, cleared: dict | None = None) -> SmithForm:
    """The Smith form of diag(W(Y))^-1 B diag(W(X)) over K[t^{+-1}], for a
    signed boundary B given as sparse columns and the weights of its rows Y
    and columns X as `BoundaryTables.weights` gives them: zero counts and
    {d: [w_d by position]}, whose arrays are the run keys.

    The orders d that share a weight vector share its pivot gaps.  A vector
    is reduced only when no pivot set (C, R) kept from an earlier reduction
    has Sum_C w - Sum_R w = 0 under it; otherwise its gaps are all 0
    (module docstring), and it is skipped.  The rank is the first
    reduction's pivot count.  The exponents are kept as
    `SmithForm.exponents`; equal invariant factors are multiplied out once,
    one object, for the report and the cross-checks.  Each reduction skips
    the columns `cleared` holds under its column weight tuple.
    """
    (row_zeros, rows), (col_zeros, cols) = row_weights, col_weights
    runs = {}
    for d in sorted(rows.keys() | cols.keys()):
        key = (tuple(rows.get(d, [0] * len(row_zeros))), tuple(cols.get(d, [0] * len(col_zeros))))
        runs.setdefault(key, []).append(d)
    if not runs:
        runs[((0,) * len(row_zeros), (0,) * len(col_zeros))] = []
    exponents, pivot_rows, minors = {}, {}, []
    for (row_w, col_w), orders in runs.items():
        if any(sum(map(col_w.__getitem__, cols)) == sum(map(row_w.__getitem__, rows))
               for cols, rows in minors):
            continue
        gaps, pivots = _pivot_gaps(field, columns, row_w, col_w,
                                   (cleared or {}).get(col_w, frozenset()))
        cols, rows = zip(*pivots) if pivots else ((), ())
        minors.append((cols, rows))
        pivot_rows[row_w] = set(rows)
        if gaps and gaps[-1]:
            exponents.update((d, gaps) for d in orders)
    exponents = dict(sorted(exponents.items()))
    rank = len(minors[0][0])    # every reduction pivots once per rank of B
    keys = [tuple((d, slots[i]) for d, slots in exponents.items() if slots[i])
            for i in range(rank)]
    expanded = {key: cyclotomic_product(dict(key), field) for key in set(keys)}
    factors = [expanded[key] for key in keys]
    return SmithForm(invariant_factors=factors, rank=rank, exponents=exponents,
                     pivot_rows=pivot_rows)


def _spans(weights: tuple) -> list:
    """Per position, the span (degree minus valuation) of the nonzero part
    of W: t^n - 1 is a unit times Phi_d's of total degree n over any field."""
    spans = [0] * len(weights[0])
    for d, ws in weights[1].items():
        phi = totient(d)
        spans = [s + phi * w for s, w in zip(spans, ws)]
    return spans


def signed_boundary(t: BoundaryTables, k: int, skip=frozenset()) -> tuple[list, list | None]:
    """The degree-k boundary of t as the weights see it, in one walk over
    its cells: columns {row: (-1)^i} over the prime field where the face has
    as many zero factors as X (it has X's then, as its factors are among
    X's; else the entry is 0), and over Q the entries' values at t = 2 but
    in the columns `skip` (None mod p).  Each entry `t.entry(X, i, v)`, v
    the i-th set bit of the mask X, a product of `factor_poly`, read once
    per key of `t.entry_keys`, must be nonzero exactly at a kept cell and
    span there the difference of the weights, sums of
    `factor_multiplicities`."""
    rows, cols = t.weights(k - 1), t.weights(k)
    row_zeros, row_spans, col_spans = rows[0], _spans(rows), _spans(cols)
    field = t.field
    signs = (field.one, field.neg(field.one))
    x = field.from_int(SPECIALIZATION_POINT) if field.char == 0 else None
    entry, keys, faces = t.entry, t.entry_keys, t.fc.simplices_of
    read = {}           # entry key -> (its span or None if zero, its value at x)
    columns, at_point = [], [] if x is not None else None
    for j, (m, fs, z, span) in enumerate(zip(t.fc.masks.get(k, ()), t.fc.facets(k),
                                             cols[0], col_spans)):
        col, point = {}, None if x is None or j in skip else {}
        for f, key in zip(fs, keys(m)):
            got = read.get(key)
            if got is None:
                e = entry(m, fs.index(f), key[1])
                got = read[key] = (e.degree() - e.valuation() if e else None,
                                   e.evaluate(x) if e and x is not None else None)
            want = span - row_spans[f] if row_zeros[f] == z else None
            if got[0] != want:
                raise ArithmeticError(
                    f"weights do not match the entry at {faces(k - 1)[f]}, {faces(k)[j]}")
            if want is not None:
                col[f] = signs[key[0]]
                if point is not None:
                    point[f] = got[1]
        columns.append(col)
        if at_point is not None:
            at_point.append(point or {})
    return columns, at_point


def boundary_smith_form(t: BoundaryTables, k: int, above: SmithForm | None = None) -> SmithForm:
    """The Smith form of the degree-k boundary of t, every field alike: the
    persistence of its signed boundary under the weights, clearing with the
    pivot rows of `above`, the Smith form of degree k + 1 (module
    docstring), checked as the module docstring says."""
    cleared = (above and above.point_pivots) or frozenset()
    columns, at_point = signed_boundary(t, k, cleared)
    snf = cyclotomic_invariant_factors(columns, t.weights(k - 1), t.weights(k), t.field,
                                       above and above.pivot_rows)
    if at_point is not None:
        snf.point_pivots = set()
        rank = specialized_rank(t.field, at_point, cleared, snf.point_pivots)
        if rank != snf.rank:
            raise ArithmeticError(f"{snf.rank} pivots but rank {rank} at "
                                  f"t = {SPECIALIZATION_POINT}")
    return snf


# ---------------------------------------------------------------------------
# homology modules
# ---------------------------------------------------------------------------

@dataclass
class ModuleDecomposition:
    """H_{k+1} of the kernel subgroup as free rank + invariant factors.

    `exponents` maps each order d to the ascending Phi_d-exponents of the
    invariant factors (slot i belongs to factor i); it holds the
    orders that occur, and everything else is read from it.
    """

    k: int
    field: Field
    free_rank: int
    invariant_factors: list
    exponents: dict

    @property
    def cyclotomic_parts(self) -> dict:
        """d >= 2 -> the sorted exponents j of the Phi_d^j summands."""
        return {d: [e for e in slots if e] for d, slots in self.exponents.items() if d >= 2}

    @property
    def t_minus_1_exponent(self) -> int:
        return sum(self.exponents.get(1, ()))

    @property
    def primary_parts(self) -> dict | None:
        """The cyclotomic parts in characteristic zero, where each Phi_d is
        irreducible; None mod p, where Phi_d splits into several primes."""
        return self.cyclotomic_parts if self.field.char == 0 else None

    def exponents_for(self, d: int) -> tuple:
        if self.primary_parts is None:
            raise ValueError("primary parts are tabulated in characteristic zero only")
        return tuple(self.primary_parts.get(d, ()))


def decompose_torsion(k: int, free_rank: int, snf: SmithForm,
                      field: Field) -> ModuleDecomposition:
    """The degree-k homology module, its torsion from the Smith form `snf`
    of the degree-(k+1) boundary, whose invariant factors and exponents it
    takes whole: every kept entry carries t^(m_v) - 1 with m_v != 0, so
    every pivot gap at d = 1 is at least 1 and no invariant factor is
    trivial."""
    if snf.exponents is None:
        raise ValueError("decomposing needs the Phi_d-exponents of boundary_smith_form")
    return ModuleDecomposition(k=k, field=field, free_rank=free_rank,
                               invariant_factors=snf.invariant_factors,
                               exponents=snf.exponents)


def homology_modules(t: BoundaryTables, degrees: range) -> tuple[dict, dict]:
    """The homology module of each chain degree k in `degrees`, and the
    Smith forms of the boundaries of t for k in `degrees` and one beyond,
    from which every rank is read: the free rank is n_k - rank d_k -
    rank d_{k+1}.  The boundaries are reduced from the top down, each
    clearing with the pivot rows of the one above (module docstring).
    """
    snfs, above = {}, None
    for k in range(degrees.stop, degrees.start - 1, -1):
        snfs[k] = above = boundary_smith_form(t, k, above)
    decs = {k: decompose_torsion(k, len(t.fc.masks[k]) - snfs[k].rank - snfs[k + 1].rank,
                                 snfs[k + 1], t.field)
            for k in degrees}
    return snfs, decs


def homology_module(fc: FlagComplex, c: Character, field: Field, k: int) -> ModuleDecomposition:
    """Free rank and torsion of the degree-k homology (H_{k+1} of the kernel)."""
    if not c.is_normalized:
        raise ValueError("homology modules are computed for normalized characters")
    return homology_modules(BoundaryTables(fc, c, field), range(k, k + 1))[1][k]


# ---------------------------------------------------------------------------
# shape verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeCheck:
    name: str
    status: str  # pass | fail | skip
    detail: str = ""


@dataclass
class ShapeReport:
    skipped: str | None
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


def verify_shape(dec: ModuleDecomposition, support, image_dims_list, r_list,
                 resonance: ResonanceSets, character: Character) -> ShapeReport:
    """Check the structural shape of a decomposition against the theory:
    chain divisibility, free rank = reduced flag homology, a semisimple
    (t-1)-part of exponent dim im d_{k+1}, and torsion supported on the
    cyclotomic orders of the torsion support."""
    if not resonance.is_K_nonresonant:
        return ShapeReport(skipped="K-resonant character", checks=[])
    checks = []
    k = dec.k
    p = dec.field.char

    ok = True
    for f, g in zip(dec.invariant_factors, dec.invariant_factors[1:]):
        try:
            if f is not g:      # f divides f
                g.exact_div(f)
        except ValueError:
            ok = False
    checks.append(ShapeCheck("divisibility-chain", "pass" if ok else "fail"))

    r_k = r_list[k] if 0 <= k < len(r_list) else 0
    checks.append(ShapeCheck(
        "free-rank", "pass" if dec.free_rank == r_k else "fail",
        f"free={dec.free_rank} reduced-homology={r_k}"))

    # the (t-1) clause needs every p_v, q_e to vanish simply at t = 1,
    # which fails in characteristic p when p | m_v or p | lt(e)
    graph = character.graph
    tm1_applies = p == 0 or (
        all(character.m(v) % p != 0 for v in graph.vertices)
        and all(graph.ell_tilde(u, v) % p != 0 for (u, v) in graph.edge_list))
    if tm1_applies:
        semis = all(e <= 1 for e in dec.exponents.get(1, ()))
        expect = image_dims_list[k + 1] if k + 1 < len(image_dims_list) else 0
        good = semis and dec.t_minus_1_exponent == expect
        checks.append(ShapeCheck(
            "t-minus-1-part", "pass" if good else "fail",
            f"semisimple={semis} exponent={dec.t_minus_1_exponent} im-dim={expect}"))
    else:
        checks.append(ShapeCheck(
            "t-minus-1-part", "skip",
            "char divides a vertex weight or edge half-label"))

    # Phi_d (p not dividing d) divides Phi_e mod p exactly when e = p^a d
    def p_free(e):
        while p and e % p == 0:
            e //= p
        return e

    folded = {p_free(e) for e in support}
    in_support = all(d in folded for d in dec.exponents if d >= 2)
    checks.append(ShapeCheck("torsion-in-support", "pass" if in_support else "fail"))
    return ShapeReport(skipped=None, checks=checks)
