"""Smith normal forms over K[t] and homology module decompositions.

K[t^{+-1}] is a PID whose units are c*t^a, so matrices of Laurent
polynomials are first cleared to K[t] by multiplying each column with a
suitable t-power (a unimodular operation), and invariant factors are
reported unit-normalized (monic, nonzero constant term).

Two diagonalization engines live here.

* :func:`smith_normal_form` is the classical reduction: minimal-degree
  pivoting, Euclidean division, whole-block divisibility sweeps, optional
  transform tracking.  Over GF(p) coefficients cannot grow and this is
  the engine of choice; over Q it keeps every row and column primitive
  but remains usable only while entry degrees are small (rational
  elimination of long division chains explodes doubly exponentially).

* :func:`cyclotomic_invariant_factors` exploits that every nonzero minor
  of a twisted boundary is a rational constant times t-powers and
  cyclotomics: rank comes from one exact evaluation off the unit circle,
  and the Phi_d-exponents of the invariant factors from the local Smith
  form at zeta_d, one least-valuation elimination over K_d[tau]/(tau^N)
  per candidate d (after Wilkening and Yu's local construction of the
  Smith form).  Field arithmetic in K_d only, so nothing ever grows; this
  is the engine behind every characteristic-zero homology computation.
  It keeps those exponents in `SmithForm.exponents`.

:func:`decompose_torsion` turns the nontrivial invariant factors of the
degree-(k+1) boundary into the torsion of the degree-k homology module.
Over Q it reads the primary parts straight from the Phi_d-exponents, so
nothing is factored again; over GF(p) it factors the polynomials.  The
free rank comes from rank-nullity over the fraction field K(t).
`cli.run` and :func:`homology_module` get their modules from
:func:`homology_modules`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .flag import FlagComplex
from .graphs import Character, ResonanceSets
from .laurent import (Factor, LaurentPoly, cyclotomic, cyclotomic_field,
                      cyclotomic_product, dense_add, dense_divmod, dense_monic,
                      dense_mul, dense_sub, factor_invariant,
                      laurent_from_dense, taylor_at_root, trunc_inv, trunc_mul)
from .scalars import QQ, FieldSpec
from .twisted import PolyMatrix, twisted_boundary


@dataclass
class SmithTransforms:
    """U, V with U * cleared * V = diag; kept only on request, for audits."""

    u: list
    v: list
    cleared: list
    diagonal: list


@dataclass
class SmithForm:
    invariant_factors: list  # unit-normalized, chain-divisible, len == rank
    rank: int
    transforms: SmithTransforms | None = None
    # d -> ascending Phi_d-exponents of the `rank` invariant factors, for
    # the d that occur; None when the engine does not see them (Euclidean)
    exponents: dict | None = None

    @property
    def nontrivial_factors(self) -> list:
        return [f for f in self.invariant_factors if f.degree() > 0]


def _clear_to_polys(m: PolyMatrix) -> list:
    """Multiply each column by a t-power so all entries land in K[t]."""
    field = m.field
    nr, nc = m.shape
    dense = [[None] * nc for _ in range(nr)]
    for j in range(nc):
        vals = [m.entries[i][j].valuation() for i in range(nr)
                if not m.entries[i][j].is_zero()]
        shift = -min(vals) if vals else 0
        for i in range(nr):
            e = m.entries[i][j]
            cs, v = e.shift(shift).dense() if not e.is_zero() else ([], 0)
            assert v >= 0 or not cs
            dense[i][j] = ([field.zero] * v + cs) if cs else []
    return dense


def smith_normal_form(m: PolyMatrix, keep_transforms: bool = False) -> SmithForm:
    field = m.field
    a = _clear_to_polys(m)
    nr, nc = m.shape
    cleared = [[list(e) for e in row] for row in a] if keep_transforms else None
    u = v = None
    if keep_transforms:
        u = [[[field.one] if i == j else [] for j in range(nr)] for i in range(nr)]
        v = [[[field.one] if i == j else [] for j in range(nc)] for i in range(nc)]

    def row_sub(i, t, q):
        for jj in range(nc):
            a[i][jj] = dense_sub(field, a[i][jj], dense_mul(field, q, a[t][jj]))
        if u is not None:
            for jj in range(nr):
                u[i][jj] = dense_sub(field, u[i][jj], dense_mul(field, q, u[t][jj]))

    def col_sub(j, t, q):
        for ii in range(nr):
            a[ii][j] = dense_sub(field, a[ii][j], dense_mul(field, q, a[ii][t]))
        if v is not None:
            for ii in range(nc):
                v[ii][j] = dense_sub(field, v[ii][j], dense_mul(field, q, v[ii][t]))

    def row_swap(i, t):
        a[i], a[t] = a[t], a[i]
        if u is not None:
            u[i], u[t] = u[t], u[i]

    def col_swap(j, t):
        for ii in range(nr):
            a[ii][j], a[ii][t] = a[ii][t], a[ii][j]
        if v is not None:
            for ii in range(nc):
                v[ii][j], v[ii][t] = v[ii][t], v[ii][j]

    def row_add(t, i):
        for jj in range(nc):
            a[t][jj] = dense_add(field, a[t][jj], a[i][jj])
        if u is not None:
            for jj in range(nr):
                u[t][jj] = dense_add(field, u[t][jj], u[i][jj])

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
        if u is not None:
            u[i] = [[cf * s for cf in p] for p in u[i]]

    def prim_col(j):
        if not rational:
            return
        s = _scale_of([a[ii][j] for ii in range(nr)])
        if s is None or s == 1:
            return
        for ii in range(nr):
            a[ii][j] = [cf * s for cf in a[ii][j]]
        if v is not None:
            for ii in range(nc):
                v[ii][j] = [cf * s for cf in v[ii][j]]

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
    transforms = None
    if keep_transforms:
        transforms = SmithTransforms(u=u, v=v, cleared=cleared,
                                     diagonal=[list(d) for d in diagonal])
    return SmithForm(invariant_factors=factors, rank=rank, transforms=transforms)


def _strip_t(field, cs: list) -> list:
    i = 0
    while i < len(cs) and field.is_zero(cs[i]):
        i += 1
    return dense_monic(field, cs[i:])


# ---------------------------------------------------------------------------
# invariant factors in characteristic zero, one cyclotomic at a time
#
# Every nonzero minor of a twisted boundary is a rational constant times a
# product of cyclotomic polynomials and t-powers, so its roots lie on the
# unit circle or at 0.  Two consequences drive the engine below:
#   * the rank over K(t) equals the rank after evaluating t at any rational
#     point away from the unit circle and zero;
#   * Phi_d has a simple root at zeta_d, so the Phi_d-exponents of the
#     invariant factors are the tau-valuations of the local Smith form over
#     K_d[[tau]], t = zeta_d + tau, computed mod tau^N with arithmetic in
#     K_d only (no coefficient growth at all).
# `taylor_block` writes the same local ring as one K_d-matrix, whose ranks
# the tests take as a page oracle.
# ---------------------------------------------------------------------------

SPECIALIZATION_POINT = 2       # t = 2 is neither zero nor on the unit circle
LOCAL_ORDER_CAP = 64           # deepest truncation tau^N of the local route


def specialized_rank(m: PolyMatrix) -> int:
    """Rank of a matrix whose nonzero minors only vanish on the unit circle
    or at zero, via exact evaluation at SPECIALIZATION_POINT."""
    field = m.field
    x = field.from_int(SPECIALIZATION_POINT)
    from .linalg import rank as field_rank
    return field_rank(field, m.evaluate(x))


def taylor_block(m: PolyMatrix, d: int, order: int) -> list:
    """The K_d-matrix of m acting on (K_d[tau]/(tau^order))-columns, entries
    expanded as truncated series at a primitive d-th root of unity."""
    kd = cyclotomic_field(d)
    nr, nc = m.shape
    rows = [[kd.zero] * (nc * order) for _ in range(nr * order)]
    for i in range(nr):
        for j in range(nc):
            e = m.entries[i][j]
            if e.is_zero():
                continue
            coeffs = taylor_at_root(e, d, order)
            for a, ca in enumerate(coeffs):
                if kd.is_zero(ca):
                    continue
                for shift in range(0, order - a):
                    rows[i * order + shift + a][j * order + shift] = ca
    return rows


def _valuation(kd, series: list) -> int:
    """Index of the first nonzero coefficient; len(series) when zero."""
    for v, x in enumerate(series):
        if not kd.is_zero(x):
            return v
    return len(series)


def _pivot_valuations(m: PolyMatrix, d: int, order: int) -> list:
    """Pivot valuations of one elimination of m over K_d[tau]/(tau^order),
    t = zeta_d + tau, always pivoting on an entry of least valuation.

    Such a pivot divides every remaining entry, so clearing its column
    from the other rows splits off one local invariant factor: the pivot
    valuations are the local exponents below `order`, in increasing order.
    Rows are dicts col -> (valuation, series) of their nonzero entries.
    """
    kd = cyclotomic_field(d)
    series = {}
    live = []
    for row in m.entries:
        sparse = {}
        for j, e in enumerate(row):
            if e.is_zero():
                continue
            if e not in series:
                s = taylor_at_root(e, d, order)
                series[e] = (_valuation(kd, s), s)
            if series[e][0] < order:
                sparse[j] = series[e]
        if sparse:
            live.append(sparse)
    vals = []
    while live:
        # least valuation first, then the sparsest row to limit fill-in
        lows = [min(x[0] for x in row.values()) for row in live]
        p = min(range(len(live)), key=lambda i: (lows[i], len(live[i])))
        v = lows[p]
        prow = live[p]
        live[p] = live[-1]
        live.pop()
        j = next(c for c, x in prow.items() if x[0] == v)
        width = order - v
        # divide by tau^v: the pivot becomes a unit, the rest of the row
        # keeps valuation >= 0
        unit_inv = trunc_inv(kd, prow.pop(j)[1][v:], width)
        prow = [(k, x[1][v:]) for k, x in prow.items()]
        rest = []
        for row in live:
            c = row.pop(j, None)
            if c is not None:
                factor = trunc_mul(kd, c[1][v:], unit_inv, width)
                for k, x in prow:
                    prod = trunc_mul(kd, factor, x, width)
                    old = row[k][1] if k in row else [kd.zero] * order
                    new = old[:v] + [kd.sub(a, b) for a, b in zip(old[v:], prod)]
                    nv = _valuation(kd, new)
                    if nv < order:
                        row[k] = (nv, new)
                    else:
                        row.pop(k, None)
                if not row:
                    continue
            rest.append(row)
        live = rest
        vals.append(v)
    return vals


def _local_exponents(m: PolyMatrix, d: int, rank: int) -> list:
    """The Phi_d-exponents of the `rank` invariant factors of m, ascending.

    Phi_d has a simple root at zeta_d, so they are the exponents of the
    local Smith form over K_d[[tau]], read off one least-valuation
    elimination mod tau^N.  N starts at 1, where the elimination is the
    rank at zeta_d, and doubles while fewer than `rank` pivots show.
    """
    order = 1
    while order <= LOCAL_ORDER_CAP:
        vals = _pivot_valuations(m, d, order)
        if len(vals) > rank:
            raise ArithmeticError(f"inconsistent local ranks at Phi_{d}")
        if len(vals) == rank:
            return vals
        order *= 2
    raise ArithmeticError(f"Phi_{d}-exponents did not stabilize")


def cyclotomic_candidates(g, c: Character) -> list:
    """Cyclotomic orders that can divide entries (hence minors) of the
    twisted boundaries: divisors of the |m_v| and the q-factor orders."""
    out = {1}
    for v in g.vertices:
        mv = abs(c.m(v))
        for d in range(2, mv + 1):
            if mv % d == 0:
                out.add(d)
    for (u, v) in g.edge_list:
        me = c.m_edge(u, v)
        if me == 0:
            continue
        big = abs(g.ell_tilde(u, v) * me)
        for d in range(2, big + 1):
            if big % d == 0 and me % d != 0:
                out.add(d)
    return sorted(out)


def cyclotomic_invariant_factors(m: PolyMatrix, candidates) -> SmithForm:
    """Invariant factors of a twisted boundary over Q[t^{+-1}] from their
    Phi_d-exponents for d in `candidates`.

    The exponents are kept as `SmithForm.exponents`; the polynomials are
    multiplied out once, for the report and the cross-checks.
    """
    if m.field.char != 0:
        raise ValueError("the cyclotomic route needs characteristic zero")
    r = specialized_rank(m)
    exponents = {}
    if r:
        for d in candidates:
            slots = _local_exponents(m, d, r)
            if slots[-1]:
                exponents[d] = slots
    factors = [cyclotomic_product({d: slots[i] for d, slots in exponents.items()}, QQ)
               for i in range(r)]
    return SmithForm(invariant_factors=factors, rank=r, exponents=exponents)


def boundary_smith_form(m: PolyMatrix, fc: FlagComplex, c: Character,
                        fspec: FieldSpec) -> SmithForm:
    """Invariant factors of a twisted boundary by the engine suited to the
    field: the cyclotomic local route over Q, Euclidean reduction over GF(p)
    (where coefficients cannot grow)."""
    if fspec.char == 0:
        return cyclotomic_invariant_factors(m, cyclotomic_candidates(fc.graph, c))
    return smith_normal_form(m)


# ---------------------------------------------------------------------------
# homology modules
# ---------------------------------------------------------------------------

@dataclass
class ModuleDecomposition:
    """H_{k+1} of the kernel subgroup as free rank + invariant factors.

    `primary_parts` (characteristic zero only) maps each cyclotomic order
    d >= 2 to the sorted list of exponents j of its Phi_d^j summands; the
    (t-1)-part is tracked separately through `t_minus_1_exponent`.
    """

    k: int
    fspec: FieldSpec
    free_rank: int
    invariant_factors: list
    factor_terms: list
    primary_parts: dict | None
    t_minus_1_exponent: int

    def exponents_for(self, d: int) -> tuple:
        if self.primary_parts is None:
            raise ValueError("primary parts are tabulated in characteristic zero only")
        return tuple(self.primary_parts.get(d, ()))

    def summary(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"free^{self.free_rank}" if self.free_rank > 1 else "free")
        parts.extend(f"({f})" for f in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def _tm1_multiplicity(field, f: LaurentPoly) -> int:
    tm1 = [field.neg(field.one), field.one]
    cs, _ = f.dense()
    count = 0
    while len(cs) >= 2:
        q, r = dense_divmod(field, cs, tm1)
        if r:
            break
        cs = q
        count += 1
    return count


def decompose_torsion(k: int, free_rank: int, snf: SmithForm,
                      fspec: FieldSpec) -> ModuleDecomposition:
    """The degree-k homology module, its torsion from the Smith form `snf`
    of the degree-(k+1) boundary.

    Over Q everything is read from `snf.exponents`: Phi_d for d >= 2 gives
    the primary parts, Phi_1 = t - 1 the (t-1)-exponent, and each
    invariant factor's terms are its Phi_d^e in ascending d.  Over GF(p)
    the invariant factors are factored into irreducibles.
    """
    invariant = snf.nontrivial_factors
    if fspec.char == 0:
        if snf.exponents is None:
            raise ValueError("decomposing over Q needs the Phi_d-exponents "
                             "of the cyclotomic route")
        ordered = sorted(snf.exponents.items())
        terms = [[Factor(cyclotomic(d, fspec).poly, slots[i], d)
                  for d, slots in ordered if slots[i]]
                 for i in range(snf.rank - len(invariant), snf.rank)]
        primary = {d: [e for e in slots if e] for d, slots in ordered if d >= 2}
        t1 = sum(snf.exponents.get(1, ()))
    else:
        terms = [factor_invariant(f, fspec) for f in invariant]
        primary = None
        field = fspec.scalars()
        t1 = sum(_tm1_multiplicity(field, f) for f in invariant)
    return ModuleDecomposition(k=k, fspec=fspec, free_rank=free_rank,
                               invariant_factors=invariant, factor_terms=terms,
                               primary_parts=primary, t_minus_1_exponent=t1)


def homology_modules(fc: FlagComplex, c: Character, fspec: FieldSpec,
                     boundaries: dict, degrees: range) -> tuple[dict, dict]:
    """The homology module of each chain degree k in `degrees`, and the
    Smith forms of `boundaries[k]` for k in `degrees` and one beyond, from
    which every rank is read: the free rank is n_k - rank d_k - rank d_{k+1}.
    """
    snfs = {k: boundary_smith_form(boundaries[k], fc, c, fspec)
            for k in range(degrees.start, degrees.stop + 1)}
    decs = {k: decompose_torsion(k, len(fc.simplices_of(k)) - snfs[k].rank - snfs[k + 1].rank,
                                 snfs[k + 1], fspec)
            for k in degrees}
    return snfs, decs


def homology_module(fc: FlagComplex, c: Character, fspec: FieldSpec, k: int) -> ModuleDecomposition:
    """Free rank and torsion of the degree-k homology (H_{k+1} of the kernel)."""
    if not c.is_normalized:
        raise ValueError("homology modules are computed for normalized characters")
    boundaries = {j: twisted_boundary(fc, c, fspec, j) for j in (k, k + 1)}
    return homology_modules(fc, c, fspec, boundaries, range(k, k + 1))[1][k]


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
                 resonance: ResonanceSets, graph=None, character=None) -> ShapeReport:
    """Check the structural shape of a decomposition against the theory:
    chain divisibility, free rank = reduced flag homology, a semisimple
    (t-1)-part of exponent dim im d_{k+1}, and torsion supported on the
    cyclotomic orders of the torsion support."""
    if not resonance.is_K_nonresonant:
        return ShapeReport(skipped="K-resonant character", checks=[])
    checks = []
    k = dec.k
    fspec = dec.fspec
    field = fspec.scalars()

    ok = True
    for f, g in zip(dec.invariant_factors, dec.invariant_factors[1:]):
        try:
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
    tm1_applies = fspec.char == 0
    if not tm1_applies and graph is not None and character is not None:
        p = fspec.char
        tm1_applies = all(character.m(v) % p != 0 for v in graph.vertices) and \
            all(graph.ell_tilde(u, v) % p != 0 for (u, v) in graph.edge_list)
    if tm1_applies:
        semis = all(_tm1_multiplicity(field, f) <= 1 for f in dec.invariant_factors)
        expect = image_dims_list[k + 1] if k + 1 < len(image_dims_list) else 0
        good = semis and dec.t_minus_1_exponent == expect
        checks.append(ShapeCheck(
            "t-minus-1-part", "pass" if good else "fail",
            f"semisimple={semis} exponent={dec.t_minus_1_exponent} im-dim={expect}"))
    else:
        checks.append(ShapeCheck(
            "t-minus-1-part", "skip",
            "char divides a vertex weight or edge half-label"))

    sup = set(support)
    if fspec.char == 0:
        in_support = all(d in sup for d in dec.primary_parts)
    else:
        tm1 = laurent_from_dense(field, [field.neg(field.one), field.one])
        phis = [cyclotomic(d, fspec).poly for d in sup]

        def explained(g: LaurentPoly) -> bool:
            if g == tm1:
                return True
            gd, _ = g.dense()
            for phi in phis:
                pd, _ = phi.dense()
                if len(pd) >= len(gd) and not dense_divmod(field, pd, gd)[1]:
                    return True
            return False

        in_support = all(explained(fac.poly)
                         for fl in dec.factor_terms for fac in fl)
    checks.append(ShapeCheck("torsion-in-support", "pass" if in_support else "fail"))
    return ShapeReport(skipped=None, checks=checks)
