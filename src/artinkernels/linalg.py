"""Small exact linear algebra toolkit over the scalar fields.

Matrices are lists of sparse rows or columns (dicts index -> value).
Everything is exact.  :func:`rank` is the one field rank kernel: it
eliminates on copies of the sparse rows (or columns: the rank is the
same), because the boundary matrices it sees are sparse.

:class:`BottomEchelon` maintains a column-space basis in bottom-echelon
form: each stored vector has a distinct bottom-most nonzero row, and
those lead rows never move once created.  Feeding columns left to right
therefore yields, for every prefix of columns and every row cut r, the
rank of the submatrix on rows >= r -- the "staircase ranks" that drive
the filtered-complex page dimension formulas.  Each vector is stored
scaled so that its lead is one: a reduction step is then a multiply and
a subtract, and the one inverse per basis vector is paid when it is
stored.  :func:`staircase_leads` skips the `cleared` columns, which the
caller knows to be combinations of the columns before them (clearing, see
`spectral`): they would reduce to zero and change no lead.
"""

from __future__ import annotations

from .scalars import Field


def rank(field: Field, rows: list[dict]) -> int:
    """Rank by sparse row elimination; `rows`, dicts {column: value}, are
    left untouched.

    The rows are copied without their zero entries.  Each step takes
    the sparsest remaining row as pivot row, so the fill-in a pivot spreads
    stays small, and clears its first column from every other row.
    """
    is_zero, sub, mul, zero = field.is_zero, field.sub, field.mul, field.zero
    live = []
    for row in rows:
        sparse = {j: x for j, x in row.items() if not is_zero(x)}
        if sparse:
            live.append(sparse)
    r = 0
    while live:
        p = min(range(len(live)), key=lambda i: len(live[i]))
        prow = live[p]
        live[p] = live[-1]
        live.pop()
        j = next(iter(prow))
        inv = field.inv(prow.pop(j))
        rest = []
        for row in live:
            c = row.pop(j, None)
            if c is not None:
                factor = mul(c, inv)
                for k, x in prow.items():
                    y = sub(row.get(k, zero), mul(factor, x))
                    if is_zero(y):
                        del row[k]
                    else:
                        row[k] = y
                if not row:
                    continue
            rest.append(row)
        live = rest
        r += 1
    return r


class BottomEchelon:
    """Incremental column-space basis keyed by bottom-most nonzero row."""

    def __init__(self, field: Field):
        self.field = field
        self.basis: dict[int, dict[int, object]] = {}

    def insert(self, vec: dict[int, object]) -> int | None:
        """Reduce vec against the basis; returns the new lead row or None.
        A new basis vector is stored divided by its lead."""
        f = self.field
        is_zero, sub, mul, zero = f.is_zero, f.sub, f.mul, f.zero
        vec = {r: c for r, c in vec.items() if not is_zero(c)}
        while vec:
            lead = max(vec)
            other = self.basis.get(lead)
            if other is None:
                inv = f.inv(vec[lead])
                self.basis[lead] = {r: mul(c, inv) for r, c in vec.items()}
                return lead
            factor = vec.pop(lead)
            for r, c in other.items():
                if r != lead:
                    newc = sub(vec.get(r, zero), mul(factor, c))
                    if is_zero(newc):
                        vec.pop(r, None)
                    else:
                        vec[r] = newc
        return None

    @property
    def rank(self) -> int:
        return len(self.basis)


def staircase_leads(field: Field, columns: list[dict[int, object]],
                    snapshot_after: list[int], cleared=frozenset()) -> list[list[int]]:
    """Feed columns in order, skipping the indices in `cleared`; after the
    first `n` columns for each n in `snapshot_after` (nondecreasing),
    record the sorted list of lead rows.  A cleared column counts toward n.

    rank of (rows >= r, first n columns) = #leads in that snapshot >= r.
    """
    ech = BottomEchelon(field)
    leads: list[int] = []
    snaps: list[list[int]] = []
    want = list(snapshot_after)
    done = 0
    wi = 0
    while wi < len(want) and want[wi] == 0:
        snaps.append([])
        wi += 1
    for j, col in enumerate(columns):
        lead = None if j in cleared else ech.insert(col)
        if lead is not None:
            leads.append(lead)
        done += 1
        while wi < len(want) and want[wi] == done:
            snaps.append(sorted(leads))
            wi += 1
    while wi < len(want):
        snaps.append(sorted(leads))
        wi += 1
    return snaps
