"""Small exact linear algebra toolkit over the scalar fields.

Matrices are lists of sparse rows or columns (dicts index -> value).
Everything is exact, and there is one elimination kernel.

:class:`BottomEchelon` maintains a column-space basis in bottom-echelon
form: each stored vector has a distinct bottom-most nonzero row, and
those lead rows never move once created.  Feeding columns left to right
therefore yields, for every prefix of columns and every row cut r, the
rank of the submatrix on rows >= r, and pairs each column that adds a
lead with its lead row: with rows and columns in filtration order, these
are the persistence pairs from which `spectral` reads its pages.  Leads,
ranks and snapshots depend only on spans, so a new vector is stored
unscaled.

A column is a dict or a pair (lead, build): its bottom-most row and a
function returning it as a new dict with no zero entry.  A column that
adds a lead is stored as given, by reference, and never mutated: a dict
with no zero entry is not copied, and a pair is built only when it
reduces another (the implicit columns of Bauer's Ripser, 2021), then
checked (a wrong lead or a zero entry raises ArithmeticError).  Clearing
leaves few stored vectors that reduce another, so a lead's inverse is
computed and cached the first time its vector reduces one.

:func:`column_leads` feeds columns in order to one `BottomEchelon` and
returns the lead row each adds.  :func:`rank` counts those leads (fed
rows give the same count), `spectral` pairs columns by them, the Smith
route reads its pivot gaps from them, and :func:`staircase_leads` takes
prefix snapshots of them for the tests' reference page formula.  The `skip`
columns are ones the caller knows to be combinations of the columns
before them, so they add no lead: each caller (`flag.image_dims`, the
Smith route and its t = 2 check, `spectral`) skips the leads of its own
reduction one chain degree up, in the same order, as consecutive
boundaries compose to zero (clearing, Chen and Kerber, 2011).
"""

from __future__ import annotations

from collections.abc import Iterable

from .scalars import Field


class BottomEchelon:
    """Incremental column-space basis keyed by bottom-most nonzero row.

    `basis` maps a lead row to its vector, stored as it was given (a dict
    or a pair) or as it reduced; `inverses` maps a lead row to the inverse
    of that vector's lead entry, once the vector has reduced another."""

    def __init__(self, field: Field):
        self.field = field
        self.basis: dict[int, dict | tuple] = {}
        self.inverses: dict[int, object] = {}

    def insert(self, col) -> int | None:
        """Reduce col against the basis; returns the new lead row or None.
        A column that adds a lead is stored as given, any other as reduced."""
        f = self.field
        is_zero, sub, mul, zero = f.is_zero, f.sub, f.mul, f.zero
        basis, inverses = self.basis, self.inverses
        if type(col) is tuple:
            if col[0] not in basis:
                basis[col[0]] = col
                return col[0]
            col = col[1]()
        zero_free = not any(map(is_zero, col.values()))
        vec = col if zero_free else {r: c for r, c in col.items() if not is_zero(c)}
        while vec:
            lead = max(vec)
            other = basis.get(lead)
            if other is None:
                basis[lead] = vec
                return lead
            if type(other) is tuple:
                other = basis[lead] = other[1]()
                if max(other, default=None) != lead or any(map(is_zero, other.values())):
                    raise ArithmeticError(f"the column stored under lead row {lead} "
                                          "has another lead or a zero entry")
            if vec is col:
                vec = dict(col)
            inv = inverses.get(lead)
            if inv is None:
                inv = inverses[lead] = f.inv(other[lead])
            factor = mul(vec.pop(lead), inv)
            for r, c in other.items():
                if r != lead:
                    newc = sub(vec.get(r, zero), mul(factor, c))
                    if is_zero(newc):
                        vec.pop(r, None)
                    else:
                        vec[r] = newc
        return None


def column_leads(field: Field, columns: Iterable, skip=frozenset()) -> list[int | None]:
    """Per column (a dict or a pair, module docstring), in order, the lead
    row it adds to the echelon of the columns before it; None if it is in
    their span or its index is in `skip`."""
    ech = BottomEchelon(field)
    return [None if j in skip else ech.insert(col) for j, col in enumerate(columns)]


def rank(field: Field, rows: list[dict], skip=frozenset(), leads: set | None = None) -> int:
    """Rank of sparse rows (or columns: the rank is the same), skipping the
    indices in `skip`; the lead rows are added to `leads` when given."""
    found = set(column_leads(field, rows, skip)) - {None}
    if leads is not None:
        leads |= found
    return len(found)


def staircase_leads(field: Field, columns: list,
                    snapshot_after: list[int], cleared=frozenset()) -> list[list[int]]:
    """For each n in `snapshot_after`, the sorted lead rows of the first n
    columns, skipping the indices in `cleared`; a cleared column counts
    toward n.

    rank of (rows >= r, first n columns) = #leads in that snapshot >= r.
    """
    leads = column_leads(field, columns, cleared)
    return [sorted(lead for lead in leads[:n] if lead is not None) for n in snapshot_after]
