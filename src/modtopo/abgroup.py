"""Exact arithmetic on integer matrices and finitely generated abelian groups.

Everything in this module runs on Python's arbitrary-precision integers;
there is no floating point and no fixed-width arithmetic anywhere, so no
intermediate result can overflow.  The two core values are

* :class:`IntMatrix`, an immutable dense integer matrix (boundary maps,
  presentations, linear maps), and
* :class:`FgAbGroup`, a finitely generated abelian group in canonical form

      Z^rank  (+)  Z/d1 (+) ... (+) Z/dt      with  2 <= d1 | d2 | ... | dt.

Canonical form is the invariant-factor decomposition, so two groups are
isomorphic exactly when their fields compare equal.  Factors equal to 1
are dropped during canonicalization and Z/0 is recorded as a free summand,
never as a "factor 0".

On top of Smith normal form the module provides homology of integer chain
complexes, the bifunctors tensor/Tor/Hom/Ext on groups, and lattice
utilities (integer kernels, image bases, lattice quotients) used by the
twisted K-theory path.
"""

from __future__ import annotations

import sys
from collections import Counter
from heapq import heapify, heappop, heappush
from itertools import chain, compress
from math import gcd
from operator import attrgetter, floordiv

from .errors import DimensionMismatch, InvalidInput, NotAComplex, NotASublattice


# Miller-Rabin on the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981
# a matrix document lists rows * cols entries, so only a zero side names a
# large shape for free; a side above this is refused
MAX_MATRIX_SIDE = 2**16
# the Smith transforms left and right hold rows^2 + cols^2 entries
MAX_TRANSFORM_ENTRIES = 2**22
# a group operation's torsion list, whose length its operands give, is not built past this
MAX_INVARIANT_FACTORS = 2**20


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for mod-p coefficients; InvalidInput from _MR_BOUND on."""
    require_ints("a prime", n)
    if n >= _MR_BOUND:
        raise InvalidInput(f"primality of {n} is not decided above {_MR_BOUND}")
    if n < 2 or n in _MR_BASES:
        return n >= 2
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    return all(
        n % a and (pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s)))
        for a in _MR_BASES
    )


def as_int(v) -> int:
    """An int read from JSON, which carries numbers beyond 2**53 as decimal
    strings, spelled as ``json_int`` writes them; ValueError on anything else."""
    if isinstance(v, bool):
        raise ValueError("booleans are not integers")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        if v != str(n := int(v, 10)):
            raise ValueError(f"{v!r} is not the canonical decimal of {n}")
        return n
    raise ValueError(f"expected integer, got {v!r}")


def json_shape(value, kind: type, what: str):
    """``value`` if it is a JSON object, array (a tuple too) or boolean, as
    ``kind`` is dict, list or bool; InvalidInput otherwise."""
    if isinstance(value, (list, tuple) if kind is list else kind):
        return value
    shape = {dict: "object", list: "array", bool: "boolean"}[kind]
    raise InvalidInput(f"{what} must be a JSON {shape}, not {type(value).__name__}")


def json_list(read, what: str):
    """The reader of a JSON array (InvalidInput on any other value), each item read by ``read``."""
    return lambda items: tuple(map(read, json_shape(items, list, what)))


def json_record(doc, what: str, /, **readers) -> list:
    """The values of a JSON object's keys in the order of ``readers``, each
    read by its reader (None keeps the value as given), or by ``(reader,
    default)`` for a key it may leave out.  InvalidInput unless ``doc`` is an
    object; ValueError, naming the key and the keys taken, on a key the
    record does not take or a key it needs and lacks."""
    takes = ", ".join(readers)
    if extra := [k for k in json_shape(doc, dict, what) if k not in readers]:
        raise ValueError(f"{what} has no key {extra[0]!r}; it takes {takes}")
    if missing := [k for k, r in readers.items() if k not in doc and type(r) is not tuple]:
        raise ValueError(f"{what} needs the key {missing[0]!r}; it takes {takes}")
    readers = {k: r if type(r) is tuple else (r, None) for k, r in readers.items()}
    return [default if k not in doc else read(doc[k]) if read else doc[k] for k, (read, default) in readers.items()]


def require_ints(what: str, *values) -> None:
    """Raise TypeError unless every value is an int (bool and float are not)."""
    if not {*map(type, values)} <= {int}:
        raise TypeError(f"{what} must be int (not bool or float)")


def json_int(v: int):
    """Ints that can exceed 2**53 are serialized as decimal strings."""
    return v if abs(v) <= 2**53 else str(v)


class FrozenValue:
    """Base of the immutable value types.

    A subclass's fields are its annotated names, in order; a class
    attribute gives a field's default.  Instances compare and hash by
    class and field values and refuse assignment; ``__post_init__`` may
    still cache derived values with ``object.__setattr__``.
    This base exists for start-up cost: the standard library's class
    generator loads ``inspect`` and execs code for every class, which costs
    a CLI process more than most commands' own work.

    Exactness is checked here, from the annotation strings that
    ``from __future__ import annotations`` leaves: a field annotated ``int``,
    ``bool``, ``str``, ``None``, a class its module names (a value class,
    say), ``dict[K, int]``, a union of those, or ``tuple[T, ...]`` of one,
    refuses any other type, a bool or a float too, with TypeError before
    ``__post_init__`` runs, and a tuple field is made a tuple.  A
    ``dict[K, int]`` takes a dict whose values are ints; its keys are not
    checked.  Other annotations are not checked.
    """

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {n: vars(cls)[n] for n in cls._fields if n in vars(cls)}
        cls._key = attrgetter(*cls._fields)
        scope = vars(sys.modules[cls.__module__]).items()  # the names the annotations read
        known = {n: c for n, c in scope if isinstance(c, type)}
        known |= {"int": int, "bool": bool, "str": str, "None": type(None)}
        cls._exact = {}
        for name, note in cls.__annotations__.items():
            many = str(note).startswith("tuple[") and note.endswith(", ...]")
            kinds = {
                dict if t.startswith("dict[") and t.endswith(", int]") else known.get(t)
                for t in str(note[6:-6] if many else note).split(" | ")
            }
            if None not in kinds:  # every name in the annotation is known
                cls._exact[name] = (note, kinds, many)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            values = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if (
                len(args) > len(names)
                or values.keys() != set(names)
                or not kwargs.keys().isdisjoint(names[: len(args)])
            ):
                raise TypeError(
                    f"{type(self).__name__} takes the fields {', '.join(names)}, "
                    f"not {len(args)} positional and {sorted(kwargs)} keyword arguments"
                )
            args = [values[n] for n in names]
        for name, value in zip(names, args):
            if name in self._exact:
                note, kinds, many = self._exact[name]
                value = tuple(value) if many else value  # a tuple is returned as it is
                if wrong := ({*map(type, value)} if many else {type(value)}) - kinds:
                    raise TypeError(f"{type(self).__name__}.{name} takes {note}, not {wrong.pop().__name__}")
                if type(value) is dict and (wrong := {*map(type, value.values())} - {int}):
                    raise TypeError(f"{type(self).__name__}.{name} takes {note}, not a {wrong.pop().__name__} value")
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


class IntMatrix(FrozenValue):
    """Immutable row-major integer matrix with exact arithmetic."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != rows*cols = {self.rows * self.cols}"
            )

    @classmethod
    def from_rows(cls, rows: list[list[int]], cols: int | None = None) -> "IntMatrix":
        r = len(rows)
        if r == 0:
            return cls(0, 0 if cols is None else cols, ())
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(chain.from_iterable(rows)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def transpose(self) -> "IntMatrix":
        columns = chain.from_iterable(map(self.column, range(self.cols)))
        return IntMatrix(self.cols, self.rows, tuple(columns))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = _times(self, map(other.row, range(other.rows)), other.cols)
        return IntMatrix(self.rows, other.cols, tuple(chain.from_iterable(out)))

    def apply(self, vec: list[int] | tuple[int, ...]) -> list[int]:
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector length {len(vec)} != cols {self.cols}")
        return [v for v, in _times(self, zip(vec), 1)]

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack needs equal row counts")
        rows = [list(self.row(i)) + list(other.row(i)) for i in range(self.rows)]
        return IntMatrix.from_rows(rows, cols=self.cols + other.cols)

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [json_int(v) for v in self.entries],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "IntMatrix":
        ints = json_list(as_int, "matrix entries")
        rows, cols, entries = json_record(doc, "a matrix", rows=as_int, cols=as_int, entries=ints)
        if max(rows, cols) > MAX_MATRIX_SIDE:
            raise InvalidInput(f"a matrix side is at most {MAX_MATRIX_SIDE}; got {rows} x {cols}")
        return cls(rows, cols, entries)

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<{self.rows}x{self.cols} empty>"
        return "\n".join(" ".join(str(v) for v in self.row(i)) for i in range(self.rows))


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(m.row(i)) for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form


class SnfResult(FrozenValue):
    """Smith normal form M = left @ diag @ right.

    ``diagonal`` holds the min(rows, cols) diagonal entries: the invariant
    factors (each dividing the next) followed by zeros.  ``left`` and
    ``right`` are unimodular; ``left_inv`` and ``right_inv`` are their exact
    inverses (so left_inv @ M @ right_inv is the diagonal matrix).
    ``left_inv`` and ``right`` are replayed from the elimination's
    operation log onto identities; ``right_inv`` is V, pivot columns first.
    ``left`` is read off M V: its pivot columns are M V e_j / |p|, and only
    its other columns are replayed.  The lattice helpers build none of the four.
    """

    diagonal: tuple[int, ...]
    left: IntMatrix
    right: IntMatrix
    left_inv: IntMatrix
    right_inv: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def diag_matrix(self) -> IntMatrix:
        r, c = self.left.rows, self.right.rows
        ents = [0] * (r * c)
        for i, d in enumerate(self.diagonal):
            ents[i * c + i] = d
        return IntMatrix(r, c, tuple(ents))

    def cokernel(self) -> "FgAbGroup":
        """Z^rows / (column span of M), in canonical form."""
        return _cokernel(self.left.rows, self.diagonal)


def _cokernel(rows: int, diag: tuple[int, ...]) -> "FgAbGroup":
    """Z^rows modulo a Smith diagonal, whose factors already form a chain."""
    rank = sum(1 for d in diag if d)
    return FgAbGroup(rows - rank, tuple(d for d in diag if d > 1))


def _sparse_rows(m: IntMatrix) -> list[dict[int, int]]:
    """Rows of ``m`` as {column: value} dicts of the nonzero entries."""
    c, ents = m.cols, m.entries
    return [{j: v for j, v in enumerate(ents[i * c : (i + 1) * c]) if v} for i in range(m.rows)]


def _units(n: int, picked) -> list[list[int]]:
    """The unit vectors e_c of length n for c in ``picked``, as rows of
    coordinates: row r holds coordinate r of each."""
    rows = [[0] * len(picked) for _ in range(n)]
    for k, c in enumerate(picked):
        rows[c][k] = 1
    return rows


def _replay(ops, rows: list[list[int]]) -> list[list[int]]:
    """Apply rows[k] -= q * rows[i] for each (k, i, q) of ``ops``, in order:
    row k holds coordinate k of every vector being transformed."""
    for k, i, q in ops:
        rows[k] = [a - q * b for a, b in zip(rows[k], rows[i])]
    return rows


def _v_times(cops, rows: list[list[int]]) -> list[list[int]]:
    """Rows of V X, from the rows of X (consumed), V the product of the
    column operations of ``cops``: replayed last first."""
    return _replay([(j, l, q) for l, j, q in reversed(cops)], rows)


def _times(m: IntMatrix, w, width: int) -> list[list[int]]:
    """Rows of M W, from the rows of W, of which the first ``width`` entries
    are read; ``@`` and ``apply`` multiply here too.  A nonzero entry of W
    meets only the nonzero entries of one column of M, so only a dense M
    and W cost rows * cols * width products."""
    out = [[0] * width for _ in range(m.rows)]
    for col, wc in zip(map(m.column, range(m.cols)), w):
        nonzero = [(out[i], col[i]) for i in compress(range(m.rows), col)]
        for k in compress(range(width), wc):
            for row, a in nonzero:
                row[k] += a * wc[k]
    return out


def _eliminate(rows: list[dict[int, int]], ncols: int):
    """Sparse Smith elimination: the one core behind every SNF caller.

    ``rows`` (consumed) holds the nonzero entries.  Each pivot is an entry
    of least absolute value, units first, with ties going to the least
    Markowitz cost (row nonzeros - 1) * (column nonzeros - 1), which bounds
    fill-in, then to the least row.  Row operations clear the pivot column;
    column operations then clear the pivot row and touch no other working
    entry.  A remainder smaller than the pivot becomes the next pivot
    (Euclid); so does one from a row added to the pivot row when the pivot
    fails to divide it.  The matrix ends as a scattered diagonal whose
    pivots, in order, already form a divisibility chain.

    Returns the min(rows, cols) diagonal (units, chain, zeros), the pivots
    (row, column, signed pivot) and two operation logs, (k, i, q) for
    row k -= q * row i and (l, j, q) for col l -= q * col j.  With U and V
    the products of the row and column operations, U M V is the scattered
    diagonal; callers replay the logs onto just the vectors they read.
    """
    nrows = len(rows)
    cols: list[set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    rops: list[tuple[int, int, int]] = []
    cops: list[tuple[int, int, int]] = []

    def row_sub(k: int, i: int, q: int) -> None:  # row k -= q * row i
        if q == 0:  # sparse rows never store a zero
            return
        rk = rows[k]
        dirty.add(k)
        rops.append((k, i, q))
        for l, v in rows[i].items():
            w = rk.get(l)
            if w is None:
                rk[l] = -q * v
                cols[l].add(k)
            elif w := w - q * v:
                rk[l] = w
            else:
                del rk[l]
                cols[l].discard(k)

    def best_in(i: int) -> tuple[int, int, int]:  # (|v|, Markowitz cost, column)
        n = len(rows[i]) - 1
        return min((v if v > 0 else -v, n * (len(cols[j]) - 1), j) for j, v in rows[i].items())

    # keys hold every nonzero row, in row order, and an emptied row is never
    # refilled; keys of rows untouched by a step may be stale, and the chosen
    # row is re-keyed.  The heap holds (keys[i], i) for each keyed row, and outdated entries.
    keys = {i: best_in(i) for i in range(nrows) if rows[i]}
    heap = [(key, i) for i, key in keys.items()]
    heapify(heap)
    pivots = []
    shown = 1  # divides every remaining entry, and operations keep it so
    while keys:
        key, i = heap[0]
        if keys.get(i) != key:
            heappop(heap)
            continue
        key = best_in(i)
        if key != keys[i]:
            keys[i] = key
            heappush(heap, (key, i))
            continue
        j = key[2]
        dirty: set[int] = set()
        while True:
            p = rows[i][j]
            stray = None
            for k in [k for k in cols[j] if k != i]:
                v = rows[k][j]
                row_sub(k, i, (2 * v + p) // (2 * p))
                if j in rows[k] and (stray is None or abs(rows[k][j]) < abs(rows[stray][j])):
                    stray = k
            if stray is not None:
                i = stray
                continue
            row = rows[i]
            for l in [l for l in row if l != j]:
                v = row[l]
                q = (2 * v + p) // (2 * p)
                if q:
                    cops.append((l, j, q))
                if v != q * p:
                    row[l] = v - q * p
                    if stray is None or abs(row[l]) < abs(row[stray]):
                        stray = l
                else:
                    del row[l]
                    cols[l].discard(i)
            if stray is None and p not in (shown, -shown):
                # p must divide every remaining entry, or the chain breaks
                stray = next((k for k in keys if any(v % p for v in rows[k].values())), None)
                if stray is None:
                    shown = abs(p)
                    break
                row_sub(i, stray, -1)
                continue
            if stray is None:
                break
            j = stray
        pivots.append((i, j, p))
        rows[i] = {}
        cols[j] = set()
        dirty.add(i)
        for k in dirty:
            if rows[k]:
                keys[k] = best_in(k)
                heappush(heap, (keys[k], k))
            else:
                keys.pop(k, None)

    diag = tuple(abs(p) for _, _, p in pivots)
    return diag + (0,) * (min(nrows, ncols) - len(diag)), pivots, rops, cops


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns diagonal entries satisfying the divisibility chain d1 | d2 | ...
    (then zeros) together with unimodular transforms reconstructing the
    input as left @ diag @ right.  See :func:`_eliminate` for the pivot
    strategy; exactness is the contract.  A shape whose transforms would
    hold more than ``MAX_TRANSFORM_ENTRIES`` entries is refused.
    """
    if m.rows**2 + m.cols**2 > MAX_TRANSFORM_ENTRIES:
        raise InvalidInput(
            f"the transforms of a {m.rows} x {m.cols} matrix exceed {MAX_TRANSFORM_ENTRIES} entries"
        )
    diag, pivots, rops, cops = _eliminate(_sparse_rows(m), m.cols)
    # rows of left_inv and right
    li = _replay(rops, _units(m.rows, range(m.rows)))
    rr = _replay([(j, l, -q) for l, j, q in cops], _units(m.cols, range(m.cols)))
    for i, _, p in pivots:
        if p < 0:
            li[i] = [-a for a in li[i]]
    rperm = list(dict.fromkeys([*(i for i, _, _ in pivots), *range(m.rows)]))
    cperm = list(dict.fromkeys([*(j for _, j, _ in pivots), *range(m.cols)]))
    ri = _v_times(cops, _units(m.cols, cperm))  # rows of right_inv, which starts with V e_j over the pivots
    # left is U^-1 with column i negated where row i of left_inv is: it starts
    # with M V e_j / |p| over the pivots (i, j, p), since U M V e_j = p e_i,
    # then U^-1 e_f for the other rows f, the inverse row operations last first
    free = rperm[len(pivots) :]
    rest = _replay([(k, i, -q) for k, i, q in reversed(rops)] if free else (), _units(m.rows, free))
    scale = [abs(p) for _, _, p in pivots]
    left = [[*map(floordiv, mv, scale), *f] for mv, f in zip(_times(m, ri, len(pivots)), rest)]
    return SnfResult(
        diagonal=diag,
        left=IntMatrix.from_rows(left, cols=m.rows),
        right=IntMatrix.from_rows([rr[j] for j in cperm], cols=m.cols),
        left_inv=IntMatrix.from_rows([li[i] for i in rperm], cols=m.rows),
        right_inv=IntMatrix.from_rows(ri, cols=m.cols),
    )


def matrix_rank(m: IntMatrix) -> int:
    return sum(1 for d in _eliminate(_sparse_rows(m), m.cols)[0] if d)


def integer_kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the integer solution lattice of M x = 0, as columns."""
    _, pivots, _, cops = _eliminate(_sparse_rows(m), m.cols)
    free = sorted({*range(m.cols)} - {j for _, j, _ in pivots})
    return IntMatrix.from_rows(_v_times(cops, _units(m.cols, free)), cols=len(free))


def image_lattice_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the lattice spanned by the columns of M, as columns."""
    _, pivots, _, cops = _eliminate(_sparse_rows(m), m.cols)
    # M V e_j for the pivots (i, j, p), which is U^-1 (p e_i) since U M V e_j = p e_i
    basis = _times(m, _v_times(cops, _units(m.cols, [j for _, j, _ in pivots])), len(pivots))
    return IntMatrix.from_rows(basis, cols=len(pivots))


def solve_integer(m: IntMatrix, b: list[int] | tuple[int, ...]) -> list[int] | None:
    """One integer solution x of M x = b, or None if none exists."""
    if len(b) != m.rows:
        raise DimensionMismatch(f"vector length {len(b)} != rows {m.rows}")
    _, pivots, rops, cops = _eliminate(_sparse_rows(m), m.cols)
    # U M V is the scattered diagonal D, so x = V z with D z = U b
    y = [v for v, in _replay(rops, [[v] for v in b])]
    z = [[0] for _ in range(m.cols)]
    for i, j, p in pivots:
        z[j][0], y[i] = divmod(y[i], p)
    if any(y):  # a remainder, or U b off the pivot rows
        return None
    return [v for v, in _v_times(cops, z)]


def lattice_quotient(span_gens: IntMatrix, sub_gens: IntMatrix) -> "FgAbGroup":
    """L / S for the lattices generated by the given column sets.

    Every column of ``sub_gens`` must lie in the lattice L spanned by
    ``span_gens`` (raises NotASublattice otherwise).  The result is the
    quotient group in canonical form.
    """
    if span_gens.rows != sub_gens.rows:
        raise DimensionMismatch("lattice generators live in different ambient ranks")
    _, pivots, rops, _ = _eliminate(_sparse_rows(span_gens), span_gens.cols)
    # L has the basis U^-1 (p * e_i) over the pivots (i, j, p), so b lies in
    # L exactly when U b vanishes off the pivot rows and p | (U b)_i
    y = _replay(rops, [list(sub_gens.row(k)) for k in range(sub_gens.rows)])
    rows: list[dict[int, int]] = []
    for i, _, p in pivots:
        rows.append({j: v // p for j, v in enumerate(y[i]) if v})
        y[i] = [v % p for v in y[i]]
    if any(map(any, y)):
        raise NotASublattice("generator not contained in the ambient lattice")
    return _cokernel(len(pivots), _eliminate(rows, sub_gens.cols)[0])


# ---------------------------------------------------------------------------
# Finitely generated abelian groups


def _coprime_base(values) -> list[int]:
    """Pairwise coprime b > 1 whose powers multiply to each value (> 1): two
    with gcd g > 1 split into g and the cofactors, so the product falls."""
    base: list[int] = []
    todo = list(values)
    while todo:
        x = todo.pop()
        for n, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[n]
                todo += [t for t in (g, x // g, b // g) if t > 1]
                break
        else:
            base.append(x)
    return base


# the factors each op lists once per free summand of the other group, besides
# the gcds of the factor pairs: (A's, B's)
_REPEATED = {"tensor": (1, 1), "tor": (0, 0), "hom": (0, 1), "ext": (1, 0)}


def check_listed(what: str, ops, ra: int, ta: int, rb: int, tb: int) -> None:
    """Raise InvalidInput, naming ``what``, if the ``ops`` of A and B list
    more than MAX_INVARIANT_FACTORS torsion factors before they canonicalize,
    A of rank ra with ta invariant factors and B of rank rb with tb.  Each op
    lists ta * tb gcds and the factors ``_REPEATED`` names.  The count is
    bilinear, so summed ranks and lengths count every pair of several groups."""
    count = sum(ta * tb + _REPEATED[op][0] * ta * rb + _REPEATED[op][1] * tb * ra for op in ops)
    if count > MAX_INVARIANT_FACTORS:
        raise InvalidInput(f"{what} lists {count} torsion factors, past {MAX_INVARIANT_FACTORS}")


def _listed(op: str, a: "FgAbGroup", b: "FgAbGroup") -> list[int]:
    """The torsion ``op`` of A and B lists before canonicalizing, after
    :func:`check_listed` passed its length: the repeated factors, then
    gcd(x, y) over the factors x of A and y of B."""
    x, y = a.invariant_factors, b.invariant_factors
    check_listed(op, (op,), a.rank, len(x), b.rank, len(y))
    rx, ry = _REPEATED[op]
    return [*(y * a.rank if ry and y else ()), *(x * b.rank if rx and x else ()), *(gcd(u, v) for u in x for v in y)]


class FgAbGroup(FrozenValue):
    """Finitely generated abelian group in invariant-factor canonical form.

    ``rank`` counts the free Z summands; ``invariant_factors`` is the
    torsion chain (each >= 2, each dividing the next).  The constructor
    rejects non-canonical input; use :meth:`from_divisors` to canonicalize
    an arbitrary list of cyclic orders.
    """

    rank: int = 0
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        prev = None
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2; canonicalize with from_divisors")
            if prev is not None and d % prev:
                raise ValueError(f"broken divisibility chain: {prev} does not divide {d}")
            prev = d

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "FgAbGroup":
        """Z/n, with Z/0 = Z and Z/1 = 0."""
        return cls.from_divisors(n)

    @classmethod
    def from_divisors(cls, *divisors: int) -> "FgAbGroup":
        """Canonicalize (+) Z/d over the given orders.

        Zeros become free summands, units are dropped, signs are ignored,
        and the remaining torsion is merged into a divisibility chain in
        one pass over a coprime base of the orders (see :meth:`_canonical`).
        """
        require_ints("divisors", *divisors)
        return cls._canonical(divisors.count(0), map(abs, divisors))

    @classmethod
    def _canonical(cls, rank: int, orders) -> "FgAbGroup":
        """Z^rank plus the cyclic groups of the given positive orders: the
        k-th largest invariant factor takes each b of a coprime base of the
        orders to its k-th largest exponent among them.  Nothing is factored."""
        counts = Counter(d for d in orders if d > 1)
        tors: list[int] = []  # largest first
        for b in _coprime_base(counts):
            exps = []
            for d, c in counts.items():
                e = 0
                while d % b == 0:
                    d //= b
                    e += 1
                if e:
                    exps += [e] * c
            exps.sort(reverse=True)
            tors += [1] * (len(exps) - len(tors))
            tors[: len(exps)] = [t * b**e for t, e in zip(tors, exps)]
        return cls(rank, tuple(reversed(tors)))

    # -- structure -----------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.invariant_factors

    def primary_decomposition(self) -> tuple[int, ...]:
        """Prime-power cyclic orders (for display); rank is unchanged.  Trial
        division runs below 2**16, and a cofactor left above that must be prime:
        a product of larger primes, or a power of one, raises InvalidInput."""
        out: list[int] = []
        for d in self.invariant_factors:
            f = 2
            while f * f <= d and f < 2**16:
                if d % f == 0:
                    q = 1
                    while d % f == 0:
                        d //= f
                        q *= f
                    out.append(q)
                f += 1
            if f * f <= d and not is_prime(d):
                raise InvalidInput(f"{d} is not prime and has no prime factor below 2**16 to split off")
            if d > 1:
                out.append(d)
        return tuple(sorted(out))

    # -- operations ------------------------------------------------------

    def direct_sum(self, other: "FgAbGroup") -> "FgAbGroup":
        """A (+) B: ranks add, torsion re-canonicalized into a chain."""
        tors = self.invariant_factors + other.invariant_factors
        return FgAbGroup._canonical(self.rank + other.rank, tors)

    def repeated_sum(self, copies: int) -> "FgAbGroup":
        """Direct sum of ``copies`` copies of this group: its tensor with Z^copies."""
        return self.tensor(FgAbGroup.free(copies))

    def tensor(self, other: "FgAbGroup") -> "FgAbGroup":
        """A (x) B over Z.

        Bilinear over direct sums with Z (x) G = G and
        Z/a (x) Z/b = Z/gcd(a, b).
        """
        return FgAbGroup._canonical(self.rank * other.rank, _listed("tensor", self, other))

    def tor(self, other: "FgAbGroup") -> "FgAbGroup":
        """Tor_1(A, B): vanishes against free groups, Z/gcd on cyclic pairs."""
        return FgAbGroup._canonical(0, _listed("tor", self, other))

    def hom(self, other: "FgAbGroup") -> "FgAbGroup":
        """Hom(A, B): Hom(Z, G) = G, Hom(Z/a, Z) = 0, Hom(Z/a, Z/b) = Z/gcd."""
        return FgAbGroup._canonical(self.rank * other.rank, _listed("hom", self, other))

    def ext(self, other: "FgAbGroup") -> "FgAbGroup":
        """Ext^1(A, B): Ext(Z, G) = 0, Ext(Z/a, Z) = Z/a, Ext(Z/a, Z/b) = Z/gcd."""
        return FgAbGroup._canonical(0, _listed("ext", self, other))

    def is_isomorphic(self, other: "FgAbGroup") -> bool:
        """True exactly when canonical forms agree field by field."""
        return self == other

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rank": json_int(self.rank),
            "torsion": [json_int(d) for d in self.invariant_factors],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FgAbGroup":
        return cls(*json_record(doc, "a group", rank=as_int, torsion=(json_list(as_int, "group torsion"), ())))

    def __str__(self) -> str:
        parts: list[str] = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts += [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Homology of chain complexes


def homology_of_complex(boundaries: list[IntMatrix]) -> list[FgAbGroup]:
    """Homology groups of an integer chain complex.

    ``boundaries[m]`` is the map from (m+1)-chains to m-chains, so the
    complex has len(boundaries) + 1 degrees; a complex concentrated in a
    single degree k is expressed by a k x 0 boundary.  Returns H_m in
    canonical form for every degree.

    One pass along the complex: with U A V = D the elimination of the
    previous boundary A (as presented on the cycles below it), replaying
    its column log onto the rows of the next boundary B gives V^-1 B.
    D V^-1 B = U A B, so the rows of V^-1 B at A's pivot columns vanish
    exactly when A B = 0 (NotAComplex otherwise), and the other rows
    present B on the cycles of A.  So

        H_m = Z^(cycles_m - rank d_(m+1))  (+)  torsion(d_(m+1) on cycles_m),

    the top degree is Z^cycles, and every elimination runs through
    :func:`_eliminate`, building no transforms.
    """
    groups: list[FgAbGroup] = []
    pivots: list[tuple[int, int, int]] = []
    cops: list[tuple[int, int, int]] = []
    for m, b in enumerate(boundaries):
        if m and b.rows != boundaries[m - 1].cols:
            raise DimensionMismatch(
                f"boundary {m + 1} has {b.rows} rows but boundary "
                f"{m} has {boundaries[m - 1].cols} columns"
            )
        rows = _sparse_rows(b)
        for l, j, q in cops:  # row j += q * row l undoes col l -= q * col j
            rl, rj = rows[l], rows[j]
            for c, v in rl.items():
                w = rj.get(c, 0) + q * v
                if w:
                    rj[c] = w
                else:
                    del rj[c]
        bounded = {j for _, j, _ in pivots}
        if any(rows[j] for j in bounded):
            raise NotAComplex(f"boundary {m} o boundary {m + 1} is nonzero")
        rows = [row for j, row in enumerate(rows) if j not in bounded]
        diag, pivots, _, cops = _eliminate(rows, b.cols)
        groups.append(_cokernel(len(rows), diag))
    if boundaries:
        groups.append(FgAbGroup.free(boundaries[-1].cols - len(pivots)))
    return groups


def cohomology_of_cochain_complex(coboundaries: list[IntMatrix]) -> list[FgAbGroup]:
    """Cohomology of a cochain complex (differentials raise the degree).

    ``coboundaries[m]`` maps degree-m cochains to degree-(m+1) cochains.
    Reading the complex backwards turns it into a chain complex, so this is
    a thin wrapper over :func:`homology_of_complex`.
    """
    return list(reversed(homology_of_complex(list(reversed(coboundaries)))))


def dual_complex(boundaries: list[IntMatrix]) -> list[IntMatrix]:
    """Transpose a chain complex into the Hom(-, Z) cochain complex."""
    return [b.transpose() for b in boundaries]
