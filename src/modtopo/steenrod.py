"""Axiom-driven Steenrod operations on presented mod-p cohomology rings.

A ring is described by a :class:`ModPRingPresentation`: a prime p,
graded generators, homogeneous relations, and a table of operation values
on generators.  Elements are kept in a unique normal form (coefficients
mod p, monomials reduced by the relations under degree-lexicographic
order), so equality is decidable and the axioms can be checked literally.

The operations are evaluated from the axioms alone:

    Sq^0 = 1,   Sq^k x = 0 for deg x < k,   Sq^k x = x^2 for deg x = k,
    Sq^k(xy) = sum over i+j=k of Sq^i(x) Sq^j(y)              (p = 2),

and for odd p the powers St^k raising degree by 2k(p-1) with the same
shape (zero below degree 2k, p-th power at degree 2k, Cartan on
products).  Both are one Cartan recursion, parametrized by the index
weight w (1 at p = 2, 2 at odd p: the operation of index k vanishes on
degrees below wk).  Where the axioms do not force a generator value the
table must supply it; a missing value raises Undetermined rather than
guessing.  The Bockstein is Sq^1 at p = 2 and extends supplied generator
values by the signed Leibniz rule at odd p; the integral obstruction class
in degree 3 is the Bockstein of the degree-2 class (w3_from_w2).

Topology enters only through the generator tables; there is no
chain-level construction here, and no relations between the operations
beyond the listed axioms are assumed or checked.

For odd p the ring is graded-commutative: odd-degree generators
anticommute and square to zero; at p = 2 everything commutes strictly.
"""

from __future__ import annotations

import heapq
import itertools
from operator import add, le, mul, sub

from .abgroup import FrozenValue, as_int, is_prime, json_shape, require_ints
from .errors import (
    Inhomogeneous,
    NotModTwo,
    NotOddPrime,
    Undetermined,
    WrongDegree,
)

Mono = tuple[int, ...]
Poly = dict[Mono, int]


class AxiomViolation(FrozenValue):
    """One failed identity, with both computed sides rendered."""

    kind: str
    detail: str
    lhs: str = ""
    rhs: str = ""

    def __str__(self) -> str:
        core = f"{self.kind}: {self.detail}"
        if self.lhs or self.rhs:
            core += f" [{self.lhs} != {self.rhs}]"
        return core


def _memoized(cache: dict, key, step) -> Poly:
    """``cache[key]``, computed by the generator ``step(key)`` on a miss.

    A step yields the keys whose values it needs, receives each value,
    and returns its own.  Steps that wait on one another stand on an
    explicit stack, so a recursion that peels one generator factor per
    level needs no interpreter frame per level; the steps run in the
    order the recursive calls would, so values, memo entries and the
    first exception raised are the recursion's.
    """
    value = cache.get(key)
    stack = [] if value is not None else [(key, step(key))]
    while stack:
        key, frame = stack[-1]
        try:
            need = frame.send(value)
        except StopIteration as done:
            stack.pop()
            cache[key] = value = done.value
            continue
        value = cache.get(need)
        if value is None:
            stack.append((need, step(need)))
    return value


class ModPRingPresentation:
    """Generators, relations, and operation values of a mod-p ring.

    ``generators`` is a sequence of (name, positive degree).  Relations
    are raw polynomials: lists of (coefficient, {name: exponent}) terms.
    ``operations`` maps generator values of the non-forced operations,
    keyed by ("Sq", k, name), ("St", k, name) or ("beta", name); a prime
    of 2 only admits Sq/beta entries and an odd prime only St/beta.
    Construction is permissive about the degrees of supplied values so
    that :func:`verify_axioms` can report them; everything else is
    validated eagerly.  Instances are immutable after construction.
    """

    def __init__(self, p, generators, relations=(), operations=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = int(p)
        names = [str(n) for n, _ in generators]
        degrees = [d for _, d in generators]
        require_ints("generator degrees", *degrees)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        if any(d < 1 for d in degrees):
            raise ValueError("generator degrees must be >= 1")
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self._index = {n: i for i, n in enumerate(names)}
        two = self.p == 2
        # Sq^k and St^k differ only in these: the operation of index k
        # vanishes below degree weight * k and raises degree by step * k
        self.op_name = "Sq" if two else "St"
        self.weight = 1 if two else 2
        self.step = 1 if two else 2 * (self.p - 1)
        # generators that anticommute and square to zero (odd p only)
        self._odd = () if two else tuple(i for i, d in enumerate(degrees) if d % 2)
        self.raw_relations = tuple(self._compile(r) for r in relations)
        self.ops: dict[tuple[str, int, int], Poly] = {}
        for key, value in (operations or {}).items():
            self.ops[self._op_key(key)] = self._compile(value)
        self._rules = self._compile_rules()
        self._gen_values: dict[tuple[int, int], Poly] = {}
        self._op_cache: dict[tuple[int, Mono], Poly] = {}
        self._beta_cache: dict[Mono, Poly] = {}

    # -- input normalization ---------------------------------------------

    def _op_key(self, key) -> tuple[str, int, int]:
        if len(key) == 2:
            kind, name = key
            k = 1
        else:
            kind, k, name = key
        kind = str(kind).lower()
        if kind not in ("sq", "st", "beta"):
            raise ValueError(f"unknown operation kind {kind!r}")
        if kind == "sq" and self.p != 2:
            raise NotModTwo("Sq entries require p = 2")
        if kind == "st" and self.p == 2:
            raise NotOddPrime("St entries require an odd prime")
        if kind == "beta":
            k = 1
        require_ints("the operation index", k)
        if k < 1:
            raise ValueError("operation index must be >= 1 in the table")
        if name not in self._index:
            raise ValueError(f"unknown generator {name!r}")
        return (kind, k, self._index[name])

    def _compile(self, raw) -> Poly:
        if isinstance(raw, (int, float)):
            require_ints("a zero polynomial", raw)  # 0.0 and False compare equal to 0
        if raw in (0, "0", None):
            return {}
        poly: Poly = {}
        for coeff, powers in raw:
            require_ints("coefficients and exponents", coeff, *powers.values())
            exps = [0] * len(self.names)
            for name, e in powers.items():
                exps[self._index[name]] += e
            if any(exps[i] >= 2 for i in self._odd):
                continue  # odd-degree generators square to zero
            mono = tuple(exps)
            poly[mono] = (poly.get(mono, 0) + coeff) % self.p
        return {m: c for m, c in poly.items() if c}

    def _deglex(self, mono: Mono) -> tuple:
        return (self.mono_degree(mono), mono)

    def _compile_rules(self):
        rules = []
        for rel in self.raw_relations:
            if not rel:
                continue
            lead = max(rel, key=self._deglex)
            inv = pow(rel[lead], -1, self.p)
            rhs = {
                m: (-c * inv) % self.p for m, c in rel.items() if m != lead
            }
            rules.append((lead, {m: c for m, c in rhs.items() if c}))
        rules.sort(key=lambda r: self._deglex(r[0]))
        return tuple(rules)

    # -- monomial arithmetic ------------------------------------------------

    def mono_degree(self, mono: Mono) -> int:
        return sum(map(mul, mono, self.degrees))

    def _mul_mono(self, a: Mono, b: Mono):
        """Product with the graded sign; None when an odd square appears."""
        odd = self._odd
        count = 0
        for pos, j in enumerate(odd):
            if b[j]:
                if a[j]:
                    return 1, None
                count += sum(a[i] for i in odd[pos + 1 :])
        return (-1 if count % 2 else 1), tuple(map(add, a, b))

    def _divides(self, lead: Mono, mono: Mono) -> bool:
        return all(map(le, lead, mono))

    def _rewrite(self, lead: Mono, rhs: Poly, mono: Mono) -> Poly:
        """``mono`` with the rule lead -> rhs applied once, unreduced."""
        rest = tuple(map(sub, mono, lead))
        ksign, _ = self._mul_mono(lead, rest)
        return self._mul_into({}, rhs, {rest: 1}, ksign)

    def reduce(self, poly: Poly) -> Poly:
        """Rewrite to the unique normal form under the relation rules."""
        p = self.p
        work = {m: c % p for m, c in poly.items() if c % p}
        if not self._rules:
            return work
        # Leading monomials first, from a heap keyed once per monomial: a
        # rule's right-hand side is below its lead in deg-lex order, so a
        # rewrite only adds monomials below the one it removes.
        degree = self.mono_degree

        def key(m: Mono) -> tuple:
            return (-degree(m), tuple(-e for e in m), m)

        heap = [key(m) for m in work]
        heapq.heapify(heap)
        out: Poly = {}
        while heap:
            mono = heapq.heappop(heap)[2]
            coeff = work.pop(mono, 0)
            if not coeff:
                continue  # cancelled after it was queued
            for lead, rhs in self._rules:
                if self._divides(lead, mono):
                    break
            else:
                out[mono] = coeff
                continue
            for prod, rc in self._rewrite(lead, rhs, mono).items():
                old = work.get(prod)
                c = ((old or 0) + coeff * rc) % p
                if c:
                    work[prod] = c
                    if old is None:
                        heapq.heappush(heap, key(prod))
                elif old is not None:
                    del work[prod]
        return out

    def _mul_into(self, out: Poly, a: Poly, b: Poly, scale: int = 1) -> Poly:
        """Add scale * a * b to ``out`` term by term, without reducing."""
        mul_mono = self._mul_mono
        for ma, ca in a.items():
            ca *= scale
            for mb, cb in b.items():
                sign, prod = mul_mono(ma, mb)
                if prod is not None:
                    out[prod] = out.get(prod, 0) + sign * ca * cb
        return out

    def poly_mul(self, a: Poly, b: Poly) -> Poly:
        return self.reduce(self._mul_into({}, a, b))

    def poly_add(self, a: Poly, b: Poly) -> Poly:
        out = dict(a)
        for m, c in b.items():
            v = (out.get(m, 0) + c) % self.p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return out

    def poly_scale(self, a: Poly, c: int) -> Poly:
        c %= self.p
        return {m: (v * c) % self.p for m, v in a.items() if (v * c) % self.p}

    def _linear(self, poly: Poly, value) -> Poly:
        """The sum of c * value(m) over the terms c * m of ``poly``."""
        out: Poly = {}
        for m, c in poly.items():
            for vm, vc in value(m).items():
                out[vm] = out.get(vm, 0) + c * vc
        p = self.p
        return {m: c % p for m, c in out.items() if c % p}

    # -- elements -----------------------------------------------------------

    def zero(self) -> "RingElement":
        return RingElement(self, {})

    def unit(self) -> "RingElement":
        return RingElement(self, self.reduce({(0,) * len(self.names): 1}))

    def gen(self, name: str) -> "RingElement":
        exps = [0] * len(self.names)
        exps[self._index[name]] = 1
        return RingElement(self, self.reduce({tuple(exps): 1}))

    def element(self, raw) -> "RingElement":
        return RingElement(self, self.reduce(self._compile(raw)))

    def mono_str(self, mono: Mono) -> str:
        parts = []
        for name, e in zip(self.names, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def poly_str(self, poly: Poly) -> str:
        if not poly:
            return "0"
        terms = sorted(poly.items(), key=lambda it: self._deglex(it[0]), reverse=True)
        rendered = []
        for m, c in terms:
            ms = self.mono_str(m)
            if c == 1:
                rendered.append(ms)
            elif ms == "1":
                rendered.append(str(c))
            else:
                rendered.append(f"{c}*{ms}")
        return " + ".join(rendered)

    # -- generator-level operation values ------------------------------------

    def _power_mono(self, idx: int, e: int) -> Mono:
        return tuple(e if i == idx else 0 for i in range(len(self.names)))

    def _gen_value(self, k: int, idx: int) -> Poly:
        """Sq^k (p = 2) or St^k (odd p) of a generator, memoized."""
        key = (k, idx)
        hit = self._gen_values.get(key)
        if hit is not None:
            return hit
        d = self.degrees[idx]
        if k == 0:
            out = self.reduce({self._power_mono(idx, 1): 1})
        elif self.weight * k > d:
            out = {}
        elif self.weight * k == d:  # the square, or the p-th power
            out = self.reduce({self._power_mono(idx, self.p): 1})
        else:
            value = self.ops.get((self.op_name.lower(), k, idx))
            if value is None:
                raise Undetermined(
                    f"{self.op_name}^{k} on generator {self.names[idx]!r} "
                    f"(degree {d}) is neither axiom-forced nor supplied"
                )
            out = self.reduce(value)
        self._gen_values[key] = out
        return out

    def _beta_gen(self, idx: int) -> Poly:
        value = self.ops.get(("beta", 1, idx))
        if value is None:
            raise Undetermined(
                f"beta on generator {self.names[idx]!r} is not supplied"
            )
        return self.reduce(value)

    # -- operation evaluation on monomials (Cartan recursion) -----------------

    def _split(self, mono: Mono):
        idx = next(i for i, e in enumerate(mono) if e)
        rest = mono[:idx] + (mono[idx] - 1,) + mono[idx + 1 :]
        return idx, rest

    def op_mono(self, k: int, mono: Mono) -> Poly:
        """Sq^k (p = 2) or St^k (odd p) of a monomial, memoized."""
        return _memoized(self._op_cache, (k, mono), self._op_step)

    def _op_step(self, key):
        k, mono = key
        if k == 0:
            return self.reduce({mono: 1})
        if not any(mono):
            return {}
        idx, rest = self._split(mono)
        acc: Poly = {}
        # Cartan, with the terms that vanish on the generator left out
        for i in range(min(k, self.degrees[idx] // self.weight) + 1):
            partner = yield (k - i, rest)
            if partner:  # keep undetermined values lazy
                self._mul_into(acc, self._gen_value(i, idx), partner)
        return self.reduce(acc)

    def beta_mono(self, mono: Mono) -> Poly:
        return _memoized(self._beta_cache, mono, self._beta_step)

    def _beta_step(self, mono: Mono):
        if not any(mono):
            return {}
        idx, rest = self._split(mono)
        acc = self._mul_into({}, self._beta_gen(idx), self.reduce({rest: 1}))
        sign = -1 if self.degrees[idx] % 2 else 1
        gen = self.reduce({self._power_mono(idx, 1): 1})
        return self.reduce(self._mul_into(acc, gen, (yield rest), sign))

    # -- monomial enumeration -------------------------------------------------

    def monomials_up_to(self, max_degree: int, normal_only: bool = True):
        """All monomials of degree <= max_degree, unit included."""
        ranges = []
        for i, d in enumerate(self.degrees):
            cap = max_degree // d
            if i in self._odd:
                cap = min(cap, 1)  # odd-degree generators square to zero
            ranges.append(range(cap + 1))
        for exps in itertools.product(*ranges):
            if self.mono_degree(exps) > max_degree:
                continue
            if normal_only and any(
                self._divides(lead, exps) for lead, _ in self._rules
            ):
                continue
            yield exps

    # -- serialization ----------------------------------------------------------

    def poly_to_json(self, poly: Poly) -> list:
        items = sorted(poly.items(), key=lambda it: self._deglex(it[0]))
        return [
            {
                "coeff": c,
                "monomial": {
                    self.names[i]: e for i, e in enumerate(m) if e
                },
            }
            for m, c in items
        ]

    @staticmethod
    def poly_from_json(items) -> list:
        out = []
        for term in json_shape(items, list, "a polynomial"):
            json_shape(term, dict, "a term")
            mono = json_shape(term.get("monomial", {}), dict, "a monomial")
            out.append((as_int(term["coeff"]), {name: as_int(e) for name, e in mono.items()}))
        return out

    def to_json(self) -> dict:
        ops = []
        for (kind, k, idx), value in sorted(self.ops.items()):
            label = "beta" if kind == "beta" else f"{kind.capitalize()}{k}"
            ops.append(
                {
                    "op": label,
                    "gen": self.names[idx],
                    "value": self.poly_to_json(value),
                }
            )
        return {
            "p": self.p,
            "generators": [
                {"name": n, "degree": d} for n, d in zip(self.names, self.degrees)
            ],
            "relations": [self.poly_to_json(r) for r in self.raw_relations],
            "ops": ops,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ModPRingPresentation":
        json_shape(doc, dict, "a presentation")
        gens = []
        for g in json_shape(doc["generators"], list, "generators"):
            json_shape(g, dict, "a generator")
            gens.append((g["name"], as_int(g["degree"])))
        rels = [cls.poly_from_json(r) for r in json_shape(doc.get("relations", ()), list, "relations")]
        ops = {}
        for entry in json_shape(doc.get("ops", ()), list, "operation values"):
            json_shape(entry, dict, "an operation value")
            gen = entry["gen"]
            if not isinstance(gen, str):
                raise ValueError(f"unknown generator {gen!r}")
            ops[(*parse_op_label(entry["op"]), gen)] = cls.poly_from_json(entry["value"])
        return cls(as_int(doc["p"]), gens, rels, ops)


def parse_op_label(label) -> tuple[str, int]:
    """("beta", 1) for "beta", and ("sq", k) or ("st", k) for "Sq<k>" or
    "St<k>" in any case; ValueError on any other label."""
    if label == "beta":
        return ("beta", 1)
    if isinstance(label, str) and label[:2].lower() in ("sq", "st"):
        return (label[:2].lower(), int(label[2:]))
    raise ValueError(f"unknown operation label {label!r}")


class RingElement:
    """Normal-form polynomial in a fixed presentation."""

    __slots__ = ("pres", "poly")

    def __init__(self, pres: ModPRingPresentation, poly: Poly):
        self.pres = pres
        self.poly = poly

    @property
    def is_zero(self) -> bool:
        return not self.poly

    @property
    def degree(self) -> int | None:
        """Common degree of the terms; None for the zero element."""
        degs = {self.pres.mono_degree(m) for m in self.poly}
        if not degs:
            return None
        if len(degs) > 1:
            raise Inhomogeneous(f"mixed degrees {sorted(degs)} in {self}")
        return degs.pop()

    def _lift(self, other):
        if isinstance(other, RingElement):
            if other.pres is not self.pres:
                raise ValueError("elements from different presentations")
            return other
        if isinstance(other, int):
            return RingElement(
                self.pres,
                self.pres.poly_scale(self.pres.unit().poly, other),
            )
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.pres, self.pres.poly_add(self.poly, other.poly))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + RingElement(self.pres, self.pres.poly_scale(other.poly, -1))

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement(self.pres, self.pres.poly_scale(self.poly, other))
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.pres, self.pres.poly_mul(self.poly, other.poly))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = self.pres.unit()
        for bit in bin(n)[2:]:  # square and multiply: a prime exponent can have 80 bits
            out = out * out * self if bit == "1" else out * out
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._lift(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.pres is other.pres and self.poly == other.poly

    def __hash__(self):
        return hash((id(self.pres), tuple(sorted(self.poly.items()))))

    def __repr__(self):
        return self.pres.poly_str(self.poly)




# ---------------------------------------------------------------------------
# Operations


def _apply(pres: ModPRingPresentation, k: int | None, poly: Poly) -> Poly:
    """The operation of index k, or the Bockstein for k = None, on a
    polynomial, which must be homogeneous."""
    if len({pres.mono_degree(m) for m in poly}) > 1:
        raise Inhomogeneous(f"{pres.poly_str(poly)} is not homogeneous")
    if k is None:
        return pres._linear(poly, pres.beta_mono)
    return pres._linear(poly, lambda m: pres.op_mono(k, m))


def _power_op(k: int, x: RingElement) -> RingElement:
    if k < 0:
        raise ValueError("operation index must be nonnegative")
    return RingElement(x.pres, _apply(x.pres, k, x.poly))


def sq(k: int, x: RingElement) -> RingElement:
    """Steenrod square Sq^k, raising the degree by k (p = 2 only)."""
    if x.pres.p != 2:
        raise NotModTwo("Sq acts on mod-2 presentations only")
    return _power_op(k, x)


def st(k: int, x: RingElement) -> RingElement:
    """Steenrod power St^k, raising the degree by 2k(p-1) (odd p only)."""
    if x.pres.p == 2:
        raise NotOddPrime("St acts on odd-prime presentations only")
    return _power_op(k, x)


def bockstein(x: RingElement) -> RingElement:
    """Degree-raising Bockstein: Sq^1 at p = 2, Leibniz extension otherwise."""
    return RingElement(x.pres, _apply(x.pres, 1 if x.pres.p == 2 else None, x.poly))


def w3_from_w2(w2: RingElement) -> RingElement:
    """Mod-2 representative of the integral degree-3 obstruction class.

    The input is the degree-2 obstruction class; its Bockstein is the
    degree-3 class whose vanishing makes the space spin.
    """
    if w2.pres.p != 2:
        raise NotModTwo("the obstruction classes live in mod-2 cohomology")
    if not w2.is_zero and w2.degree != 2:
        raise WrongDegree(f"expected a degree-2 class, got degree {w2.degree}")
    return bockstein(w2)


# ---------------------------------------------------------------------------
# Axiom verification

AXIOM_KINDS = ("INSTABILITY", "SQUARING", "BOCKSTEIN", "CARTAN")


class AxiomReport(FrozenValue):
    """Violations of one sweep, and the identities it checked and skipped.

    ``checked`` and ``skipped`` count identities by kind (the keys of
    :data:`AXIOM_KINDS`).  An identity is skipped when evaluating it hits
    an undetermined generator value or an inhomogeneous intermediate; the
    rest of its monomial's (or pair's) identities are then skipped too.
    """

    violations: list[AxiomViolation]
    checked: dict[str, int]
    skipped: dict[str, int]


def _check_table_entries(pres: ModPRingPresentation, out: list[AxiomViolation]):
    for (kind, k, idx), value in sorted(pres.ops.items()):
        name = pres.names[idx]
        d = pres.degrees[idx]
        beta = kind == "beta"
        label = "beta" if beta else f"{pres.op_name}^{k}"
        if value:
            degs = {pres.mono_degree(m) for m in value}
            want = d + (1 if beta else k * pres.step)
            if degs != {want}:
                out.append(
                    AxiomViolation(
                        "DEGREE",
                        f"{label}({name}) must be homogeneous of degree {want}, "
                        f"got degrees {sorted(degs)}",
                    )
                )
        if not beta and pres.weight * k >= d:
            forced = pres._gen_value(k, idx)
            if pres.reduce(value) != forced:
                out.append(
                    AxiomViolation(
                        "TABLE",
                        f"{label}({name}) is axiom-forced but the table disagrees",
                        pres.poly_str(pres.reduce(value)),
                        pres.poly_str(forced),
                    )
                )


def _check_relations(pres: ModPRingPresentation, out: list[AxiomViolation]):
    for rel in pres.raw_relations:
        if not rel:
            continue
        degs = {pres.mono_degree(m) for m in rel}
        if len(degs) > 1:
            out.append(
                AxiomViolation(
                    "DEGREE",
                    f"relation {pres.poly_str(rel)} is not homogeneous "
                    f"(degrees {sorted(degs)})",
                )
            )


def _check_confluence(
    pres: ModPRingPresentation, max_degree: int, out: list[AxiomViolation]
):
    for mono in pres.monomials_up_to(max_degree, normal_only=False):
        hits = [r for r in pres._rules if pres._divides(r[0], mono)]
        if len(hits) < 2:
            continue
        results = {
            tuple(sorted(pres.reduce(pres._rewrite(lead, rhs, mono)).items()))
            for lead, rhs in hits
        }
        if len(results) > 1:
            out.append(
                AxiomViolation(
                    "CONFLUENCE",
                    f"monomial {pres.mono_str(mono)} reduces to different "
                    "normal forms depending on rule order",
                )
            )


def _unary_identities(pres: ModPRingPresentation, m: Mono):
    """Instability, the squaring rule and beta beta = 0 on one monomial, as
    (kind, evaluate) pairs; evaluate() returns (lhs, rhs, detail)."""
    name = pres.mono_str(m)
    two = pres.p == 2
    d = pres.mono_degree(m)
    top = d // pres.weight
    beta = 1 if two else None  # Sq^1 is the Bockstein at p = 2

    def instability(k: int):
        bound = "the degree" if two else "half the degree"
        return pres.op_mono(k, m), {}, f"{pres.op_name}^{k}({name}) should vanish above {bound}"

    def squaring():
        power = (RingElement(pres, {m: 1}) ** pres.p).poly
        what = "square" if two else "p-th power"
        return pres.op_mono(top, m), power, f"{pres.op_name}^{top}({name}) != {what}"

    def beta_beta():
        bb = _apply(pres, beta, _apply(pres, beta, {m: 1}))
        return bb, {}, ("Sq^1 Sq^1" if two else "beta beta") + f" ({name}) != 0"

    out = [("INSTABILITY", lambda k=k: instability(k)) for k in (top + 1, top + 2)]
    if d % pres.weight == 0:
        out.append(("SQUARING", squaring))
    return out + [("BOCKSTEIN", beta_beta)]


def _check_pairs(
    pres: ModPRingPresentation,
    monos: list[Mono],
    max_degree: int,
    out: list[AxiomViolation],
    checked: dict[str, int],
    skipped: dict[str, int],
):
    """Cartan on ma * mb for every index up to one past the top, then (odd
    p) the signed Leibniz rule, for every pair of monomials within the
    degree bound, one pass per pair.

    The operation values of each monomial, and the left sides of each
    product, come from lists kept for the sweep: filled in index order and
    cut at the first undetermined value (a trailing None marks the cut;
    every index past a list's end gives 0).  A pair's identities run in
    index order; the first one that needs a value past a cut is skipped
    with every later identity of the pair.
    """
    w, p = pres.weight, pres.p
    degree = pres.mono_degree
    values: dict[Mono, list] = {}
    products: dict[tuple, tuple] = {}

    def values_of(m: Mono) -> list:
        vals = values.get(m)
        if vals is None:
            vals = values[m] = []
            try:
                for k in range(degree(m) // w + 1):
                    vals.append(pres.op_mono(k, m))
            except Undetermined:
                vals.append(None)
        return vals

    def at(vals: list, k: int) -> Poly:
        return vals[k] if k < len(vals) else {}

    def product_of(mono, sign: int, top: int) -> tuple:
        """The reduced product and its left sides for the indices up to
        ``top``; None for the sides when the product is inhomogeneous."""
        prod = pres.reduce({} if mono is None else {mono: sign})
        if len({degree(m) for m in prod}) > 1:
            return prod, None
        if len(prod) == 1 and 1 in prod.values():  # the sides are the monomial's values
            return prod, values_of(next(iter(prod)))
        lefts = []
        for k in range(top + 1):
            if any(at(values_of(m), k) is None for m in prod):
                return prod, lefts + [None]
            lefts.append(pres._linear(prod, lambda m: at(values_of(m), k)))
        return prod, lefts

    def cut(vals: list, stop: int) -> int:
        """The index of the first undetermined value in ``vals``, if below ``stop``."""
        return len(vals) - 1 if vals[-1] is None and len(vals) <= stop else stop

    degrees = list(map(degree, monos))
    pairs = (
        (ma, da, mb, db)
        for a, (ma, da) in enumerate(zip(monos, degrees))
        for mb, db in zip(monos[a:], degrees[a:])
        if da + db <= max_degree
    )
    for ma, da, mb, db in pairs:
        total = (da + db) // w
        sign, mono = pres._mul_mono(ma, mb)
        key = (mono, sign)
        if key not in products:
            products[key] = product_of(mono, sign, total + 1)
        prod, lefts = products[key]
        if lefts is None:  # an inhomogeneous product: no identity of the pair evaluates
            skipped["CARTAN"] += total + 2
            skipped["BOCKSTEIN"] += p != 2
            continue
        va, vb = values_of(ma), values_of(mb)
        stop = cut(lefts, cut(vb, cut(va, total + 2)))
        # every right-hand side below the stop, bucketed by index
        sides: list[Poly] = [{} for _ in range(stop)]
        for i, fa in enumerate(va[:stop]):
            if fa:
                for j, fb in enumerate(vb[: stop - i]):
                    if fb:
                        pres._mul_into(sides[i + j], fa, fb)
        for k, rhs in enumerate(sides):
            rhs = pres.reduce(rhs)
            lhs = at(lefts, k)
            if lhs != rhs:
                detail = f"{pres.op_name}^{k}({pres.mono_str(ma)} * {pres.mono_str(mb)})"
                out.append(AxiomViolation("CARTAN", detail, pres.poly_str(lhs), pres.poly_str(rhs)))
        checked["CARTAN"] += stop
        if stop < total + 2:
            skipped["CARTAN"] += total + 2 - stop
            skipped["BOCKSTEIN"] += p != 2
            continue
        if p == 2:
            continue
        try:
            lhs = pres._linear(prod, pres.beta_mono)
            rhs = pres._mul_into({}, pres.beta_mono(ma), {mb: 1})
            pres._mul_into(rhs, {ma: 1}, pres.beta_mono(mb), -1 if da % 2 else 1)
        except Undetermined:
            skipped["BOCKSTEIN"] += 1
            continue
        checked["BOCKSTEIN"] += 1
        rhs = pres.reduce(rhs)
        if lhs != rhs:
            detail = f"Leibniz fails on {pres.mono_str(ma)} * {pres.mono_str(mb)}"
            out.append(AxiomViolation("BOCKSTEIN", detail, pres.poly_str(lhs), pres.poly_str(rhs)))


def axiom_report(pres: ModPRingPresentation, max_degree: int) -> AxiomReport:
    """Exhaustively test the operation axioms up to a degree bound.

    Checks, over all normal-form monomials (and pairs) of degree at most
    ``max_degree``: instability and the squaring rule, the Cartan formula
    evaluated on reduced products versus term-by-term (this is what
    catches tables that are inconsistent with the relations), vanishing of
    the composite Bockstein, degree bookkeeping of supplied values, and
    confluence of the rewriting rules.  Identities that hit an
    Undetermined generator value are skipped and counted, not reported.
    """
    out: list[AxiomViolation] = []
    _check_table_entries(pres, out)
    _check_relations(pres, out)
    _check_confluence(pres, max_degree, out)
    checked = dict.fromkeys(AXIOM_KINDS, 0)
    skipped = dict.fromkeys(AXIOM_KINDS, 0)
    monos = list(pres.monomials_up_to(max_degree))
    for m in monos:
        identities = _unary_identities(pres, m)
        for pos, (kind, evaluate) in enumerate(identities):
            try:
                lhs, rhs, detail = evaluate()
            except (Undetermined, Inhomogeneous):
                for later, _ in identities[pos:]:
                    skipped[later] += 1
                break
            checked[kind] += 1
            if lhs != rhs:
                out.append(AxiomViolation(kind, detail, pres.poly_str(lhs), pres.poly_str(rhs)))
    _check_pairs(pres, monos, max_degree, out, checked, skipped)
    return AxiomReport(out, checked, skipped)


def verify_axioms(
    pres: ModPRingPresentation, max_degree: int
) -> list[AxiomViolation]:
    """The violations of :func:`axiom_report`; an empty list means every
    identity it could evaluate holds (see the report for what it skipped)."""
    return axiom_report(pres, max_degree).violations
