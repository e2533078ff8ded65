"""Axiom-driven Steenrod operations on presented mod-p cohomology rings.

A ring is described by a :class:`ModPRingPresentation`: a prime p,
graded generators, homogeneous relations, and a table of operation values
on generators; a relation that mixes degrees is refused.  Elements are
kept in a unique normal form (coefficients mod p, monomials reduced under
degree-lexicographic order by the relation rules, completed to a Groebner
basis up to the degree at hand), so equality, and so membership in the
ideal of the relations, is decidable whatever the order of the relations.

The operations are evaluated from the axioms alone:

    Sq^0 = 1,   Sq^k x = 0 for deg x < k,   Sq^k x = x^2 for deg x = k,
    Sq^k(xy) = sum over i+j=k of Sq^i(x) Sq^j(y)              (p = 2),

and for odd p the powers St^k raising degree by 2k(p-1) with the same
shape (zero below degree 2k, p-th power at degree 2k, Cartan on
products).  Both, and the Bockstein by the signed Leibniz rule, are one
memoized recursion that splits a monomial in two, parametrized by the
index weight w (1 at p = 2, 2 at odd p: the operation of index k vanishes
on degrees below wk).  Where the axioms do not force a generator value the
table must supply it; a missing value raises Undetermined, where a nonzero
term needs it, rather than guessing.  The Bockstein is Sq^1 at p = 2 (a
beta entry gives Sq^1 there); the integral obstruction class in degree 3
is the Bockstein of the degree-2 class (w3_from_w2).

On the free algebra these rules define the operations from the table by
construction; what a table can get wrong is the axiom-forced values, beta
beta = 0, and descent to the quotient by the relations, which
:func:`axiom_report` checks on the generators, the relations and the rules
they complete to.

Topology enters only through the generator tables; there is no
chain-level construction here, and no relations between the operations
beyond the listed axioms are assumed or checked.

For odd p the ring is graded-commutative: odd-degree generators
anticommute and square to zero, and a monomial {name: exponent} is the
product of its powers in generator order; at p = 2 everything commutes.
"""

from __future__ import annotations

import heapq
import itertools
from operator import add, le, mul, sub

from .abgroup import FrozenValue, as_int, is_prime, json_list, json_record, json_shape, require_ints
from .errors import (
    Inhomogeneous,
    InvalidInput,
    NotModTwo,
    NotOddPrime,
    Undetermined,
    WrongDegree,
)

Mono = tuple[int, ...]
Poly = dict[Mono, int]

# The monomial recursion is as deep as a monomial's distinct generators plus
# the bit length of its largest exponent; a deeper monomial is refused.
MAX_EVALUATION_DEPTH = 512


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


class ModPRingPresentation:
    """Generators, relations, and operation values of a mod-p ring.

    ``generators`` is a sequence of (name, positive degree).  Relations
    are raw polynomials: lists of (coefficient, {name: exponent}) terms.
    ``operations`` maps generator values of the non-forced operations,
    keyed by ("Sq", k, name), ("St", k, name) or ("beta", name); a prime
    of 2 only admits Sq/beta entries and an odd prime only St/beta.
    Construction is permissive about the degrees of supplied values so
    that :func:`verify_axioms` can report them; everything else is
    validated eagerly: a relation whose terms differ in degree raises
    Inhomogeneous.  The relation rules are completed up to the degree each
    reduction touches; like the memo caches, that changes no answer, and
    instances are otherwise immutable after construction.
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
        self._rules: list[tuple[Mono, Poly]] = []
        # a heap of (degree, terms) of the ideal elements still to reduce:
        # the relations, then what each new rule adds (see _add_rule)
        self._checks: list[tuple[int, list]] = []
        for rel in filter(None, self.raw_relations):
            degs = sorted(set(map(self.mono_degree, rel)))
            if len(degs) > 1:
                raise Inhomogeneous(f"relation {self.poly_str(rel)} is not homogeneous (degrees {degs})")
            self._queue(degs[0], rel)
        # (k, monomial) -> its normal form or its Undetermined message; k = None is beta
        self._mono_values: dict[tuple[int | None, Mono], Poly | str] = {}

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
            if any(e < 0 for e in powers.values()):
                raise ValueError(f"the monomial {powers} has a negative exponent")
            exps = [0] * len(self.names)
            if unknown := [name for name in powers if name not in self._index]:
                raise ValueError(f"unknown generator {unknown[0]!r}")
            for name, e in powers.items():
                exps[self._index[name]] += e
            if any(exps[i] >= 2 for i in self._odd):
                continue  # odd-degree generators square to zero
            mono = tuple(exps)
            poly[mono] = (poly.get(mono, 0) + coeff) % self.p
        return {m: c for m, c in poly.items() if c}

    def _deglex(self, mono: Mono) -> tuple:
        return (self.mono_degree(mono), mono)

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

    # -- completion of the relation rules ---------------------------------------

    def _queue(self, degree: int, poly: Poly) -> None:
        heapq.heappush(self._checks, (degree, sorted(poly.items())))

    def _add_rule(self, poly: Poly) -> None:
        """Make the reduced ideal element ``poly`` a rule lead -> rhs and queue
        its checks (Buchberger 1965; Stokes 1990 for anticommuting generators):
        its overlap with each earlier lead that shares a generator with its
        own, and at odd p x * rhs for each odd generator x in the lead."""
        lead = max(poly, key=self._deglex)
        inv = pow(poly[lead], -1, self.p)
        rhs = {m: (-c * inv) % self.p for m, c in poly.items() if m != lead}
        for old, old_rhs in self._rules:
            if any(map(min, lead, old)):  # coprime leads give nothing new
                lcm = tuple(map(max, lead, old))
                # the two rules rewrite lcm to values that differ by an ideal element
                other = self.poly_scale(self._rewrite(old, old_rhs, lcm), -1)
                self._queue(self.mono_degree(lcm), self.poly_add(self._rewrite(lead, rhs, lcm), other))
        for i in self._odd:
            if lead[i]:
                x = {self._power_mono(i, 1): 1}
                self._queue(self.mono_degree(lead) + self.degrees[i], self._mul_into({}, x, rhs))
        self._rules.append((lead, rhs))

    def _complete(self, degree: int) -> None:
        """Reduce the queued elements up to ``degree``, lowest degree first,
        and make a rule of each that is not 0.  The rules are then a Groebner
        basis up to ``degree``: normal forms there are unique."""
        while self._checks and self._checks[0][0] <= degree:
            rest = self._normal_form(dict(heapq.heappop(self._checks)[1]))
            if rest:
                self._add_rule(rest)

    def reduce(self, poly: Poly) -> Poly:
        """The unique normal form, from the rules completed up to the degree of ``poly``."""
        if self._checks and poly:
            self._complete(max(map(self.mono_degree, poly)))
        return self._normal_form(poly)

    def _normal_form(self, poly: Poly) -> Poly:
        """``poly`` rewritten by the current rules until no lead divides a term."""
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
        return (0,) * idx + (e,) + (0,) * (len(self.names) - idx - 1)

    def _free_value(self, k: int | None, idx: int) -> Poly:
        """Sq^k (p = 2) or St^k (odd p) of a generator, or beta for k = None,
        as the axioms or the table give it, unreduced."""
        d = self.degrees[idx]
        if k is not None and self.weight * k >= d:  # 0 above the degree, the p-th power at it
            return {self._power_mono(idx, self.p): 1} if self.weight * k == d else {}
        value = self.ops.get(("beta", 1, idx) if k is None else (self.op_name.lower(), k, idx))
        if value is None and self.p == 2 and k == 1:  # Sq^1 is the Bockstein
            value = self.ops.get(("beta", 1, idx))
        if value is None:
            label = "beta" if k is None else f"{self.op_name}^{k}"
            raise Undetermined(
                f"{label} on generator {self.names[idx]!r} (degree {d}) is neither axiom-forced nor supplied"
            )
        return value

    # -- operation evaluation on monomials (Cartan and Leibniz) ---------------

    def op_mono(self, k: int | None, mono: Mono) -> Poly:
        """Sq^k (p = 2) or St^k (odd p) of a monomial, or beta for k = None,
        in normal form, memoized.

        A monomial of several generators is the lower half of its generators
        by index times the upper half, and a power x^e is x^(e//2) times
        x^(e - e//2).  The total operation is a ring map and beta a
        derivation (Steenrod and Epstein 1962, ch. I), so Cartan, or Leibniz,
        combines the values of the two factors.  A term is skipped once either
        factor is 0, so a missing table value raises Undetermined only where a
        nonzero term needs it; where the halves raise, the first generator's
        power times the rest is tried, which answers wherever peeling one
        generator per level does, and so is as deep as the monomial's
        generators plus the bit length of its largest exponent.
        """
        value = self._op_value(k, mono)
        if isinstance(value, str):
            raise Undetermined(value)
        return value

    def _op_value(self, k: int | None, mono: Mono) -> Poly | str:
        """:meth:`op_mono`'s value, or the message of the Undetermined it raises."""
        key = (k, mono)
        value = self._mono_values.get(key)
        if value is not None:
            return value
        gens = list(itertools.compress(range(len(mono)), mono))
        if k == 0:
            value = self.reduce({mono: 1})
        elif not gens:
            value = {}
        elif len(gens) == 1 and mono[gens[0]] == 1:
            try:
                value = self.reduce(self._free_value(k, gens[0]))
            except Undetermined as exc:
                value = str(exc)
        else:
            if len(gens) == 1:
                firsts = [self._power_mono(gens[0], mono[gens[0]] // 2)]
            else:  # the generators below a cut: the halves, then the first one's power
                cuts = dict.fromkeys((gens[len(gens) // 2], gens[1]))  # one cut below four generators
                firsts = [mono[:cut] + (0,) * (len(mono) - cut) for cut in cuts]
            for first in firsts:
                rest = tuple(map(sub, mono, first))
                if k is None:  # beta(ab) = beta(a) b + (-1)^|a| a beta(b)
                    terms = [(None, 0, 1), (0, None, -1 if self.mono_degree(first) % 2 else 1)]
                else:  # Sq^k(ab) = sum of Sq^i(a) Sq^(k-i)(b), without the terms that vanish
                    low = max(0, k - self.mono_degree(rest) // self.weight)
                    high = min(k, self.mono_degree(first) // self.weight)
                    terms = [(i, k - i, 1) for i in range(low, high + 1)]
                acc: Poly = {}
                for i, j, sign in terms:
                    right = self._op_value(j, rest)
                    left = right and self._op_value(i, first)
                    if not left:  # a factor is 0, and so is the term
                        continue
                    if isinstance(left, str) or isinstance(right, str):  # the term needs a missing value
                        value = left if isinstance(left, str) else right
                        break
                    self._mul_into(acc, left, right, sign)
                else:
                    value = self.reduce(acc)
                    break
        self._mono_values[key] = value
        return value

    def beta_mono(self, mono: Mono) -> Poly:
        """beta of a monomial: :meth:`op_mono` with k = None."""
        return self.op_mono(None, mono)

    # -- monomial enumeration -------------------------------------------------

    def monomials_up_to(self, max_degree: int):
        """The normal monomials of degree <= max_degree, unit included."""
        self._complete(max_degree)
        odd = self._odd  # odd-degree generators square to zero
        ranges = [range(2 if i in odd else max_degree // d + 1) for i, d in enumerate(self.degrees)]
        for exps in itertools.product(*ranges):
            if self.mono_degree(exps) > max_degree:
                continue
            if any(self._divides(lead, exps) for lead, _ in self._rules):
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
    def poly_from_json(items) -> tuple:
        def term(doc):
            coeff, mono = json_record(doc, "a term", coeff=as_int, monomial=(None, {}))
            return coeff, {name: as_int(e) for name, e in json_shape(mono, dict, "a monomial").items()}

        return json_list(term, "a polynomial")(items)

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
        poly = cls.poly_from_json

        def entry(doc):
            op, gen, value = json_record(doc, "an operation value", op=parse_op_label, gen=None, value=poly)
            if not isinstance(gen, str):
                raise ValueError(f"unknown generator {gen!r}")
            return (*op, gen), value

        gens = json_list(lambda g: json_record(g, "a generator", name=None, degree=as_int), "generators")
        rels, ops = (json_list(poly, "relations"), ()), (json_list(entry, "operation values"), ())
        p, gens, rels, ops = json_record(doc, "a presentation", p=as_int, generators=gens, relations=rels, ops=ops)
        return cls(p, gens, rels, dict(ops))


def parse_op_label(label) -> tuple[str, int]:
    """("beta", 1) for "beta", and ("sq", k) or ("st", k) for "Sq<k>" or
    "St<k>" in any case; ValueError on any other label."""
    if label == "beta":
        return ("beta", 1)
    if isinstance(label, str) and label[:2].lower() in ("sq", "st"):
        return (label[:2].lower(), as_int(label[2:]))
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
    polynomial, which must be homogeneous and within MAX_EVALUATION_DEPTH."""
    if k is not None and k < 0:
        raise ValueError("operation index must be nonnegative")
    if len({pres.mono_degree(m) for m in poly}) > 1:
        raise Inhomogeneous(f"{pres.poly_str(poly)} is not homogeneous")
    for m in poly:
        depth = sum(map(bool, m)) + max(m, default=0).bit_length()
        if depth > MAX_EVALUATION_DEPTH:
            raise InvalidInput(
                f"a monomial needs evaluation depth {depth} (distinct generators plus the bit "
                f"length of the largest exponent); the limit is {MAX_EVALUATION_DEPTH}"
            )
    return pres._linear(poly, lambda m: pres.op_mono(k, m))


def sq(k: int, x: RingElement) -> RingElement:
    """Steenrod square Sq^k, raising the degree by k (p = 2 only)."""
    if x.pres.p != 2:
        raise NotModTwo("Sq acts on mod-2 presentations only")
    return RingElement(x.pres, _apply(x.pres, k, x.poly))


def st(k: int, x: RingElement) -> RingElement:
    """Steenrod power St^k, raising the degree by 2k(p-1) (odd p only)."""
    if x.pres.p == 2:
        raise NotOddPrime("St acts on odd-prime presentations only")
    return RingElement(x.pres, _apply(x.pres, k, x.poly))


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

AXIOM_KINDS = ("BOCKSTEIN", "CARTAN")


class AxiomReport(FrozenValue):
    """Violations of one check, and the identities it checked and skipped.

    ``checked`` and ``skipped`` count identities by kind (the keys of
    :data:`AXIOM_KINDS`): BOCKSTEIN for beta beta on a generator and, at
    odd p, beta of a relation or rule; CARTAN for each operation of a
    relation or rule below its top index, which gives its p-th power.
    An identity is skipped when evaluating it hits an undetermined
    generator value or an inhomogeneous table value.  Table violations
    come first and the rest are sorted, so neither the order of the
    relations nor the order of the table changes the list.
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
        sq1 = beta and pres.p == 2  # beta is Sq^1, forced or from the table
        if sq1 or (not beta and pres.weight * k >= d):
            forced = pres.op_mono(k, pres._power_mono(idx, 1))
            if pres.reduce(value) != forced:
                out.append(
                    AxiomViolation(
                        "TABLE",
                        f"{label}({name}) is {'Sq^1' if sq1 else 'axiom-forced'} but the table disagrees",
                        pres.poly_str(pres.reduce(value)),
                        pres.poly_str(forced),
                    )
                )


def axiom_report(pres: ModPRingPresentation, max_degree: int) -> AxiomReport:
    """Check the table, and that the operations it gives pass to the
    quotient by the relations.

    On the free graded-commutative algebra the table extends by the Cartan
    formula to one ring map and by the Leibniz rule to one derivation, so
    instability, the squaring rule, Cartan and Leibniz hold there by
    construction once the axiom-forced entries agree (TABLE; DEGREE checks
    the degrees of supplied values).  beta beta is again a derivation, so
    it is checked on the generators.  What can fail is descent: the
    operations pass to the quotient exactly when Sq^k(r), or St^k(r), and
    beta(r) lie in the ideal for every relation r (Steenrod and Epstein
    1962, ch. I); normal forms are unique, so that is whether they reduce
    to 0.  Each completed rule is checked as well as each relation.

    ``max_degree`` bounds the degree of the generators checked, and
    ``max_degree`` + 1 that of the relations and rules: beta beta on an
    element of degree n passes through degree n + 1, where a relation can
    meet it.  Identities that hit an Undetermined generator value are
    skipped and counted, not reported; a report that skipped nothing holds
    whatever the missing values are, but one that skipped some can miss a
    contradiction that only a multiple of a relation shows.
    """
    out: list[AxiomViolation] = []
    _check_table_entries(pres, out)
    checked = dict.fromkeys(AXIOM_KINDS, 0)
    skipped = dict.fromkeys(AXIOM_KINDS, 0)
    found: list[AxiomViolation] = []

    def check(kind: str, detail: str, value) -> None:
        """Count the identity value() == 0, and report it if it fails."""
        try:
            got = value()
        except (Undetermined, Inhomogeneous):
            skipped[kind] += 1
            return
        checked[kind] += 1
        if got:
            found.append(AxiomViolation(kind, detail, pres.poly_str(got), "0"))

    beta = 1 if pres.p == 2 else None  # Sq^1 is the Bockstein at p = 2

    def beta_beta(idx: int) -> Poly:
        # from the generator's given value, so that the answer does not
        # depend on which normal form the generator order picks; from its
        # normal form if the given value needs a missing one that it does not
        try:
            return _apply(pres, beta, pres._free_value(beta, idx))
        except Undetermined:
            return _apply(pres, beta, pres.op_mono(beta, pres._power_mono(idx, 1)))

    for idx, d in enumerate(pres.degrees):
        if d <= max_degree:
            detail = ("Sq^1 Sq^1" if beta else "beta beta") + f" ({pres.names[idx]}) != 0"
            check("BOCKSTEIN", detail, lambda: beta_beta(idx))
    # The relations, and each rule lead - rhs with rhs in normal form: where a
    # relation needs a missing value, a rule that combines it with others may
    # not, and a product of normal monomials reduces through rules alone.
    top = max_degree + 1
    pres._complete(top)
    rules = (
        {lead: 1, **pres.poly_scale(pres.reduce(rhs), -1)}
        for lead, rhs in pres._rules
        if pres.mono_degree(lead) <= top
    )
    elements = {}  # monic, so that a rule equal to a relation counts once
    for rel in filter(None, (*pres.raw_relations, *rules)):
        lead = max(rel, key=pres._deglex)
        if pres.mono_degree(lead) <= top:
            monic = pres.poly_scale(rel, pow(rel[lead], -1, pres.p))
            elements[tuple(sorted(monic.items()))] = monic
    for rel in elements.values():
        d = pres.mono_degree(next(iter(rel)))
        name = pres.poly_str(rel)
        # the top index gives r^p, which is in the ideal whatever the table
        for k in range(1, (d - 1) // pres.weight + 1):
            detail = f"{pres.op_name}^{k}({name}) is not in the ideal"
            check("CARTAN", detail, lambda: _apply(pres, k, rel))
        if beta is None:
            check("BOCKSTEIN", f"beta({name}) is not in the ideal", lambda: _apply(pres, None, rel))
    return AxiomReport(out + sorted(found, key=str), checked, skipped)


def verify_axioms(
    pres: ModPRingPresentation, max_degree: int
) -> list[AxiomViolation]:
    """The violations of :func:`axiom_report`; an empty list means every
    identity it could evaluate holds (see the report for what it skipped)."""
    return axiom_report(pres, max_degree).violations
