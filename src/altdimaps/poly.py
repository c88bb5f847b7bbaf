"""Exact sparse integer polynomials in named variables."""

from __future__ import annotations

from typing import Dict, Tuple, Type

from .core import InvariantError


class Poly:
    """Polynomial with integer coefficients in the variables `names` (one
    or more, set by each subclass), as {exponent tuple: c}, the tuple
    giving one exponent per name."""

    names: Tuple[str, ...]

    def __init__(self, coeffs: Dict[Tuple[int, ...], int] | None = None):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v != 0}

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def const(cls, c: int):
        return cls({(0,) * len(cls.names): c})

    @classmethod
    def var(cls, which: int = 0):
        return cls({tuple(int(i == which) for i in range(len(cls.names))): 1})

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return type(self)(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + type(other)({k: -v for k, v in other.coeffs.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: Dict[Tuple[int, ...], int] = {}
        for a, c1 in self.coeffs.items():
            for b, c2 in other.coeffs.items():
                k = tuple(i + j for i, j in zip(a, b))
                out[k] = out.get(k, 0) + c1 * c2
        return type(self)(out)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def evaluate(self, *values):
        if len(values) != len(self.names):
            raise TypeError(f"evaluate takes {len(self.names)} values "
                            f"({', '.join(self.names)}), got {len(values)}")
        total = 0
        for k, c in self.coeffs.items():
            for v, i in zip(values, k):
                c = c * v ** i
            total += c
        return total

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        # graded lex: total degree descending, then exponents descending
        keys = sorted(self.coeffs, key=lambda k: (-sum(k), [-i for i in k]))
        parts = []
        for n, k in enumerate(keys):
            c = self.coeffs[k]
            mono = "*".join(f"{name}^{i}" if i > 1 else name
                            for name, i in zip(self.names, k) if i)
            if not mono:
                term = str(abs(c))
            else:
                term = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            if n == 0:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    __repr__ = __str__


class Poly1(Poly):
    """Polynomial in x; Poly1({deg: c}) takes the degrees as ints."""

    names = ("x",)

    def __init__(self, coeffs: Dict[int | Tuple[int], int] | None = None):
        if coeffs and isinstance(next(iter(coeffs)), int):
            coeffs = {(k,): v for k, v in coeffs.items()}
        super().__init__(coeffs)

    # bound here as well, so that each class defines them by name
    # (bench/tracer.py wraps Poly1.__mul__ and Poly1.__add__)
    __add__ = Poly.__add__
    __mul__ = Poly.__mul__


class Poly2(Poly):
    """Polynomial in x and y, as {(i, j): c}."""

    names = ("x", "y")

    # bound here as well, so that each class defines them by name
    # (bench/tracer.py wraps Poly2.__mul__ and Poly2.__add__)
    __add__ = Poly.__add__
    __mul__ = Poly.__mul__

    def diagonal(self) -> Poly1:
        """The univariate image under y = x."""
        out: Dict[int, int] = {}
        for (i, j), c in self.coeffs.items():
            out[i + j] = out.get(i + j, 0) + c
        return Poly1(out)


class _Shift:
    """Multiplication of a packed int by one monomial: a left shift."""

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        self.bits = bits

    def __mul__(self, acc: int) -> int:
        return acc << self.bits


class _PackedRing:
    """The polynomials over cls (Poly1 or Poly2) that a sweep of at most n
    reductions can reach, each packed exactly into one int by Kronecker
    substitution: a coefficient takes B = n + 1 bits and an exponent has
    stride D = n + 1, so x^i·y^j sits at bit (i·D + j)·B (x^i at i·B over
    Poly1).  Multiplying by x or y (var) is a shift and adding two
    polynomials is one int addition; one and zero are the ints 1 and 0.

    The packing is exact for a sweep whose every coefficient is x, y or 1
    and whose states branch at most twice, as in T_c's table and the
    Tutte oracle.  A coefficient is then at most the number of paths from
    the root, at most 2^n < 2^B, so no slot carries into the next; and
    every exponent is at most the number of reductions, at most n < D, so
    no exponent reaches the next stride.  unpack raises InvariantError on
    a negative int or one wider than the strides allow, which is what an
    exponent or the top coefficient past its bound leaves."""

    one, zero = 1, 0

    def __init__(self, cls: Type[Poly], n: int):
        self.cls = cls
        self.bits = self.stride = n + 1
        self.slots = self.stride ** len(cls.names)

    def var(self, which: int = 0) -> _Shift:
        """Multiplication by the variable cls.names[which]."""
        return _Shift(self.stride ** (len(self.cls.names) - 1 - which)
                      * self.bits)

    def unpack(self, acc: int) -> Poly:
        """The polynomial packed in acc, read from its binary digits: slot
        k is the k-th group of B digits from the right, and the search for
        the next digit 1 skips the zero slots between two terms."""
        b, d = self.bits, self.stride
        if acc < 0:
            raise InvariantError("packed polynomial is negative")
        if acc.bit_length() > self.slots * b:
            raise InvariantError(f"packed polynomial of {acc.bit_length()} "
                                 f"bits exceeds {self.slots} slots of {b}")
        digits = format(acc, "b")
        top = len(digits)
        coeffs: Dict[Tuple[int, ...], int] = {}
        pos = digits.rfind("1")
        while pos >= 0:
            k = (top - 1 - pos) // b
            start = max(top - (k + 1) * b, 0)
            coeffs[divmod(k, d) if self.cls is Poly2 else (k,)] = \
                int(digits[start:top - k * b], 2)
            pos = digits.rfind("1", 0, start)
        return self.cls(coeffs)
