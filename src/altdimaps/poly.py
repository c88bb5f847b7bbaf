"""Exact sparse integer polynomials in named variables."""

from __future__ import annotations

from typing import Dict, Tuple


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
        columns = list(zip(*other.coeffs))  # other's exponents of each variable
        for a, c1 in self.coeffs.items():
            # a + b for every exponent tuple b of other, summed column by
            # column: cheaper than a tuple built per pair
            keys = zip(*[map(i.__add__, col) for i, col in zip(a, columns)])
            for k, c2 in zip(keys, other.coeffs.values()):
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
