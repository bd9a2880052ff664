"""Multivariate polynomials with exact rational coefficients.

Expressions are parsed from a restricted Python-syntax subset (+, -, *, /, **,
integer literals, variable names).  Division is allowed by nonzero constants
only, exponents must be nonnegative integer constants, and float literals are
rejected outright, so every parsed object is an exact polynomial.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fractions import Fraction


class PolynomialError(ValueError):
    pass


@dataclass(frozen=True)
class Polynomial:
    nvars: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]  # sorted by exponent tuple

    @classmethod
    def from_dict(cls, nvars: int, d) -> "Polynomial":
        clean = {tuple(e): Fraction(c) for e, c in d.items() if Fraction(c) != 0}
        for e in clean:
            if len(e) != nvars or any(k < 0 for k in e):
                raise PolynomialError(f"bad exponent tuple {e}")
        return cls(nvars, tuple(sorted(clean.items())))

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls.from_dict(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        e = [0] * nvars
        e[i] = 1
        return cls.from_dict(nvars, {tuple(e): Fraction(1)})

    def as_dict(self):
        return dict(self.terms)

    def is_constant(self) -> bool:
        return all(all(k == 0 for k in e) for e, _ in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise PolynomialError("not a constant")
        return self.terms[0][1] if self.terms else Fraction(0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        d = self.as_dict()
        for e, c in other.terms:
            d[e] = d.get(e, Fraction(0)) + c
        return Polynomial.from_dict(self.nvars, d)

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_dict(self.nvars, {e: -c for e, c in self.terms})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        d: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                d[e] = d.get(e, Fraction(0)) + c1 * c2
        return Polynomial.from_dict(self.nvars, d)

    def power(self, k: int) -> "Polynomial":
        if k < 0:
            raise PolynomialError("negative exponent")
        out = Polynomial.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out


def parse_polynomial(text: str, var_names: list[str]) -> Polynomial:
    """Parse an exact polynomial over the named variables.

    Rejects floats, calls (sin, exp, ...), division by non-constants and
    anything else that would leave the polynomial ring.
    """
    nvars = len(var_names)
    index = {name: i for i, name in enumerate(var_names)}
    if len(index) != nvars:
        raise PolynomialError(f"duplicate variable name in {var_names!r}")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise PolynomialError(f"cannot parse {text!r}: {exc.msg}") from exc

    def build(node) -> Polynomial:
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, int):
                raise PolynomialError(f"non-integer literal {node.value!r}")
            return Polynomial.constant(nvars, node.value)
        if isinstance(node, ast.Name):
            if node.id not in index:
                raise PolynomialError(f"unknown variable {node.id!r}")
            return Polynomial.variable(nvars, index[node.id])
        if isinstance(node, ast.UnaryOp):
            operand = build(node.operand)
            if isinstance(node.op, ast.USub):
                return -operand
            if isinstance(node.op, ast.UAdd):
                return operand
            raise PolynomialError("unsupported unary operator")
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                base = build(node.left)
                exp = build(node.right)
                k = exp.constant_value()
                if k.denominator != 1 or k < 0:
                    raise PolynomialError("exponents must be nonnegative integers")
                return base.power(int(k))
            left = build(node.left)
            right = build(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                c = right.constant_value()
                if c == 0:
                    raise PolynomialError("division by zero")
                return left * Polynomial.constant(nvars, Fraction(1) / c)
            raise PolynomialError("unsupported operator")
        raise PolynomialError(f"non-polynomial expression element: {ast.dump(node)}")

    return build(tree)
