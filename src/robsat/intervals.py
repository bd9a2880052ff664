"""Rational interval arithmetic for rigorous range bounds of polynomials."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x) -> "Interval":
        x = Fraction(x)
        return cls(x, x)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Interval(min(products), max(products))

    def power(self, k: int) -> "Interval":
        if k < 0:
            raise ValueError("negative exponent")
        if k == 0:
            return Interval.point(1)
        if k % 2 == 1 or self.lo >= 0:
            return Interval(self.lo ** k, self.hi ** k)
        if self.hi <= 0:
            return Interval(self.hi ** k, self.lo ** k)
        return Interval(Fraction(0), max(self.lo ** k, self.hi ** k))
