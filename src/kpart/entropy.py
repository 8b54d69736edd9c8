"""Entropy metrics over exact integer distributions, in bits (log base 2)."""

from __future__ import annotations

import math

from .core import Dist, InputError, Instance, Partition, subset_sums
from .core import _check_int, _int_text

Bits = float


def shannon_entropy(d: Dist) -> Bits:
    """H(d) = sum over i of (n_i/D) * log2(D/n_i).

    Zero numerators contribute nothing (0 * log 0 = 0). The weighted sum is
    accumulated with math.fsum, so the result does not depend on entry order.
    """
    return _entropy_bits(d.numerators, d.denominator)


def _entropy_bits(nums, total: int) -> Bits:
    """shannon_entropy over unchecked numerators summing to a positive total."""
    return _terms_bits((n * math.log2(n) for n in nums if n), total)


def _terms_bits(terms, total: int) -> Bits:
    """H, clamped at zero, from the q * log2(q) terms of numerators summing to total."""
    h = math.log2(total) - math.fsum(terms) / total
    return h if h > 0.0 else 0.0


def min_entropy(d: Dist) -> Bits:
    """H_inf(d) = -log2(max_i n_i / D), a lower bound on shannon_entropy."""
    return _min_entropy_bits(max(d.numerators), d.denominator)


def _min_entropy_bits(m: int, total: int) -> Bits:
    """min_entropy of a distribution whose largest numerator m is positive."""
    h = math.log2(total) - math.log2(m)
    return h if h > 0.0 else 0.0


def conditional_entropy(inst: Instance, p: Partition) -> Bits:
    """H(X|A) = H(X) - H(A), clamped at zero against float residue.

    A = f(X) is a function of X, so conditioning on the group label removes
    exactly H(A) bits of uncertainty.
    """
    total = inst.total
    h = _entropy_bits(inst.weights, total) - _entropy_bits(subset_sums(inst, p).sums, total)
    return h if h > 0.0 else 0.0


def grouping_identity_residual(d: Dist, r: int) -> float:
    """|LHS - RHS| of the two-block grouping identity, split at position r.

    The identity decomposes H(d) into the entropy of the coarse two-block
    distribution (mass before r vs from r on) plus the mass-weighted
    entropies of the two conditional halves. Test-suite helper; the residual
    should vanish up to float noise.
    """
    _check_int("split point", r)
    k = len(d.numerators)
    if not 1 <= r <= k - 1:
        raise InputError(f"split point {_int_text(r)} outside [1, {k - 1}]")
    left = d.numerators[:r]
    right = d.numerators[r:]
    ql = sum(left)
    qr = sum(right)
    if ql == 0 or qr == 0:
        raise InputError("degenerate split: a half with zero mass has no conditional")
    dd = d.denominator
    lhs = shannon_entropy(d)
    rhs = (
        shannon_entropy(Dist((ql, qr), dd))
        + (ql / dd) * shannon_entropy(Dist(left, ql))
        + (qr / dd) * shannon_entropy(Dist(right, qr))
    )
    return abs(lhs - rhs)
