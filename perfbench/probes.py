"""Machine drift probe and Scalar/TPoly microbenchmarks."""

from __future__ import annotations

import statistics
import time
import timeit
from fractions import Fraction
from math import factorial


def fraction_loop_s() -> float:
    """Seconds for a fixed pure-Python Fraction loop.

    Reported as machine.ref_s next to the timings so that drift of a shared
    machine is visible; it is not used to normalise anything.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 12001):
        a = Fraction(k % 13 + 1, k % 7 + 2)
        acc += a * a - a * a
    if acc:
        raise AssertionError("drift probe lost exactness")
    return time.perf_counter() - t0


def _per_op_us(stmt: str, env: dict) -> float:
    timer = timeit.Timer(stmt, globals=env)
    number = 100
    while timer.timeit(number) < 0.02:
        number *= 4
    return statistics.median(timer.repeat(repeat=7, number=number)) \
        / number * 1e6


def scalar_microbench(braidhopf) -> dict:
    """Microseconds per Scalar/TPoly operation on operands shaped like the
    workloads' coefficients: a sign times a cocycle weight w, the q2
    braiding rationals with an imaginary part, and degree-3 truncated
    exponentials with w^k/k! coefficients as in the free-with-cocycle
    deformation."""
    Scalar, TPoly = braidhopf.Scalar, braidhopf.TPoly
    w = 2
    env = {
        "i1": Scalar(-1), "i2": Scalar(w),
        "g1": Scalar(Fraction(1, 2), Fraction(-2)),
        "g2": Scalar(Fraction(2), Fraction(1, 2)),
        "p": TPoly(tuple(Scalar(Fraction(w ** k, factorial(k)))
                         for k in range(4))),
        "q": TPoly(tuple(Scalar(Fraction((-w) ** k, factorial(k)))
                         for k in range(4))),
    }
    return {
        "scalars.mul_int_us": _per_op_us("i1 * i2", env),
        "scalars.mul_gauss_us": _per_op_us("g1 * g2", env),
        "scalars.add_gauss_us": _per_op_us("g1 + g2", env),
        "scalars.tpoly_mul_deg3_us": _per_op_us("p * q", env),
    }


MICRO_METRICS = ("scalars.mul_int_us", "scalars.mul_gauss_us",
                 "scalars.add_gauss_us", "scalars.tpoly_mul_deg3_us")
