"""The benchmark workloads and the table of verdicts each must produce.

A workload is a list of ``braidhopf`` command lines run in one process
through ``braidhopf.cli.main``; every call builds a fresh Algebra, so each
starts on cold memo tables.  An operation is one check report or one
Schoenberg verdict.  An operation is an error when its verdict differs
from the table; a raised exception, a wrong exit code or an unreadable
document makes every operation of that call an error.

Every call runs at max degree 2.  At degree 3 or 4 one call takes 1 to 30
seconds, and on a shared machine whose speed drifts by up to 2x over
seconds, a run that can repeat such a call only a few times does not give
a steady time; at degree 2 each call takes well under two seconds and a
run repeats it tens of times.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

CHECK_IDS = (
    "confluence", "quotient-compat", "assoc-mul", "braid-equation",
    "beta-compat-mul", "beta-compat-unit", "beta-compat-comul",
    "beta-compat-counit", "beta-compat-antipode", "bialgebra", "coassoc",
    "counit-law", "counit-mul", "cocommutative", "involution-squared",
    "involution-antihom", "antipode-identity", "antipode-squared",
    "star-tensor-squared", "braiding-reconstruction", "gen-unit",
    "beta-compat-cocycle", "gen-commute", "cocycle", "gen-hermitian",
    "nilpotency", "delta-mu-t", "mu-t-assoc", "mu-t-assoc-eq3",
    "deformation-law", "star-deformation", "expL-semigroup", "expL-hermitian",
    "primitive-formula", "sigma-two-sided", "ft-agreement", "ft-commute",
    "antipode-deformed", "st-unit", "st-mu", "st-comul", "st-inverse",
    "st-star", "sesqui-conv", "sesqui-hermitian",
)

T_SAMPLES = ("0", "1/2", "1", "2")  # the schoenberg default
_NEG_RATIONAL = re.compile(r"^-\d+(/\d+)?$")


@dataclass(frozen=True)
class Call:
    """One command line and its expected verdicts.

    ``verdicts`` maps a verify check id (or a schoenberg t sample, with
    "conditional" for the conditional-positivity verdict) to its expected
    status; ``witness`` maps a failing check id to its expected input.
    """

    command: str            # "verify" or "schoenberg"
    alg: str                # input file name
    degree: int
    verdicts: dict
    psi: str = ""
    witness: tuple = ()

    def argv(self, inputs) -> list:
        argv = [self.command, str(inputs / self.alg)]
        if self.psi:
            argv += ["--psi", str(inputs / self.psi)]
        return argv + ["--max-degree", str(self.degree),
                       "--format", "json"]

    @property
    def exit_code(self) -> int:
        return 1 if "fail" in self.verdicts.values() else 0

    def count_errors(self, rc, stdout, first_generator) -> int:
        """Operations of this call whose verdict is wrong; witness inputs
        name the first generator declared in the call's input."""
        if rc != self.exit_code:
            return len(self.verdicts)
        try:
            doc = json.loads(stdout)
            got = (_verify_verdicts(doc) if self.command == "verify"
                   else _schoenberg_verdicts(doc))
        except (ValueError, KeyError, TypeError, AttributeError):
            return len(self.verdicts)
        witness = {cid: text.format(first=first_generator)
                   for cid, text in self.witness}
        errors = 0
        for op, status in self.verdicts.items():
            report = got.get(op)
            if report is None or report["status"] != status:
                errors += 1
            elif op in witness and report["witness"].get("input") != witness[op]:
                errors += 1
            elif (self.command == "schoenberg" and status == "fail"
                  and not _is_negative_rational(
                      report["witness"].get("form-value"))):
                errors += 1
        return errors


def _verify_verdicts(doc) -> dict:
    reports = {r["id"]: r for r in doc}
    if len(reports) != len(doc):
        raise ValueError("duplicate check id")
    for r in doc:
        r.setdefault("witness", {})
    return reports


def _schoenberg_verdicts(doc) -> dict:
    if doc["equivalence_observed"] is not True:
        raise ValueError("equivalence not observed")
    verdicts = {"conditional": dict(doc["conditional"])}
    for r in doc["states"]:
        verdicts[r["witness"]["t"]] = r
    for r in verdicts.values():
        r.setdefault("witness", {})
    return verdicts


def _is_negative_rational(text) -> bool:
    return (isinstance(text, str) and bool(_NEG_RATIONAL.match(text))
            and Fraction(text) < 0)


def _catalog(**exceptions) -> dict:
    """Every check passes except the given ids (with '_' for '-')."""
    return {cid: exceptions.get(cid.replace("-", "_"), "pass")
            for cid in CHECK_IDS}


def _schoenberg(conditional, states) -> dict:
    return {"conditional": conditional, **dict(zip(T_SAMPLES, states))}


DEGREE = 2  # max degree of every call; see the module docstring

WORKLOADS = {
    # Rewriting-heavy: CAR (integer coefficients, sign braiding) and q2
    # (diagonal braiding, rational coefficients, trivial L), whose expected
    # fail and two skips drive the catalog's fail and skip paths.
    "verify-quotients-d2": (
        Call("verify", "car.alg", DEGREE, _catalog()),
        Call("verify", "q2.alg", DEGREE,
             _catalog(cocommutative="fail", antipode_squared="skipped",
                      st_inverse="skipped"),
             witness=(("cocommutative", "{first} {first}"),)),
    ),
    # No relations, so rewriting is bypassed and deform and TPoly carry the
    # run.
    "verify-freec-d2": (
        Call("verify", "freec.alg", DEGREE, _catalog()),
    ),
    # The only workload where psd_exact does real work: a 14x14 or 15x15
    # Gram matrix per verdict; the sign-flipped twin takes the not-psd path.
    "schoenberg-car2-d2": (
        Call("schoenberg", "car2.alg", DEGREE,
             _schoenberg("pass", ("pass",) * 4), psi="car2.psi"),
        Call("schoenberg", "car2-negL.alg", DEGREE,
             _schoenberg("fail", ("pass", "fail", "fail", "fail")),
             psi="car2.psi"),
    ),
}
