"""Seeded input generators for the benchmark workloads.

The generators build presentation (.alg) and support-table (.psi) text:

* n-mode CAR: generators x_k, xs_k of grade 1 with the sign braiding,
  every pair of distinct generators anticommuting, and the cocycle
  ``xs_k | x_k = w``;
* q2: the diagonal braiding at q = 2, without a cocycle;
* the free *-algebra with a cocycle: grade-0 generators x_k, xs_k, no
  relations, and ``xs_k | x_k = w``, ``x_k | xs_k = w``.

The seed picks only the generator declaration order and, for the catalog
workloads, the small positive weight w; the expected verdicts do not depend
on it.  With DEFAULT_SEED the
inputs are the packaged car.alg and q2.alg fixtures.

Run as a script this module is the set-up probe: it imports braidhopf from
the checkout, writes the inputs of one workload, parses each presentation
back, and prints ``ready``:

    python3 perfbench/inputs.py --workload verify-quotients-d2 --seed 0 \
        --out perfbench/out/inputs
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = SRC / "braidhopf" / "fixtures"
DEFAULT_SEED = 0
WEIGHTS = (1, 2, 3)


def mode_names(n: int) -> list:
    """Generator pairs (g, g*) of n modes: x, xs for one mode, else a, as,
    b, bs, ..."""
    if n == 1:
        return [("x", "xs")]
    return [(chr(ord("a") + k), chr(ord("a") + k) + "s") for k in range(n)]


def _algebra_section(name, order, pairs, grade):
    return [
        "[algebra]",
        f"name = {name}",
        "generators = " + " ".join(order),
        "involution = " + " ".join(f"{g}:{gs}" for g, gs in pairs),
        "grade = " + " ".join(f"{g}:{grade}" for g in order),
        "",
    ]


def _check_order(order, pairs):
    if sorted(order) != sorted(g for p in pairs for g in p):
        raise ValueError(f"declaration order {order} does not list the "
                         "generators exactly once")


def car_presentation(n: int, order, w: int, name: str = "") -> str:
    """n-mode CAR; relations rewrite every descending pair g h (g declared
    after h) to - h g."""
    pairs = mode_names(n)
    _check_order(order, pairs)
    lines = _algebra_section(name or ("car" if n == 1 else f"car{n}"),
                             order, pairs, 1)
    lines += ["[braiding]", "kind = graded-sign", "", "[relations]"]
    for j, g in enumerate(order):
        for h in order[:j]:
            lines.append(f"{g} {h} = - {h} {g}")
    lines += ["", "[cocycle]"]
    lines += [f"{gs} | {g} = {w}" for g, gs in pairs]
    return "\n".join(lines) + "\n"


def q2_presentation(order) -> str:
    """One mode with the diagonal braiding at q = 2 and the relation
    xs x = 1/2 x xs, written in the declaration order; no cocycle."""
    pairs = mode_names(1)
    _check_order(order, pairs)
    lines = _algebra_section("q2", order, pairs, 1)
    lines += ["[braiding]", "kind = diagonal",
              "x x = 2", "x xs = 2", "xs x = 1/2", "xs xs = 1/2",
              "", "[relations]"]
    if tuple(order) == ("x", "xs"):
        lines.append("xs x = 1/2 x xs")
    else:
        lines.append("x xs = 2 xs x")
    return "\n".join(lines) + "\n"


def free_cocycle_presentation(n: int, order, w: int) -> str:
    """Free *-algebra on n grade-0 pairs with the cocycle xs_k | x_k = w,
    x_k | xs_k = w; rewriting never applies."""
    pairs = mode_names(n)
    _check_order(order, pairs)
    lines = _algebra_section("freec" if n == 1 else f"freec{n}", order,
                             pairs, 0)
    lines += ["[braiding]", "kind = graded-sign", "", "[cocycle]"]
    for g, gs in pairs:
        lines += [f"{gs} | {g} = {w}", f"{g} | {gs} = {w}"]
    return "\n".join(lines) + "\n"


def car_psi(n: int, order, v: int) -> str:
    """psi(x_k xs_k) = v on every mode, each key in normal form."""
    lines = ["[psi]"]
    for g, gs in mode_names(n):
        if order.index(g) < order.index(gs):
            lines.append(f"{g} {gs} = {v}")
        else:
            lines.append(f"{gs} {g} = -{v}")  # x xs = - xs x
    return "\n".join(lines) + "\n"


def _order(rng, n):
    order = [g for p in mode_names(n) for g in p]
    if rng is not None:
        rng.shuffle(order)
    return order


def make_inputs(workload: str, seed: int) -> dict:
    """File name -> text for one workload and seed."""
    rng = None if seed == DEFAULT_SEED else random.Random(seed)

    def weight():
        return 1 if rng is None else rng.choice(WEIGHTS)

    if workload == "verify-quotients-d2":
        return {"car.alg": car_presentation(1, _order(rng, 1), weight()),
                "q2.alg": q2_presentation(_order(rng, 1))}
    if workload == "verify-freec-d2":
        return {"freec.alg": free_cocycle_presentation(1, _order(rng, 1),
                                                       weight())}
    if workload == "schoenberg-car2-d2":
        # Fixed weights: at degree 4 the exact pivoting in the positivity
        # decision cost up to 1.5x more with larger weights, which would
        # make the timing depend on the seed.  psi . mu + L is conditionally
        # positive exactly when v <= w, and at v = w the Gram matrix
        # degenerates.
        order, w, v = _order(rng, 2), 2, 1
        return {"car2.alg": car_presentation(2, order, w),
                "car2-negL.alg": car_presentation(2, order, -w,
                                                  name="car2-negL"),
                "car2.psi": car_psi(2, order, v)}
    raise ValueError(f"unknown workload {workload!r}")


def import_braidhopf():
    """Import braidhopf from the checkout's src/, never from elsewhere."""
    if not (SRC / "braidhopf" / "__init__.py").is_file():
        raise ImportError(f"no braidhopf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import braidhopf
    if Path(braidhopf.__file__).resolve().parent != SRC / "braidhopf":
        raise ImportError(f"braidhopf imported from {braidhopf.__file__}")
    return braidhopf


def check_default_inputs(braidhopf) -> None:
    """With the default seed the one-mode inputs parse to exactly the
    packaged fixtures, so they yield the same reports."""
    parse = braidhopf.parse_presentation
    for name, text in make_inputs("verify-quotients-d2",
                                  DEFAULT_SEED).items():
        fixture = (FIXTURES / name).read_text(encoding="utf-8")
        if parse(text) != parse(fixture):
            raise ValueError(f"default-seed {name} differs from the fixture")


def write_inputs(braidhopf, workload: str, seed: int, out: Path) -> None:
    """Write the inputs and parse each presentation back."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in make_inputs(workload, seed).items():
        path = out / name
        path.write_text(text, encoding="utf-8")
        if name.endswith(".alg"):
            braidhopf.parse_presentation(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    braidhopf = import_braidhopf()
    check_default_inputs(braidhopf)
    write_inputs(braidhopf, args.workload, args.seed, args.out)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
