"""Presented *-algebras with a chosen braiding, read from .alg files, and
the support tables of a functional psi on them, read from .psi files.

A presentation fixes: an ordered generator alphabet with grades and an
involution pairing, a braiding (graded-sign or diagonal), a normal-ordering
rewrite system (two-letter left sides only), an optional cocycle support
table, and an antipode table.  Both file formats go through one section
reader, and every '= value' scalar through parse_scalar, the element
grammar without generators.  Parsing validates everything that can be
checked locally, and puts every right-side word below its left side, so
rewriting terminates.  The global properties have their own check
functions below, which take the Algebra over the presentation and rewrite
only through it: confluence, decided on the overlap ambiguities, and
compatibility of the structure maps with the quotient.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .scalars import S_ZERO, Scalar, from_abd, poly_str, signed_sum

Word = tuple  # tuple[int, ...): generator indices; () is the unit monomial

# 'i' is the imaginary unit and 't' the deformation parameter in output,
# so neither may name a generator.
_RESERVED = {"i", "t"}

# a generator name: the word token of element expressions
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN = re.compile(rf"\d+/\d+|\d+|{_NAME}|\S")


class PresentationError(ValueError):
    """Parse or validation failure, with the 1-based source line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class Report:
    """Outcome of a single check.

    status is 'pass', 'fail' or 'skipped'; witness is present only on
    failure and serializes with string values throughout.
    """

    id: str
    status: str
    degree: int
    witness: dict | None = None

    def ok(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        d = {"id": self.id, "status": self.status, "degree": self.degree}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass(frozen=True)
class Rule:
    lhs: Word                                  # two letters, strictly descending
    rhs: tuple                                 # ((Word, Scalar), ...) sorted by word


@dataclass(frozen=True)
class AlgebraPresentation:
    name: str
    generators: tuple
    grades: tuple                              # by generator index
    star: tuple                                # involution as an index map
    braiding_kind: str                         # 'graded-sign' | 'diagonal'
    braiding_table: tuple | None               # row g, column h -> Scalar c(g, h)
    rules: tuple                               # of Rule
    cocycle: tuple                             # ((Word, Word, Scalar), ...)
    antipode: tuple                            # per generator: ((Word, Scalar), ...)

    def word_str(self, w: Word) -> str:
        return " ".join(self.generators[k] for k in w) if w else "1"


# ---------------------------------------------------------------------------
# element expressions and scalars


def _gen(names: dict, sym: str, line: int | None) -> int:
    """The index of the generator named sym."""
    try:
        return names[sym]
    except KeyError:
        raise PresentationError(f"unknown generator {sym!r}", line) from None


def parse_element_terms(text: str, names: dict, line: int | None = None):
    """Parse a Scalar-weighted sum of words over the given alphabet.

    Terms are separated by + / -, each an optional coefficient (rational,
    optionally followed by i, or bare i) juxtaposed with zero or more
    generator symbols.  Returns a dict Word -> Scalar with zeros dropped.
    """
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise PresentationError("empty element expression", line)
    terms: dict = {}
    pos = 0
    first = True
    while pos < len(tokens):
        sign = 1
        while pos < len(tokens) and tokens[pos] in "+-":
            if tokens[pos] == "-":
                sign = -sign
            pos += 1
            first = False
        if pos >= len(tokens):
            raise PresentationError("dangling sign in element expression", line)
        if not first and sign == 1 and tokens[pos - 1] not in "+-":
            raise PresentationError(
                f"expected + or - before {tokens[pos]!r}", line)
        first = False
        coeff = Scalar(1)
        have_coeff = False
        tok = tokens[pos]
        if re.fullmatch(r"\d+(/\d+)?", tok):
            try:
                coeff = Scalar(Fraction(tok))
            except ZeroDivisionError:
                raise PresentationError(
                    f"malformed scalar {tok!r}", line) from None
            have_coeff = True
            pos += 1
            tok = tokens[pos] if pos < len(tokens) else None
        if tok == "i":
            coeff = coeff * Scalar(0, 1)
            have_coeff = True
            pos += 1
        word = []
        while pos < len(tokens) and re.fullmatch(_NAME, tokens[pos]):
            sym = tokens[pos]
            if sym == "i":
                raise PresentationError("'i' is reserved for the imaginary unit", line)
            word.append(_gen(names, sym, line))
            pos += 1
        if not word and not have_coeff:
            raise PresentationError(
                f"unexpected token {tokens[pos]!r} in element expression", line)
        if pos < len(tokens) and tokens[pos] not in "+-":
            raise PresentationError(
                f"unexpected token {tokens[pos]!r} in element expression", line)
        key = tuple(word)
        c = sign * coeff if sign == -1 else coeff
        if key in terms:
            terms[key] = terms[key] + c
        else:
            terms[key] = c
    return {w: c for w, c in terms.items() if c}


def parse_scalar(text: str, line: int | None = None) -> Scalar:
    """A scalar value: an element expression without generators, so
    'a/b + c/d i' and '1 + 2' read, and '2 3' or '1 / 2' does not."""
    try:
        terms = parse_element_terms(text, {}, line)
    except PresentationError:
        raise PresentationError(f"malformed scalar {text!r}", line) from None
    return terms.get((), S_ZERO)


def _parse_word(text: str, names: dict, line: int | None = None) -> Word:
    return tuple(_gen(names, tok, line) for tok in text.split())


# ---------------------------------------------------------------------------
# file parsing

_SECTIONS = ("algebra", "braiding", "relations", "cocycle", "antipode")


def _read_sections(text: str, known) -> dict:
    """The sections of an .alg or .psi file, as a dict from the name of each
    section present to its (line number, text) lines, with comments and
    blank lines dropped.  Text after a header is the section's first line."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"^\[([a-z-]+)\]\s*(.*)$", line)
        if m:
            current, line = m.group(1), m.group(2).strip()
            if current not in known:
                raise PresentationError(f"unknown section [{current}]", lineno)
            if current in sections:
                raise PresentationError(f"duplicate section [{current}]", lineno)
            sections[current] = []
            if not line:
                continue
        if current is None:
            raise PresentationError(f"content before any section: {line!r}", lineno)
        sections[current].append((lineno, line))
    return sections


def parse_presentation(text: str) -> AlgebraPresentation:
    """Parse an .alg file; raises PresentationError with a line number."""
    sections = {name: [] for name in _SECTIONS} | _read_sections(text, _SECTIONS)
    meta, linenos = _parse_keyvals(sections["algebra"], "algebra")
    name = meta.get("name")
    if not name:
        raise PresentationError("missing 'name' in [algebra]")
    gens = tuple(meta.get("generators", "").split())
    if not gens:
        raise PresentationError("missing 'generators' in [algebra]")
    lineno = linenos["generators"]
    if len(set(gens)) != len(gens):
        raise PresentationError("duplicate generator", lineno)
    for g in gens:
        if g in _RESERVED:
            raise PresentationError(f"generator name {g!r} is reserved", lineno)
        if not re.fullmatch(_NAME, g):
            raise PresentationError(
                f"generator name {g!r} must match {_NAME}", lineno)
    names = {g: k for k, g in enumerate(gens)}

    star = _parse_involution(meta, linenos, names, gens)
    grades = _parse_grades(meta, linenos, names, gens, star)
    kind, table = _parse_braiding(sections["braiding"], names, gens)
    rules = _parse_rules(sections["relations"], names, gens)
    cocycle = tuple((left, right, val) for (left, right), val in _parse_table(
        sections["cocycle"], "m | n", names, rules, "cocycle").items())
    antipode = _parse_antipode(sections["antipode"], names, gens, star)

    return AlgebraPresentation(
        name=name, generators=gens, grades=grades, star=star,
        braiding_kind=kind, braiding_table=table, rules=rules,
        cocycle=cocycle, antipode=antipode,
    )


def parse_psi(text: str, pres: AlgebraPresentation) -> dict:
    """Parse a .psi support table, one [psi] section of 'word = scalar'
    lines, as a dict from each word to its Scalar."""
    sections = _read_sections(text, ("psi",))
    if "psi" not in sections:
        raise PresentationError("missing [psi] section")
    names = {g: k for k, g in enumerate(pres.generators)}
    table = _parse_table(sections["psi"], "word", names, pres.rules, "psi")
    return {word: val for (word,), val in table.items()}


def _parse_keyvals(lines, section):
    """The key = value lines of a section as two dicts from each key, with
    its whitespace collapsed: to its value, and to its line number."""
    out, linenos = {}, {}
    for lineno, line in lines:
        key, eq, val = line.partition("=")
        if not eq:
            raise PresentationError(f"expected 'key = value' in [{section}]", lineno)
        key = " ".join(key.split())
        if key in out:
            raise PresentationError(f"duplicate key {key!r} in [{section}]", lineno)
        out[key] = val.strip()
        linenos[key] = lineno
    return out, linenos


def _parse_gen_map(meta, linenos, key, names, entry):
    """The 'g:v' entries of the [algebra] key as (index of g, v) pairs, and
    the key's line number."""
    spec = meta.get(key)
    if spec is None:
        raise PresentationError(f"missing {key!r} in [algebra]")
    lineno = linenos[key]
    pairs = []
    for item in spec.split():
        sym, colon, val = item.partition(":")
        if not colon:
            raise PresentationError(f"malformed {entry} {item!r}", lineno)
        pairs.append((_gen(names, sym, lineno), val))
    return pairs, lineno


def _parse_involution(meta, linenos, names, gens):
    pairs, lineno = _parse_gen_map(meta, linenos, "involution", names,
                                   "involution pair")
    star = [None] * len(gens)
    for ia, b in pairs:
        ib = _gen(names, b, lineno)
        for i, j in ((ia, ib), (ib, ia)):
            if star[i] is not None and star[i] != j:
                raise PresentationError(
                    f"involution is not involutive at {gens[i]!r}", lineno)
            star[i] = j
    for k, g in enumerate(gens):
        if star[k] is None:
            raise PresentationError(f"generator {g!r} missing from involution", lineno)
    return tuple(star)


def _parse_grades(meta, linenos, names, gens, star):
    pairs, lineno = _parse_gen_map(meta, linenos, "grade", names,
                                   "grade entry")
    grades = [None] * len(gens)
    for k, val in pairs:
        if not (val.isascii() and val.isdigit()):
            raise PresentationError(f"malformed grade {val!r}", lineno)
        grades[k] = int(val)
    for k, g in enumerate(gens):
        if grades[k] is None:
            raise PresentationError(f"generator {g!r} missing from grade map", lineno)
        if grades[k] != grades[star[k]]:
            raise PresentationError(
                f"grade of {g!r} differs from its involution image", lineno)
    return tuple(grades)


def _parse_braiding(lines, names, gens):
    if not lines:
        raise PresentationError("missing [braiding] section")
    vals, linenos = _parse_keyvals(lines, "braiding")
    kind = vals.pop("kind", None)
    if kind is None:
        raise PresentationError("missing 'kind' in [braiding]")
    if kind not in ("graded-sign", "diagonal"):
        raise PresentationError(f"unknown braiding kind {kind!r}", linenos["kind"])
    entries = {}
    for key, val in vals.items():
        lineno = linenos[key]
        pair = key.split()
        if len(pair) != 2:
            raise PresentationError(
                f"diagonal braiding entries look like 'g h = scalar', got {key!r}",
                lineno)
        g, h = (_gen(names, sym, lineno) for sym in pair)
        entries[g, h] = parse_scalar(val, lineno)
        if not entries[g, h]:
            raise PresentationError(
                "diagonal braiding coefficients must be nonzero", lineno)
    if kind == "graded-sign":
        if entries:
            raise PresentationError("graded-sign braiding takes no table entries",
                                    linenos[next(iter(vals))])
        return kind, None
    n = range(len(gens))
    for g, h in product(n, n):
        if (g, h) not in entries:
            raise PresentationError(
                f"missing diagonal braiding entry for {gens[g]} {gens[h]}",
                linenos["kind"])
    return kind, tuple(tuple(entries[g, h] for h in n) for g in n)


def _parse_rules(lines, names, gens):
    rules = []
    seen = set()
    for lineno, line in lines:
        if "=" not in line:
            raise PresentationError("expected 'lhs = rhs' relation", lineno)
        lhs_text, rhs_text = (s.strip() for s in line.split("=", 1))
        lhs = _parse_word(lhs_text, names, lineno)
        if len(lhs) != 2:
            raise PresentationError("relation left sides are two-letter words", lineno)
        if lhs[0] <= lhs[1]:
            raise PresentationError(
                "relation left side is already in normal order", lineno)
        terms = parse_element_terms(rhs_text, names, lineno)
        for w in terms:
            if len(w) not in (0, 2):
                raise PresentationError(
                    "relation right sides are sums of two-letter words and a constant",
                    lineno)
            if len(w) == 2:
                if w[0] > w[1]:
                    raise PresentationError(
                        f"right-side word {gens[w[0]]} {gens[w[1]]} is not in normal order",
                        lineno)
                if w[0] >= lhs[0]:
                    raise PresentationError(
                        "right-side words must start strictly below the left side "
                        "in generator order (rewriting would not terminate)",
                        lineno)
        rule = Rule(lhs=lhs, rhs=tuple(sorted(terms.items(), key=lambda kv: kv[0])))
        if (rule.lhs, rule.rhs) in seen:
            continue  # exact duplicate
        seen.add((rule.lhs, rule.rhs))
        rules.append(rule)
    return tuple(rules)


def is_normal_word(w, n: int, rules) -> bool:
    """Whether w is a word in the letters 0, ..., n - 1 that no rule of
    rules rewrites: no two adjacent letters form a rule's left side."""
    lhs = {r.lhs for r in rules}
    return (all(k in range(n) for k in w)
            and not any(p in lhs for p in zip(w, w[1:])))


def _parse_table(lines, shape, names, rules, section):
    """The 'key = scalar' lines of a [cocycle] or [psi] section as a dict
    from each key to its Scalar.  A key is one word per '|'-separated part
    of shape, and each word is a non-unit monomial in normal form."""
    table = {}
    for lineno, line in lines:
        key_text, eq, val = line.partition("=")
        parts = key_text.split("|")
        if not eq or len(parts) != shape.count("|") + 1:
            raise PresentationError(
                f"expected '{shape} = scalar' in [{section}]", lineno)
        key = tuple(_parse_word(part, names, lineno) for part in parts)
        if not all(key):
            raise PresentationError(
                f"{section} keys must not involve the unit", lineno)
        if not all(is_normal_word(w, len(names), rules) for w in key):
            raise PresentationError(
                f"{section} keys must be normal-form monomials", lineno)
        if key in table:
            raise PresentationError(f"duplicate {section} key", lineno)
        table[key] = parse_scalar(val.strip(), lineno)
    return table


def _parse_antipode(lines, names, gens, star):
    vals, linenos = _parse_keyvals(lines, "antipode")
    given = {_gen(names, sym, linenos[sym]):
             parse_element_terms(val, names, linenos[sym])
             for sym, val in vals.items()}

    def star_element(terms):
        # (sum c_w w)* with letters starred and words reversed
        out = {}
        for w, c in terms.items():
            key = tuple(star[k] for k in reversed(w))
            out[key] = out.get(key, Scalar(0)) + c.conj()
        return {w: c for w, c in out.items() if c}

    table = []
    for k in range(len(gens)):
        if k in given:
            terms = given[k]
        elif star[k] in given:
            # involution-image consistency: S(g*) = S(g)*
            terms = star_element(given[star[k]])
        else:
            terms = {(k,): Scalar(-1)}
        table.append(tuple(sorted(terms.items(), key=lambda kv: kv[0])))
    return tuple(table)


# ---------------------------------------------------------------------------
# printing element terms in the syntax parse_element_terms reads


def format_element_terms(terms, pres: AlgebraPresentation) -> str:
    """Element-expression syntax: 'i' is juxtaposed, so a coefficient with
    both parts is written as its real term plus its imaginary term on the
    same word, which the parser merges back."""
    bodies = []
    for w, c in sorted(terms, key=lambda kv: (-len(kv[0]), kv[0])):
        for v, unit in ((c.re, ""), (c.im, "i")):
            if not v:
                continue
            coeff = "" if abs(v) == 1 and (unit or w) else str(abs(v))
            word = pres.word_str(w) if w else ""
            body = " ".join(x for x in (coeff, unit, word) if x)
            bodies.append(f"- {body}" if v < 0 else body)
    return signed_sum(bodies)


# ---------------------------------------------------------------------------
# global checks


def check_confluence(alg) -> Report:
    """Pass iff rewriting is unambiguous: no inconsistent duplicate left
    sides, and every overlap ambiguity resolves.  An overlap is a word
    a b c whose pairs a b and b c are both left sides; rewriting either
    pair once and then normal-forming with alg.normal_form_word must give
    the same element.  Every right-side word lies below its left side, so
    rewriting terminates and by Bergman's diamond lemma this decides
    confluence.  alg is the Algebra over the presentation."""
    from .algebra import slot_map

    pres = alg.pres
    by_lhs = {}
    for rule in pres.rules:
        if rule.lhs in by_lhs and by_lhs[rule.lhs] != rule.rhs:
            return Report("confluence", "fail", 3, {
                "input": pres.word_str(rule.lhs),
                "lhs": format_element_terms(by_lhs[rule.lhs], pres),
                "rhs": format_element_terms(rule.rhs, pres),
            })
        by_lhs[rule.lhs] = rule.rhs

    overlaps = sorted((a, b, c) for a, b in by_lhs for b2, c in by_lhs
                      if b2 == b)
    for a, b, c in overlaps:
        left = {w + (c,): k for w, k in by_lhs[a, b]}
        right = {(a,) + w: k for w, k in by_lhs[b, c]}
        # each normal form's terms (word, triple): its coefficients are
        # constants, as the rules' are
        forms = [sorted((w, v[0]) for (w,), v in slot_map(
                     alg.element(side), 0, 1, alg.normal_form_word, 1)
                        .terms.items())
                 for side in (left, right)]
        if forms[0] != forms[1]:
            lhs, rhs = ([(w, from_abd(x)) for w, x in terms]
                        for terms in sorted(forms))
            return Report("confluence", "fail", 3, {
                "input": pres.word_str((a, b, c)),
                "lhs": format_element_terms(lhs, pres),
                "rhs": format_element_terms(rhs, pres),
            })
    return Report("confluence", "pass", 3)


def check_quotient_compatibility(alg, max_degree: int) -> Report:
    """Verify the ideal spanned by the relations is stable under the
    structure maps, so comultiplication, counit, braiding and antipode
    descend to the quotient.  Four sub-checks per rule:

    (a) the comultiplication of lhs - rhs is 0,
    (b) both sides share the same counit,
    (c) braiding any basis monomial across lhs - rhs normalizes to 0,
    (d) the antipode of lhs - rhs is 0.

    alg is the Algebra over the presentation; confluence is assumed.
    lhs - rhs is built in alg unreduced, and (a) and (d) compute on the
    quotient itself: alg's products normal-form as they go, and the
    normal form of confluent rules is a homomorphism.  (c) runs before
    (d): where the braiding does not respect a rule, (c) fails and names
    a letter that crosses the two sides differently, where (d) would print
    an antipode value whose braid coefficients depend on the words that
    stand for the relation.
    """
    from .algebra import Tensor, slot_map, tensor_product
    from .braidtensor import braid_at, comul

    pres = alg.pres

    def nf_slots(tensor):
        for i in range(tensor.rank):
            tensor = slot_map(tensor, i, 1, alg.normal_form_word, 1)
        return tensor

    def defect(subcheck, rhs, where):
        return Report("quotient-compat", "fail", max_degree, {
            "input": where, "subcheck": subcheck, "lhs": "0", "rhs": rhs})

    for rule in pres.rules:
        rel = alg.element({rule.lhs: 1} | {w: -c for w, c in rule.rhs})
        where = pres.word_str(rule.lhs)

        eps = rel.coefficient(((),))
        if eps:
            return defect("b", poly_str(eps), where)
        out = comul(alg, rel)
        if out.terms:
            return defect("a", alg.format(out), where)
        for m in alg.basis(max_degree):
            m1 = Tensor.basis((m,))
            for u in (tensor_product(m1, rel), tensor_product(rel, m1)):
                out = nf_slots(braid_at(alg, u, 0, 1, 1))
                if out.terms:
                    return defect("c", alg.format(out),
                                  f"{pres.word_str(m)} across {where}")
        out = alg.antipode(rel)
        if out.terms:
            return defect("d", alg.format(out), where)

    return Report("quotient-compat", "pass", max_degree)
