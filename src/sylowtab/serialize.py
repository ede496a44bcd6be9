"""Bit-exact serialization: table/group documents, a text-table importer,
and the deterministic corpus report.

Table documents are JSON.  Every character value is a list of cyclotomic
terms {conductor, exponent, numerator, denominator}; no floats anywhere.
Emission is canonical (minimal conductors, power-basis terms sorted by
exponent, as `cyclo.power_terms` gives them), so parse/emit round-trips
are byte-identical.  Parsing accepts any terms (conductors need not be
minimal nor exponents reduced, terms may repeat): a value's terms are
summed at the lcm of their conductors and the sum is canonicalized
once.  Within one document, equal lists of parsed terms
share one value, so each distinct value is built once per parse.

The text importer accepts a small, documented line-based layout for
bringing in tables produced elsewhere (values may use E(n)^k syntax);
see parse_text_table.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .chartab import CharTable, ClassData, validate
from .cyclo import MAX_CONDUCTOR, Cyc, cyc_root, power_terms
from .numutil import lcm

SCHEMA_VERSION = 1


class ParseError(Exception):
    """A structured document error; `where` locates the offending field."""

    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


# -- cyclotomic terms -------------------------------------------------


def cyc_to_terms(v: Cyc) -> list[dict]:
    return [{"conductor": v.n, "exponent": e,
             "numerator": c.numerator, "denominator": c.denominator}
            for e, c in power_terms(v)]


def terms_to_cyc(terms, where: str, memo: dict) -> Cyc:
    """The value of a list of terms.  Every term is checked first; `memo`
    maps the parsed terms of values already built from the same document
    to those values."""
    if not isinstance(terms, list):
        raise ParseError("character value must be a list of terms", where)
    parsed = []
    for i, term in enumerate(terms):
        here = f"{where}[{i}]"
        if not isinstance(term, dict):
            raise ParseError("term must be an object", here)
        try:
            n = int(term["conductor"])
            e = int(term["exponent"])
            num = int(term["numerator"])
            den = int(term["denominator"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad term: {exc}", here) from None
        if n < 1 or den == 0:
            raise ParseError("conductor must be >= 1 and denominator nonzero", here)
        if n > MAX_CONDUCTOR:
            raise ParseError(f"conductor {n} exceeds cap {MAX_CONDUCTOR}", here)
        parsed.append((n, e, num, den))
    key = tuple(parsed)
    if key not in memo:
        memo[key] = _sum_terms(key, where)
    return memo[key]


def _sum_terms(terms, where: str) -> Cyc:
    """sum num/den * zeta_n^e as one Cyc at the lcm of the conductors."""
    m = 1
    for n, *_ in terms:
        m = lcm(m, n)
        if m > MAX_CONDUCTOR:
            raise ParseError(f"terms need conductor {m}, over the cap {MAX_CONDUCTOR}",
                             where)
    coeffs: dict[int, Fraction] = {}
    for n, e, num, den in terms:
        k = e % n * (m // n)
        coeffs[k] = coeffs.get(k, 0) + Fraction(num, den)
    if m == 1:
        return Cyc.from_rational(coeffs.get(0, 0))
    return Cyc(m, coeffs)


# -- table documents --------------------------------------------------


def emit_table(t: CharTable) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "table",
        "name": t.name,
        "group_order": t.group_order,
        "classes": [{"size": c.size, "order": c.element_order,
                     **({"name": c.name} if c.name else {})}
                    for c in t.classes],
        "power_maps": {str(p): list(m) for p, m in sorted(t.power_maps.items())},
        "characters": [[cyc_to_terms(v) for v in row] for row in t.chars],
    }
    return json.dumps(doc, indent=1) + "\n"


def parse_table(text: str) -> CharTable:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be an object")
    if doc.get("kind", "table") != "table":
        raise ParseError(f"not a table document (kind={doc.get('kind')!r})", "kind")
    for key in ("group_order", "classes", "power_maps", "characters"):
        if key not in doc:
            raise ParseError(f"missing required field {key!r}", key)
    order = doc["group_order"]
    if not isinstance(order, int) or order < 1:
        raise ParseError("group_order must be a positive integer", "group_order")
    if not isinstance(doc["classes"], list):
        raise ParseError("classes must be a list", "classes")
    classes = []
    for i, c in enumerate(doc["classes"]):
        where = f"classes[{i}]"
        if not isinstance(c, dict) or "size" not in c or "order" not in c:
            raise ParseError("class needs size and order", where)
        try:
            size, element_order = int(c["size"]), int(c["order"])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad class: {exc}", where) from None
        classes.append(ClassData(size=size, element_order=element_order,
                                 name=c.get("name")))
    k = len(classes)
    power_maps = {}
    if not isinstance(doc["power_maps"], dict) or not doc["power_maps"]:
        raise ParseError("power maps required", "power_maps")
    for key, pm in doc["power_maps"].items():
        where = f"power_maps[{key}]"
        try:
            p = int(key)
        except ValueError:
            raise ParseError("prime key must be an integer", where) from None
        if not isinstance(pm, list) or len(pm) != k:
            raise ParseError(f"power map must list {k} class indices", where)
        if any(not isinstance(x, int) or not 0 <= x < k for x in pm):
            raise ParseError("class index out of range", where)
        power_maps[p] = pm
    chars = []
    if not isinstance(doc["characters"], list) or len(doc["characters"]) != k:
        raise ParseError(f"need exactly {k} characters", "characters")
    memo: dict = {}
    for i, row in enumerate(doc["characters"]):
        if not isinstance(row, list) or len(row) != k:
            raise ParseError(f"need exactly {k} values", f"characters[{i}]")
        chars.append([terms_to_cyc(v, f"characters[{i}][{c}]", memo)
                      for c, v in enumerate(row)])
    t = CharTable(order, classes, power_maps, chars, name=doc.get("name"))
    bad = validate(t)
    if bad:
        raise ParseError("; ".join(bad), "validation")
    return t


# -- group documents --------------------------------------------------


@dataclass(frozen=True)
class GroupDocument:
    degree: int
    generators: tuple[tuple[int, ...], ...]
    name: str | None = None
    expected_order: int | None = None


def emit_group(g: GroupDocument) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "group",
        "name": g.name,
        "degree": g.degree,
        "generators": [list(gen) for gen in g.generators],
    }
    if g.expected_order is not None:
        doc["expected_order"] = g.expected_order
    return json.dumps(doc, indent=1) + "\n"


def parse_group(text: str) -> GroupDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("kind", "group") != "group":
        raise ParseError("not a group document")
    degree = doc.get("degree")
    gens = doc.get("generators")
    if not isinstance(degree, int) or degree < 1:
        raise ParseError("degree must be a positive integer", "degree")
    if not isinstance(gens, list) or not gens:
        raise ParseError("at least one generator required", "generators")
    out = []
    for i, gen in enumerate(gens):
        where = f"generators[{i}]"
        if not isinstance(gen, list) or len(gen) != degree:
            raise ParseError(f"generator must list {degree} images", where)
        if sorted(gen) != list(range(degree)):
            raise ParseError("not a permutation of 0..degree-1", where)
        out.append(tuple(gen))
    exp = doc.get("expected_order")
    if exp is not None and (not isinstance(exp, int) or exp < 1):
        raise ParseError("expected_order must be a positive integer", "expected_order")
    return GroupDocument(degree=degree, generators=tuple(out),
                         name=doc.get("name"), expected_order=exp)


# -- text-table importer ----------------------------------------------

_TOKEN = re.compile(r"\s*(E\(\d+\)|\^|\d+|[+*/-])")


def parse_cyc_expr(s: str, where: str = "value") -> Cyc:
    """Parse a sum of products of integers and roots of unity.

    Grammar (no parentheses beyond E(n)):
        expr   := term ((+|-) term)*
        term   := factor (('*'|'/') factor)*
        factor := integer | E(n) | E(n)^k
    """
    pos = 0
    tokens = []
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise ParseError(f"cannot tokenize {s[pos:]!r}", where)
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ParseError("empty value", where)
    i = 0

    def factor() -> Cyc:
        nonlocal i
        if i >= len(tokens):
            raise ParseError("unexpected end of value", where)
        tok = tokens[i]
        i += 1
        if tok == "-":
            return -factor()
        if tok.isdigit():
            return Cyc.from_rational(Fraction(int(tok)))
        if not tok.startswith("E("):
            raise ParseError(f"unexpected token {tok!r}", where)
        n = int(tok[2:-1])
        if not 1 <= n <= MAX_CONDUCTOR:
            raise ParseError(f"E({n}) needs a conductor in 1..{MAX_CONDUCTOR}", where)
        e = 1
        if i < len(tokens) and tokens[i] == "^":
            i += 1
            if i >= len(tokens) or not tokens[i].isdigit():
                raise ParseError("exponent expected after ^", where)
            e = int(tokens[i])
            i += 1
        return cyc_root(n, e)

    def term() -> Cyc:
        nonlocal i
        v = factor()
        while i < len(tokens) and tokens[i] in "*/":
            op = tokens[i]
            i += 1
            rhs = factor()
            if op == "/" and rhs.is_zero():
                raise ParseError("division by zero", where)
            v = v * rhs if op == "*" else v / rhs
        return v

    v = term()
    while i < len(tokens) and tokens[i] in "+-":
        op = tokens[i]
        i += 1
        rhs = term()
        v = v + rhs if op == "+" else v - rhs
    if i != len(tokens):
        raise ParseError(f"trailing tokens {tokens[i:]!r}", where)
    return v


def parse_text_table(text: str, name: str | None = None) -> CharTable:
    """Import a table from a line-based text layout.

    Recognized lines (blank lines and '#' comments ignored):
        order N
        sizes s1 s2 ... sk            (class sizes)  -- or --
        centralizers c1 c2 ... ck     (centralizer orders)
        orders o1 o2 ... ok           (element orders)
        powermap p j1 j2 ... jk       (1-based image classes; one per prime)
        char v1 v2 ... vk             (one per irreducible; values may use
                                       E(n), E(n)^k, products, and sums
                                       written without internal spaces)
    """
    order = None
    sizes: list[int] | None = None
    orders: list[int] | None = None
    power_maps: dict[int, list[int]] = {}
    power_map_lines: dict[int, str] = {}
    rows: list[list[Cyc]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {ln}"
        head, *rest = line.split()
        try:
            if head == "order":
                order = int(rest[0])
                if order < 1:
                    raise ParseError("order must be a positive integer", where)
            elif head == "sizes":
                sizes = [int(x) for x in rest]
            elif head == "centralizers":
                if order is None:
                    raise ParseError("'order' must precede 'centralizers'", where)
                cents = [int(x) for x in rest]
                if any(c < 1 or order % c for c in cents):
                    raise ParseError("centralizer order does not divide |G|", where)
                sizes = [order // c for c in cents]
            elif head == "orders":
                orders = [int(x) for x in rest]
            elif head == "powermap":
                power_maps[int(rest[0])] = [int(x) for x in rest[1:]]
                power_map_lines[int(rest[0])] = where
            elif head == "char":
                rows.append([parse_cyc_expr(x, where) for x in rest])
            else:
                raise ParseError(f"unrecognized directive {head!r}", where)
        except (ValueError, IndexError) as exc:
            raise ParseError(f"malformed line: {exc}", where) from None
    if order is None or sizes is None or orders is None:
        raise ParseError("order, sizes/centralizers, and orders are all required")
    if not power_maps:
        raise ParseError("power maps required")
    if len(orders) != len(sizes):
        raise ParseError("orders and sizes disagree on the class count")
    k = len(sizes)
    for p, pm in power_maps.items():
        if any(not 1 <= x <= k for x in pm):
            raise ParseError(f"power map entries must be classes 1..{k}", power_map_lines[p])
        power_maps[p] = [x - 1 for x in pm]
    classes = [ClassData(size=s, element_order=o) for s, o in zip(sizes, orders)]
    t = CharTable(order, classes, power_maps, rows, name=name)
    bad = validate(t)
    if bad:
        raise ParseError("; ".join(bad), "validation")
    return t


# -- reports ----------------------------------------------------------

REPORT_VERSION = 1


@dataclass(frozen=True)
class ReportRow:
    group: str
    p: int
    thm_a: str                    # "yes" | "no" | "unknown"
    thm_b: str
    abelian_sylow: bool
    height_zero_principal: int
    oracle_commutator_p2: bool | None = None
    oracle_center_p2: bool | None = None
    oracle_abelian: bool | None = None

    def checks(self) -> dict[str, str]:
        def against(verdict: str, truth: bool | None) -> str:
            if truth is None:
                return "-"
            if verdict == "unknown":
                return "UNKNOWN"
            return "MATCH" if verdict == ("yes" if truth else "no") else "MISMATCH"

        out = {"thmA": against(self.thm_a, self.oracle_commutator_p2),
               "thmB": against(self.thm_b, self.oracle_center_p2)}
        if self.oracle_abelian is None:
            out["abelian"] = "-"
        else:
            out["abelian"] = ("MATCH" if self.abelian_sylow == self.oracle_abelian
                              else "MISMATCH")
        return out

    def as_dict(self) -> dict:
        d = {"group": self.group, "p": self.p, "thmA": self.thm_a,
             "thmB": self.thm_b, "abelian_sylow": self.abelian_sylow,
             "height_zero_principal": self.height_zero_principal}
        if self.oracle_commutator_p2 is not None:
            d["oracle"] = {"commutator_p2": self.oracle_commutator_p2,
                           "center_p2": self.oracle_center_p2,
                           "abelian": self.oracle_abelian}
        d["checks"] = self.checks()
        return d


def emit_report(rows) -> str:
    """Deterministic machine-readable report, one line per (group, prime)."""
    out = [f"# sylowtab report v{REPORT_VERSION}"]
    for r in sorted(rows, key=lambda r: (r.group, r.p)):
        checks = r.checks()
        fields = [f"group={r.group}", f"p={r.p}", f"thmA={r.thm_a}",
                  f"thmB={r.thm_b}",
                  f"abelian_sylow={'yes' if r.abelian_sylow else 'no'}",
                  f"hz0={r.height_zero_principal}"]
        if r.oracle_commutator_p2 is not None:
            fields += [
                f"oracle_comm={'yes' if r.oracle_commutator_p2 else 'no'}",
                f"oracle_center={'yes' if r.oracle_center_p2 else 'no'}",
                f"oracle_abelian={'yes' if r.oracle_abelian else 'no'}"]
        fields += [f"thmA_check={checks['thmA']}", f"thmB_check={checks['thmB']}",
                   f"abelian_check={checks['abelian']}"]
        out.append(" ".join(fields))
    return "\n".join(out) + "\n"


def report_has_mismatch(rows) -> bool:
    return any("MISMATCH" in r.checks().values() for r in rows)
