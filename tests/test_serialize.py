import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sylowtab import cyclo
from sylowtab.cyclo import MAX_CONDUCTOR, Cyc, cyc_root
from sylowtab.serialize import (GroupDocument, ParseError, ReportRow,
                                emit_group, emit_report, emit_table,
                                parse_cyc_expr, parse_group, parse_table,
                                parse_text_table, report_has_mismatch)
from table_reference import reference_value

TABLES_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "tables"
TABLE_FILES = sorted(TABLES_DIR.glob("*.json"))


@pytest.mark.parametrize("name", ["C2", "S4", "A5", "SL(2,9)", "M11"])
def test_table_round_trip(corpus, name):
    t = corpus.table(name)
    text = emit_table(t)
    t2 = parse_table(text)
    assert emit_table(t2) == text
    assert t2.chars == t.chars
    assert t2.power_maps == t.power_maps
    assert [(c.size, c.element_order) for c in t2.classes] \
        == [(c.size, c.element_order) for c in t.classes]


def test_group_round_trip():
    g = GroupDocument(degree=3, generators=((1, 2, 0), (1, 0, 2)),
                      name="S3", expected_order=6)
    assert parse_group(emit_group(g)) == g


def test_parse_errors_are_located():
    with pytest.raises(ParseError, match="power_maps"):
        parse_table('{"kind": "table", "group_order": 1,'
                    ' "classes": [], "characters": []}')
    with pytest.raises(ParseError, match="generators"):
        parse_group('{"kind": "group", "degree": 3, "generators": [[0, 1]]}')
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_table("{")


def test_parse_rejects_invalid_table(corpus):
    import json
    doc = json.loads(emit_table(corpus.table("S4")))
    doc["classes"][1]["size"] = 7  # breaks size sum and orthogonality
    with pytest.raises(ParseError, match="validation"):
        parse_table(json.dumps(doc))


def _permuted(text: str, seed: int) -> str:
    """The document with classes and characters reordered by the seed (class 0
    and row 0 stay first) and its power maps re-indexed."""
    doc = json.loads(text)
    rng = random.Random(seed)
    k = len(doc["classes"])
    cols = [0] + rng.sample(range(1, k), k - 1)
    rows = [0] + rng.sample(range(1, k), k - 1)
    new_of = {old: new for new, old in enumerate(cols)}
    doc["classes"] = [doc["classes"][c] for c in cols]
    doc["power_maps"] = {p: [new_of[m[c]] for c in cols] for p, m in doc["power_maps"].items()}
    doc["characters"] = [[doc["characters"][i][c] for c in cols] for i in rows]
    return json.dumps(doc, indent=1) + "\n"


@pytest.mark.parametrize("path", TABLE_FILES, ids=lambda p: p.stem)
def test_committed_tables_round_trip(path):
    text = path.read_text()
    assert emit_table(parse_table(text)) == text
    for seed in (1, 2):
        permuted = _permuted(text, seed)
        assert emit_table(parse_table(permuted)) == permuted


def _term_tuples(value):
    return [(t["conductor"], t["exponent"], t["numerator"], t["denominator"]) for t in value]


def _as_terms(tuples):
    return [{"conductor": n, "exponent": e, "numerator": a, "denominator": b}
            for n, e, a, b in tuples]


NONCANONICAL = {
    "non_minimal_conductor": lambda n, e, a, b: [(3 * n, 3 * e, a, b)],
    "exponent_above_phi": lambda n, e, a, b: [(n, e + 2 * n, a, b)],
    "negative_exponent": lambda n, e, a, b: [(n, e - n, a, b)],
    "repeated_terms": lambda n, e, a, b: [(n, e, a, 2 * b), (n, e, a, 2 * b)],
    "conductor_two_mod_four": lambda n, e, a, b: ([(2 * n, 2 * e, a, b)] if n % 2
                                                  else [(n, e, a, b)]),
}


@pytest.mark.parametrize("rewrite", NONCANONICAL, ids=str)
@pytest.mark.parametrize("name", ["A5", "SL_2_3", "SD16", "PSL_2_7", "M11"])
def test_noncanonical_terms_parse_to_the_same_values(name, rewrite):
    """Every term rewritten into an equal non-canonical form: the table
    parses to the same values, each equal to the full-orbit reference."""
    text = (TABLES_DIR / f"{name}.json").read_text()
    doc = json.loads(text)
    doc["characters"] = [[_as_terms(t for term in _term_tuples(v)
                                    for t in NONCANONICAL[rewrite](*term))
                          for v in row] for row in doc["characters"]]
    t = parse_table(json.dumps(doc))
    assert t.chars == parse_table(text).chars
    for row, terms_row in zip(t.chars, doc["characters"]):
        for v, terms in zip(row, terms_row):
            assert v == reference_value(_term_tuples(terms))
    assert emit_table(t) == text


@pytest.mark.parametrize("name", ["S9", "A5xQ8"])
def test_parse_canonicalizes_once_per_distinct_value(name, monkeypatch):
    """Values are memoized per document: each distinct value is canonicalized
    at most once, and a second parse of the same text starts afresh."""
    calls = []
    canonicalize = cyclo._canonicalize
    monkeypatch.setattr(cyclo, "_canonicalize",
                        lambda n, coeffs: calls.append(n) or canonicalize(n, coeffs))
    text = _permuted((TABLES_DIR / f"{name}.json").read_text(), 3)
    counts = []
    for _ in range(2):
        calls.clear()
        t = parse_table(text)
        counts.append(len(calls))
    values = {v for row in t.chars for v in row}
    assert counts[0] == counts[1] <= len(values)
    assert (counts[0] > 0) == any(v.n != 1 for v in values)


def _s4_doc():
    return json.loads((TABLES_DIR / "S4.json").read_text())


def test_term_over_conductor_cap_is_a_parse_error(monkeypatch):
    """An over-cap term is rejected by name before any value is built from it
    (the invalid term after it is not reached); so is a value whose terms
    need a conductor over the cap together."""
    canonicalized = []
    monkeypatch.setattr(cyclo, "_canonicalize", lambda n, c: canonicalized.append(n))
    doc = _s4_doc()
    big = MAX_CONDUCTOR + 1
    doc["characters"][1][1] = _as_terms([(3, 1, 1, 1), (big, 1, 1, 1), (0, 0, 1, 1)])
    with pytest.raises(ParseError, match=rf"characters\[1\]\[1\]\[1\]: conductor {big} exceeds"):
        parse_table(json.dumps(doc))
    doc["characters"][1][1] = _as_terms([(1031, 1, 1, 1), (1033, 1, 1, 1)])
    with pytest.raises(ParseError, match=r"characters\[1\]\[1\]: terms need conductor 1065023"):
        parse_table(json.dumps(doc))
    assert canonicalized == []


@pytest.mark.parametrize("field, bad", [("size", "abc"), ("size", [1]),
                                        ("order", "abc"), ("order", [1])])
def test_malformed_class_is_a_parse_error(field, bad):
    doc = _s4_doc()
    doc["classes"][2][field] = bad
    with pytest.raises(ParseError, match=r"classes\[2\]: bad class"):
        parse_table(json.dumps(doc))


def test_cyc_expr_parser():
    assert parse_cyc_expr("3") == Cyc.from_rational(Fraction(3))
    assert parse_cyc_expr("-2") == Cyc.from_rational(Fraction(-2))
    assert parse_cyc_expr("E(4)") == cyc_root(4, 1)
    assert parse_cyc_expr("E(5)^2+E(5)^3") == cyc_root(5, 2) + cyc_root(5, 3)
    assert parse_cyc_expr("2*E(3)+1") == 2 * cyc_root(3, 1) + Cyc.one()
    assert parse_cyc_expr("E(8)-E(8)^3") == cyc_root(8, 1) - cyc_root(8, 3)
    with pytest.raises(ParseError):
        parse_cyc_expr("E(8)^")
    with pytest.raises(ParseError):
        parse_cyc_expr("1 + $")


S3_TEXT = """\
order 6
centralizers 6 2 3
orders 1 2 3
powermap 2 1 1 3
powermap 3 1 2 1
char 1 1 1
char 1 -1 1
char 2 0 -1
"""


def test_text_table_import_validates():
    s3 = S3_TEXT
    t = parse_text_table(s3, name="S3")
    assert t.group_order == 6 and t.k == 3
    with pytest.raises(ParseError, match="power maps"):
        parse_text_table("order 2\nsizes 1 1\norders 1 2\nchar 1 1\nchar 1 -1\n")
    with pytest.raises(ParseError, match="validation"):
        parse_text_table(s3.replace("char 2 0 -1", "char 2 0 1"))


@pytest.mark.parametrize("line, replacement, message", [
    ("powermap 2 1 1 3", "powermap 2 1 1 4", r"line 4: power map entries must be classes 1\.\.3"),
    ("powermap 2 1 1 3", "powermap 2 1 1 0", r"line 4: power map entries"),
    ("powermap 3 1 2 1", "powermap 3 1 -2 1", r"line 5: power map entries"),
    ("char 1 -1 1", "char 1 -1/0 1", r"line 7: division by zero"),
    ("centralizers 6 2 3", "centralizers 6 0 3", r"line 2: centralizer order"),
    ("char 1 -1 1", "char 1 E(0) 1", r"line 7: E\(0\) needs a conductor"),
    ("order 6", "order 0", r"line 1: order must be a positive integer"),
])
def test_text_table_errors_are_located(line, replacement, message):
    with pytest.raises(ParseError, match=message):
        parse_text_table(S3_TEXT.replace(line, replacement))


def test_text_table_matches_dixon(corpus):
    """The importer and the Dixon engine agree on C4 up to row order."""
    c4 = """\
order 4
sizes 1 1 1 1
orders 1 4 2 4
powermap 2 1 3 1 3
char 1 1 1 1
char 1 E(4) -1 E(4)^3
char 1 -1 1 -1
char 1 E(4)^3 -1 E(4)
"""
    t = parse_text_table(c4)
    d = corpus.table("C4")
    assert {frozenset(r) for r in t.chars} == {frozenset(r) for r in d.chars}


def test_report_determinism_and_mismatch():
    rows = [
        ReportRow("S4", 2, "yes", "yes", False, 4, True, True, False),
        ReportRow("A5", 2, "yes", "no", True, 4, True, False, True),
    ]
    text = emit_report(rows)
    assert text == emit_report(list(reversed(rows)))
    assert text.splitlines()[1].startswith("group=A5")
    assert "MISMATCH" not in text
    assert not report_has_mismatch(rows)
    bad = [ReportRow("S4", 2, "no", "yes", False, 4, True, True, False)]
    assert report_has_mismatch(bad)
    assert "thmA_check=MISMATCH" in emit_report(bad)


def test_report_empty():
    assert emit_report([]) == "# sylowtab report v1\n"


def test_report_unknown_flag():
    rows = [ReportRow("X", 2, "unknown", "no", False, 1, True, False, False)]
    assert "thmA_check=UNKNOWN" in emit_report(rows)
    assert not report_has_mismatch(rows)
