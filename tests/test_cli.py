import json
import time
from pathlib import Path

import pytest

from sylowtab.chartab import CharTable, ClassData
from sylowtab.cli import main
from sylowtab.corpus import _direct_product, _psl2_perms
from sylowtab.cyclo import Cyc, cyc_root
from sylowtab.numutil import prime_divisors
from sylowtab.serialize import GroupDocument, emit_group, emit_table


@pytest.fixture()
def s4_table_file(corpus, tmp_path):
    path = tmp_path / "s4.json"
    path.write_text(emit_table(corpus.table("S4")))
    return str(path)


@pytest.fixture()
def sl29_group_file(corpus, tmp_path):
    e = corpus.entry("SL(2,9)")
    doc = GroupDocument(e.degree, e.generators, e.name, e.expected_order)
    path = tmp_path / "sl29.json"
    path.write_text(emit_group(doc))
    return str(path)


def test_analyze_all_primes(s4_table_file, capsys):
    assert main(["analyze", s4_table_file, "--all-primes"]) == 0
    out = capsys.readouterr().out
    assert "p=2 thmA=yes thmB=yes" in out
    assert "p=3 thmA=no thmB=no" in out


def test_analyze_single_prime_json(s4_table_file, capsys):
    assert main(["analyze", s4_table_file, "--p", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    (row,) = doc["rows"]
    assert row["thmA"] == "yes" and row["thmB"] == "yes"


def test_analyze_text_layout(tmp_path, capsys):
    path = tmp_path / "s3.tbl"
    path.write_text("order 6\ncentralizers 6 2 3\norders 1 2 3\n"
                    "powermap 2 1 1 3\npowermap 3 1 2 1\n"
                    "char 1 1 1\nchar 1 -1 1\nchar 2 0 -1\n")
    assert main(["analyze", str(path), "--all-primes"]) == 0
    assert "thmA=no" in capsys.readouterr().out


def test_oracle_cross_check(sl29_group_file, capsys):
    assert main(["oracle", sl29_group_file, "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "thmA=yes" in out and "thmA_check=MATCH" in out


def test_oracle_prints_the_reduction_chains_of_analyze(corpus, tmp_path, capsys):
    e = corpus.entry("A4xC3")
    path = tmp_path / "a4xc3.json"
    path.write_text(emit_group(GroupDocument(e.degree, e.generators, e.name, e.expected_order)))
    assert main(["oracle", str(path), "--p", "2"]) == 0
    oracle = capsys.readouterr().out.splitlines()
    table = tmp_path / "a4xc3_table.json"
    table.write_text(emit_table(corpus.table("A4xC3")))
    assert main(["analyze", str(table), "--p", "2"]) == 0
    analyze = capsys.readouterr().out.splitlines()
    assert "A4xC3 p=2 thmA:   quotient by O_2'(G) of order 3" in oracle
    assert [ln for ln in oracle if not ln.startswith(("#", "group="))] == \
        [ln for ln in analyze if not ln.startswith(("#", "group="))]


def test_oracle_rejects_wrong_pin(corpus, tmp_path, capsys):
    e = corpus.entry("S4")
    doc = GroupDocument(e.degree, e.generators, e.name, expected_order=25)
    path = tmp_path / "bad.json"
    path.write_text(emit_group(doc))
    assert main(["oracle", str(path), "--p", "2"]) == 2


def test_corpus_filter(capsys):
    assert main(["corpus", "--filter", "D8xC3"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("group=")]
    assert len(lines) == 2  # p = 2 and p = 3
    assert all("MISMATCH" not in ln for ln in lines)


def test_usage_errors(s4_table_file):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", s4_table_file, "--p", "6"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["analyze", s4_table_file, "--p", "2", "--all-primes"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 1


def test_parse_failures_exit_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["analyze", missing, "--p", "2"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["analyze", str(bad), "--p", "2"]) == 2



@pytest.mark.parametrize("line, replacement, message", [
    ("powermap 2 1 1 3", "powermap 2 1 1 9", "line 4: power map entries must be classes 1..3"),
    ("char 1 -1 1", "char 1 -1/0 1", "line 7: division by zero"),
])
def test_analyze_malformed_text_layout_exits_2(tmp_path, capsys, line, replacement, message):
    path = tmp_path / "s3.tbl"
    path.write_text("order 6\ncentralizers 6 2 3\norders 1 2 3\n"
                    "powermap 2 1 1 3\npowermap 3 1 2 1\n"
                    "char 1 1 1\nchar 1 -1 1\nchar 2 0 -1\n".replace(line, replacement))
    assert main(["analyze", str(path), "--all-primes"]) == 2
    assert message in capsys.readouterr().err


def test_analyze_term_conductor_over_cap_exits_2(s4_table_file, tmp_path, capsys):
    """The cap is checked before any arithmetic at that conductor (building
    zeta_2000000 alone took minutes)."""
    doc = json.loads(Path(s4_table_file).read_text())
    doc["characters"][1][1] = [{"conductor": 2_000_000, "exponent": 1,
                                "numerator": 1, "denominator": 1}]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["analyze", str(path), "--p", "2"]) == 2
    assert time.perf_counter() - start < 5
    assert "characters[1][1][0]: conductor 2000000 exceeds cap" in capsys.readouterr().err


def test_analyze_column_conductor_over_cap_exits_2(tmp_path, capsys):
    """Values at conductors 1031 and 1033 share a column; together they need
    a conductor past the cap, which fails validation (exit 2)."""
    one = Cyc.one()
    t = CharTable(3, [ClassData(1, 1), ClassData(1, 3), ClassData(1, 3)], {3: (0, 0, 0)},
                  [[one] * 3, [one, cyc_root(1031), one], [one, cyc_root(1033), one]])
    path = tmp_path / "wide.json"
    path.write_text(emit_table(t))
    assert main(["analyze", str(path), "--p", "3"]) == 2
    assert "class 1: values need conductor 1065023, over the cap" in capsys.readouterr().err

@pytest.mark.parametrize("cap", ["0", "-5"])
def test_max_elements_below_one_is_a_usage_error(sl29_group_file, cap, capsys):
    for argv in (["oracle", sl29_group_file, "--p", "2", "--max-elements", cap],
                 ["corpus", "--filter", "S4", "--max-elements", cap]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "--max-elements: must be at least 1" in capsys.readouterr().err


def test_max_elements_caps_enumeration(capsys):
    assert main(["corpus", "--filter", "S4", "--max-elements", "23"]) == 2
    assert "element cap 23" in capsys.readouterr().err
    assert main(["corpus", "--filter", "S4", "--max-elements", "24"]) == 0


def test_oracle_on_q16_x_psl213_has_no_traceback(corpus, tmp_path, capsys):
    """13 mod 8 = 5 once sent the quotient tables to a missing 5-power map."""
    a, b = corpus.entry("Q16"), corpus.entry("PSL(2,13)")
    degree, gens = _direct_product([(a.degree, [list(g) for g in a.generators]),
                                    (b.degree, [list(g) for g in b.generators])])
    path = tmp_path / "q16xpsl213.json"
    path.write_text(emit_group(GroupDocument(degree, tuple(map(tuple, gens)), "Q16xPSL(2,13)",
                                             a.expected_order * b.expected_order)))
    assert main(["oracle", str(path), "--all-primes"]) == 0
    out = capsys.readouterr().out
    assert out.count("check=MATCH") == 12


@pytest.mark.parametrize("q", [17, 19])
def test_oracle_on_psl2_q_the_order_search_missed(q, tmp_path, capsys):
    """A rank-by-q order search that stops at the first q whose order
    exceeds |G| never reaches PSL(2,17): recognizing its socle raised."""
    order = q * (q * q - 1) // 2
    path = tmp_path / f"psl2_{q}.json"
    path.write_text(emit_group(GroupDocument(q + 1, tuple(map(tuple, _psl2_perms(q))),
                                             f"PSL(2,{q})", order)))
    assert main(["oracle", str(path), "--all-primes"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("group=")]
    assert len(rows) == len(prime_divisors(order))
    assert all(line.count("check=MATCH") == 3 for line in rows)
