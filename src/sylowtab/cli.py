"""Command-line interface.

    sylowtab analyze TABLE  (--p P | --all-primes) [--json]
    sylowtab oracle  GROUP  (--p P | --all-primes) [--json] [--max-elements N]
    sylowtab corpus  [--filter NAME] [--json] [--max-elements N]

`analyze` runs the character-table detectors on a table document (JSON,
or the text layout when the file does not start with '{').  `oracle`
enumerates a permutation group, computes its table, and cross-checks the
detectors against brute-force ground truth.  `corpus` sweeps the
embedded benchmark corpus.  Exit codes: 0 ok, 1 usage, 2 parse or
validation failure, 3 detector/oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .blocks import abelian_sylow_test, count_height_zero_principal
from .corpus import build_group, corpus_entries
from .detectors import detect_center_index_p2, detect_commutator_index_p2
from .dixon import dixon_table
from .numutil import is_prime, prime_divisors
from .perm import DEFAULT_CAP, CapExceeded, PermGroup
from .serialize import (ParseError, ReportRow, emit_report, parse_group,
                        parse_table, parse_text_table, report_has_mismatch)

EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_MISMATCH = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def positive_int(text: str) -> int:
    """argparse type of --max-elements: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="sylowtab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def prime_opts(sp):
        sp.add_argument("--p", type=int, default=None, metavar="P",
                        help="single prime to test")
        sp.add_argument("--all-primes", action="store_true",
                        help="test every prime dividing the group order")
        sp.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")

    sp = sub.add_parser("analyze", help="run detectors on a table document")
    sp.add_argument("table", help="table file (JSON document or text layout)")
    prime_opts(sp)

    sp = sub.add_parser("oracle", help="ground truth + detectors for a group")
    sp.add_argument("group", help="group document (JSON)")
    prime_opts(sp)
    sp.add_argument("--max-elements", type=positive_int, default=DEFAULT_CAP, metavar="N",
                    help="element enumeration cap")

    sp = sub.add_parser("corpus", help="sweep the embedded corpus")
    sp.add_argument("--filter", default=None, metavar="NAME",
                    help="only entries whose name contains NAME")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--max-elements", type=positive_int, default=DEFAULT_CAP, metavar="N")
    return parser


def _select_primes(args, order: int, parser: _Parser) -> list[int]:
    if args.p is not None and args.all_primes:
        parser.error("--p and --all-primes are mutually exclusive")
    if args.p is not None:
        if not is_prime(args.p):
            parser.error(f"--p {args.p} is not a prime")
        return [args.p]
    return prime_divisors(order)


def _analyze_table(t, primes) -> tuple[list[ReportRow], list[str]]:
    rows, traces = [], []
    for p in primes:
        va = detect_commutator_index_p2(t, p)
        vb = detect_center_index_p2(t, p)
        rows.append(ReportRow(
            group=t.name or "?", p=p, thm_a=va.answer, thm_b=vb.answer,
            abelian_sylow=abelian_sylow_test(t, p),
            height_zero_principal=count_height_zero_principal(t, p)))
        for label, v in (("thmA", va), ("thmB", vb)):
            traces.append(f"{t.name or '?'} p={p} {label}: {v.answer} ({v.reason})")
            for step in v.reductions:
                traces.append(f"{t.name or '?'} p={p} {label}:   {step}")
    return rows, traces


def _oracle_rows(g: PermGroup, primes) -> tuple[list[ReportRow], list[str]]:
    """The rows and traces of `analyze` on g's Dixon table, with the
    brute-force ground truth added to each row."""
    rows, traces = _analyze_table(dixon_table(g), primes)
    for i, row in enumerate(rows):
        gt = g.ground_truth(row.p)
        rows[i] = replace(row, oracle_commutator_p2=gt.commutator_index == row.p ** 2,
                          oracle_center_p2=gt.center_index == row.p ** 2,
                          oracle_abelian=gt.abelian)
    return rows, traces


def _finish(rows, traces, as_json: bool) -> int:
    if as_json:
        print(json.dumps({"rows": [r.as_dict() for r in rows]}, indent=1))
    else:
        sys.stdout.write(emit_report(rows))
        for line in traces:
            print(line)
    return EXIT_MISMATCH if report_has_mismatch(rows) else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            try:
                with open(args.table) as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"sylowtab: {exc}", file=sys.stderr)
                return EXIT_PARSE
            if text.lstrip().startswith("{"):
                t = parse_table(text)
            else:
                t = parse_text_table(text, name=args.table)
            primes = _select_primes(args, t.group_order, parser)
            rows, traces = _analyze_table(t, primes)
            return _finish(rows, traces, args.json)
        if args.command == "oracle":
            try:
                with open(args.group) as fh:
                    doc = parse_group(fh.read())
            except OSError as exc:
                print(f"sylowtab: {exc}", file=sys.stderr)
                return EXIT_PARSE
            g = PermGroup(doc.degree, [list(x) for x in doc.generators],
                          cap=args.max_elements, name=doc.name)
            if doc.expected_order is not None and g.order != doc.expected_order:
                print(f"sylowtab: enumerated order {g.order} != expected "
                      f"{doc.expected_order}", file=sys.stderr)
                return EXIT_PARSE
            primes = _select_primes(args, g.order, parser)
            rows, traces = _oracle_rows(g, primes)
            return _finish(rows, traces, args.json)
        # corpus
        rows = []
        for entry in corpus_entries():
            if args.filter and args.filter not in entry.name:
                continue
            g = build_group(entry, cap=args.max_elements)
            rows += _oracle_rows(g, entry.primes())[0]
        return _finish(rows, [], args.json)
    except ParseError as exc:
        print(f"sylowtab: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"sylowtab: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
