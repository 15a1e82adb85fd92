"""Command-line interface: analyze | color | verify | oracle | corpus | treelike.

Exit codes: 0 success, or stdout closed by its reader (``treesym ... | head -1``),
1 internal assertion failure, 2 invalid input (a bad edge list or coloring, an
out-of-range root or pin, a rejected corpus argument, a negative --count),
3 coloring unavailable (not distinguishable / index out of range),
4 verification answered false, 5 theorem violation found by corpus --check.
All big integers are emitted as decimal strings in JSON.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii

from .asym import GroupOrderBound, a_at_root, a_by_class, asym_at_every_root, asym_of
from .autom import AutomorphismLimitExceeded, aut_order_of, motion_of
from .canon import TreeAnalysis
from .coloring import to_dot, unrank_of, verify_distinguishing
from .corpus import FAMILIES, CorpusSpec, conjecture_check, generate, run_theorem_suite
from .oracle import MAX_GRAPH_VERTICES, brute_asym
from .treelike import extract_forest, is_treelike, parse_graph_edge_list, treelike_distinguish
from .trees import Coloring, EdgeListParseError, Tree, _cut, _ints, parse_edge_list, root_at, serialize_edge_list

SCHEMA = 1
CORPUS_FLAGS = ("all-trees", "random-prufer", "caterpillar", "lobed-extremal", "kary", "spider")  # in precedence order
# the JSON text of each leaf type, as json.dumps writes it
_LEAF = {str: encode_basestring_ascii, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
         type(None): {None: "null"}.__getitem__}
_LEAVES = frozenset(_LEAF)
_BATCH = 4096  # pieces held before they are written: a corpus payload is never held as one string


def _leaf(x) -> str:
    return _LEAF[type(x)](x)


def _put(obj, nl: str, out: list[str]) -> None:
    """Append the JSON text of ``obj``, indented to the line start ``nl``, to ``out``.

    A container whose values are all leaves is one string, with no call per leaf. Once ``out``
    holds a batch of pieces, they are written to stdout and ``out`` is emptied.
    """
    if len(out) >= _BATCH:
        sys.stdout.write("".join(out))
        out.clear()
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        kinds = set(map(type, obj.values()))
        if kinds <= _LEAVES:
            enc = _LEAF[kinds.pop()] if len(kinds) == 1 else _leaf
            body = f",{inner}".join([f"{encode_basestring_ascii(k)}: {enc(v)}" for k, v in obj.items()])
            out.append(f"{{{inner}{body}{nl}}}")
            return
        sep, comma = "{" + inner, "," + inner
        for k, v in obj.items():
            enc = _LEAF.get(type(v))
            if enc is None:
                out.append(f"{sep}{encode_basestring_ascii(k)}: ")
                _put(v, inner, out)
            else:
                out.append(f"{sep}{encode_basestring_ascii(k)}: {enc(v)}")
            sep = comma
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        kinds = set(map(type, obj))
        if kinds <= _LEAVES:
            enc = _LEAF[kinds.pop()] if len(kinds) == 1 else _leaf
            body = f",{inner}".join(map(enc, obj))
            out.append(f"[{inner}{body}{nl}]")
            return
        sep, comma = "[" + inner, "," + inner
        for v in obj:
            enc = _LEAF.get(type(v))
            if enc is None:
                out.append(sep)
                _put(v, inner, out)
            else:
                out.append(sep + enc(v))
            sep = comma
        out.append(nl + "]")
    elif type(obj) in _LEAVES:
        out.append(_leaf(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not written as JSON")


def _write_json(obj) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline to stdout, a batch of pieces at a time.

    It takes what the commands emit: dicts with str keys; lists and tuples; str, int, bool and None
    leaves. Anything else raises ``TypeError``, after the batches before it were written: a set, and
    a float, an int or str subclass or a bool, int or None key, which ``json.dumps`` would write.
    """
    out: list[str] = []
    _put(obj, "\n", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_tree(path: str) -> Tree:
    return parse_edge_list(_read_input(path))


def _center_json(an: TreeAnalysis):
    if len(an.roots) == 1:
        return {"kind": "vertex", "vertex": an.roots[0]}
    u, v = an.roots
    return {"kind": "edge", "u": u, "v": v}


def cmd_analyze(args) -> int:
    t = _load_tree(args.file)
    an = TreeAnalysis.at_center(t)
    mot = motion_of(an)
    aut = aut_order_of(an)
    a_cls = a_by_class(an)
    a = asym_of(an, a_cls)
    report = {
        "schema": SCHEMA,
        "n": t.n,
        "delta": t.delta,
        "center": _center_json(an),
        "motion": mot.to_json(),
        "aut_order": str(aut),
        "a": str(a),
        "two_distinguishable": a > 0,
        "group_order_bound": None,
    }
    if a > 0:
        chk = GroupOrderBound.of(t.n, aut, a)
        report["group_order_bound"] = {"holds": chk.holds, "product": str(chk.product), "bound": str(chk.bound)}
    if mot.is_asymmetric:
        report["motion_note"] = "asymmetric: exceeds every finite threshold by convention"
    roots = {}
    if args.all_roots:
        roots = dict(enumerate(asym_at_every_root(t)))
    elif args.root is not None:  # a_at_root rejects an out-of-range root as root_at does
        roots = {args.root: a_at_root(an, a_cls, args.root)}
    if roots:
        report["roots"] = {str(w): str(a_w) for w, a_w in roots.items()}
    if args.json:
        _write_json(report)
        return 0
    c = report["center"]
    center_txt = f"vertex {c['vertex']}" if c["kind"] == "vertex" else f"edge ({c['u']}, {c['v']})"
    print(f"n:                  {t.n}")
    print(f"max degree:         {t.delta}")
    print(f"center:             {center_txt}")
    print(f"motion:             {report['motion']}")
    print(f"|Aut|:              {report['aut_order']}")
    print(f"a (unrooted):       {report['a']}")
    print(f"2-distinguishable:  {'yes' if a > 0 else 'no'}")
    if report["group_order_bound"] is not None:
        chk = report["group_order_bound"]
        print(f"|Aut|*a <= 2^n:     {chk['product']} <= {chk['bound']} ({'ok' if chk['holds'] else 'VIOLATED'})")
    for w in roots:
        print(f"a rooted at {w}:     {report['roots'][str(w)]}")
    return 0


def _check_count(args) -> None:
    if args.count is not None and args.count < 0:
        raise EdgeListParseError(f"--count must be non-negative, got {_cut(args.count)}")


def cmd_color(args) -> int:
    _check_count(args)
    t = _load_tree(args.file)
    if args.root is not None:
        an = TreeAnalysis.of(root_at(t, args.root))
    else:
        an = TreeAnalysis.at_center(t)
    a = a_by_class(an)
    total = asym_of(an, a)
    if total == 0:
        print("tree is not 2-distinguishable", file=sys.stderr)
        return 3
    indices = range(args.count) if args.count is not None else [args.index]
    if indices and not (0 <= indices[0] and indices[-1] < total):
        print(f"index out of range [0, {total})", file=sys.stderr)
        return 3
    for k in indices:
        coloring = unrank_of(an, a, k)
        if args.dot:
            sys.stdout.write(to_dot(t, coloring))
        else:
            print(coloring.bits())
    return 0


def cmd_verify(args) -> int:
    t = _load_tree(args.file)
    try:
        coloring = Coloring.from_bits(args.coloring)
    except ValueError as exc:
        raise EdgeListParseError(str(exc))
    if coloring.n != t.n:
        raise EdgeListParseError(f"coloring length {coloring.n} != n = {t.n}")
    if args.pin is not None and not (0 <= args.pin < t.n):
        raise EdgeListParseError(f"pin {_cut(args.pin)} out of range 0..{t.n - 1}")
    ok = verify_distinguishing(t, coloring, pinned=args.pin)
    print("true" if ok else "false")
    return 0 if ok else 4


def cmd_oracle(args) -> int:
    t = _load_tree(args.file)
    report = brute_asym(t)
    out = {"schema": SCHEMA}
    out.update(report.to_json())
    _write_json(out)
    return 0


def _corpus_spec(args) -> CorpusSpec:
    for family in CORPUS_FLAGS:
        values = getattr(args, family.replace("-", "_"))
        if values is not None:
            values = values if isinstance(values, list) else [values]
            return CorpusSpec(family, **dict(zip(FAMILIES[family], values)), count=args.count, seed=args.seed)
    raise EdgeListParseError("choose a corpus family (e.g. --all-trees 8)")


def cmd_corpus(args) -> int:
    _check_count(args)
    spec = _corpus_spec(args)
    trees = list(generate(spec))
    if args.check:
        report = run_theorem_suite(trees)
        inconsistent = [{"check": "conjecture-consistency", "tree": serialize_edge_list(t)}
                        for t in trees if not conjecture_check(t).consistent]
        if args.json:
            conjecture = {"consistent": not inconsistent, "counterexamples": inconsistent}
            _write_json({"schema": SCHEMA, "suite": report.to_json(), "conjecture": conjecture})
        else:
            print(report.summary())
            print(f"conjecture consistent: {not inconsistent}")
            for ce in inconsistent:
                print(f"COUNTEREXAMPLE [conjecture]: {ce['tree']!r}")
        return 0 if report.ok and not inconsistent else 5
    payload = {
        "schema": SCHEMA,
        "trees": [{"n": t.n, "edges": [list(e) for e in sorted(t.edges())]} for t in trees],
    }
    _write_json(payload)
    return 0


def cmd_treelike(args) -> int:
    g = parse_graph_edge_list(_read_input(args.file), root=args.root)
    report = is_treelike(g)
    forest = extract_forest(g)
    try:
        coloring = treelike_distinguish(g) if g.n <= MAX_GRAPH_VERTICES else None
    except AutomorphismLimitExceeded:  # too many automorphisms to check a coloring against, as for a graph past the cap
        coloring = None
    payload = {
        "schema": SCHEMA,
        "n": g.n,
        "root": g.root,
        "treelike": report.treelike,
        "witnesses": list(report.witnesses),
        "forest": {
            "edges": [list(e) for e in forest.edges],
            "components": [list(c) for c in forest.components],
            "component_sizes": [len(c) for c in forest.components],
        },
        "coloring": coloring.bits() if coloring is not None else None,
    }
    _write_json(payload)
    return 0


def _ascii_int(text: str) -> int:
    """``int`` for an option, by the edge-list token rule (``trees._ints``), with argparse's message."""
    try:
        return _ints([text], False)[0]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_cut(text, repr)}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later ``main()`` in the process.

    Parsing leaves it unchanged: each parse makes a fresh ``Namespace``, and
    ``sys.stdout``/``sys.stderr`` are looked up only when it prints.
    """
    parser = argparse.ArgumentParser(
        prog="treesym",
        description="Symmetry invariants of finite trees and distinguishing 2-colorings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report for one tree")
    p.add_argument("file", help="edge-list file or - for stdin")
    p.add_argument("--json", action="store_true")
    p.add_argument("--root", type=_ascii_int, default=None, help="also report a(T,w) for this root")
    p.add_argument("--all-roots", action="store_true", help="report a(T,w) for every root")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("color", help="emit distinguishing colorings")
    p.add_argument("file")
    p.add_argument("--index", type=_ascii_int, default=0, help="class index to unrank (default 0)")
    p.add_argument("--count", type=_ascii_int, default=None, help="emit classes 0..count-1 instead")
    p.add_argument("--root", type=_ascii_int, default=None, help="color the rooted tree (T,w)")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of 0/1 strings")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check whether a coloring is distinguishing")
    p.add_argument("file")
    p.add_argument("--coloring", required=True, help="0/1 string in vertex order")
    p.add_argument("--pin", type=_ascii_int, default=None, help="only automorphisms fixing this vertex")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force orbit census (n <= 16)")
    p.add_argument("file")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("corpus", help="generate tree families and run the property suite")
    for family in CORPUS_FLAGS:  # one int per field; a single field keeps argparse's one-value form
        fields = FAMILIES[family]
        p.add_argument(f"--{family}", type=_ascii_int, nargs=len(fields) if len(fields) > 1 else None,
                       metavar=tuple(f.upper() for f in fields))
    p.add_argument("--count", type=_ascii_int, default=None)
    p.add_argument("--seed", type=_ascii_int, default=0)
    p.add_argument("--check", action="store_true", help="run the theorem and conjecture suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("treelike", help="tree-like test, forest extraction, distinguishing")
    p.add_argument("file")
    p.add_argument("--root", type=_ascii_int, default=0)
    p.set_defaults(func=cmd_treelike)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # |Aut| and a(T) outgrow Python's 4,300-digit int -> str limit (3.10.7+);
    # the edge-list reader keeps its own digit cap for input.
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # an OSError, but no input fault: the reader has all it wants
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit flush goes nowhere
        return 0
    except (EdgeListParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    raise SystemExit(main())
