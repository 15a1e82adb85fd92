#!/usr/bin/env python3
"""End-to-end checks of the treesym command line: exit codes, stderr, stdout, time and memory limits.

Each check runs in a fresh interpreter and starts ``python -m treesym.cli`` in child processes, all through the
one child runner ``python``, on the treesym this interpreter imports (a wheel or the source tree); the first failure
raises. Stdlib only, no pytest: ``PYTHONPATH=src python scripts/cli_checks.py``
"""

import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple

from treesym import Tree, caterpillar, enumerate_automorphisms, kary_tree, relabel, spider
from treesym import parse_edge_list, serialize_edge_list

TREE9 = "9\n0 1\n0 5\n1 2\n1 3\n3 4\n5 6\n6 7\n5 8\n"
CYCLE6 = "6\n0 1\n1 2\n2 3\n3 0\n0 4\n4 5\n"  # the 4-cycle with a pendant path


class Run(NamedTuple):
    code: int
    out: str
    err: str
    # this child's peak RSS (RUSAGE_CHILDREN would give the largest child so far); Linux counts in it the
    # caller's peak up to the child's exec, so the caller must stay small, as this script does (17 MB)
    peak_mb: float


def python(*argv: str, stdin: str = "", timeout: float = 120, lines: int | None = None) -> Run:
    """Run ``python *argv`` on ``stdin`` in a new temporary directory, killed after ``timeout`` seconds: the one
    child runner of these checks and the tier-1 suite. With ``lines``, read that many lines of stdout and close the
    pipe, as ``| head`` does. The child imports treesym as this interpreter does (a wheel, or PYTHONPATH)."""
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryFile() as inp, tempfile.TemporaryFile() as err:
        inp.write(stdin.encode())
        inp.seek(0)
        start = time.monotonic()
        # the child runs elsewhere, so relative PYTHONPATH entries such as src are made absolute
        path = os.pathsep.join(os.path.abspath(p) for p in os.getenv("PYTHONPATH", "").split(os.pathsep) if p)
        argv, env = [sys.executable, *argv], dict(os.environ, PYTHONPATH=path)
        proc = subprocess.Popen(argv, cwd=tmp, env=env, stdin=inp, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            with proc.stdout:
                out = proc.stdout.read() if lines is None else b"".join(proc.stdout.readline() for _ in range(lines))
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        expect(time.monotonic() - start < timeout, f"{' '.join(argv)[:200]}: still running after {timeout} s")
        err.seek(0)
        return Run(code, out.decode(), err.read().decode(), usage.ru_maxrss / 1024)


def cli(*args: str, flags: tuple = (), **options) -> Run:
    """``python *flags -m treesym.cli *args``, with ``python``'s keyword arguments."""
    return python(*flags, "-m", "treesym.cli", *args, **options)


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)  # not an assert statement, which -O strips


def json_out(*args: str, stdin: str = "") -> dict:
    r = cli(*args, stdin=stdin)
    expect(r.code == 0, f"treesym {' '.join(args)}: exit {r.code}, stderr {r.err!r}")
    return json.loads(r.out)


def star(n: int) -> str:
    return f"{n}\n" + "".join(f"0 {v}\n" for v in range(1, n))


def cherries(leaves: int) -> str:
    """A center with ``leaves`` leaves and two cherries (a vertex with two leaves): leaves! * 8 automorphisms."""
    edges = [(0, v) for v in range(1, leaves + 1)]
    for c in (leaves + 1, leaves + 4):
        edges += [(0, c), (c, c + 1), (c, c + 2)]
    return f"{leaves + 7}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def same_output_under_O() -> None:
    # -O strips assert statements, so no answer may rest on one. The commands reach every kernel; pin 3
    # breaks TREE9's one swap (exit 0), its center 0 does not (exit 4); color --index 200 (of a = 240) decodes
    # nonzero digits; on the 4-cycle with a pendant path, treelike's forest has components [5, 1], rooted at 2 [3, 3].
    # The property suite (exit 5 on a failed check) runs on every free tree of order 1..9, the lobed extremal
    # trees and 525 seeded Pruefer trees of order 10..40
    corpora = [f"--all-trees {n}" for n in range(1, 10)] + [f"--lobed-extremal {m}" for m in (2, 4, 6, 8)]
    corpora += [f"--random-prufer {n} --count 75 --seed {n}" for n in range(10, 41, 5)]
    cases = [("", f"corpus {c} --check --json") for c in corpora] + [(TREE9, cmd) for cmd in (
        "analyze --json -", "color --count 4 -", "analyze --root 3 --json -",
        "color --root 2 --count 4 -", "analyze --all-roots --json -", "treelike -",
        "corpus --random-prufer 40 --count 30 --seed 5 --check --json", "verify --coloring 000000000 --pin 3 -",
        "verify --coloring 000000000 --pin 0 -", "color --index 200 -", "color --dot --count 2 -",
    )] + [(CYCLE6, "treelike -"), (CYCLE6, "treelike --root 2 -")]
    for stdin, cmd in cases:
        plain, optimized = (cli(*cmd.split(), stdin=stdin, flags=flags) for flags in ((), ("-O",)))
        same = optimized[:2] == plain[:2]  # the last lines of a --check report name its counterexamples
        expect(same and plain.code in (0, 4), f"treesym {cmd}: exit {plain.code} plain, {optimized.code} under -O, "
               f"{'same' if same else 'different'} stdout ending {plain.out[-400:]!r}, stderr {plain.err!r}")


def corpora_parse_back() -> None:
    # every corpus family builds its trees without validating the edges: every tree the corpus
    # command prints must pass the validating parser and round-trip through serialize_edge_list
    for args, want in (("--random-prufer 300 --count 20 --seed 3", 20), ("--all-trees 9", 47), ("--spider 60 4", 1),
                       ("--kary 100 3", 1), ("--caterpillar 80 --count 20 --seed 3", 20), ("--lobed-extremal 8", 1)):
        trees = json_out("corpus", *args.split())["trees"]
        expect(len(trees) == want, f"corpus {args}: {len(trees)} trees, want {want}")
        for tree in trees:
            text = "".join(f"{line}\n" for line in [tree["n"], *(f"{u} {v}" for u, v in tree["edges"])])
            expect(serialize_edge_list(parse_edge_list(text)) == text, f"{text!r} does not round-trip")


def json_reads_back() -> None:
    # every JSON command prints the bytes of json.dumps(..., indent=2) on this interpreter, from one writer
    # (cli._write_json): parsed and dumped again, stdout comes back unchanged. The path's a and |Aut| are long
    # decimal strings; the corpus payload (2.0 MB) is written in batches
    path = "10000\n" + "".join(f"{i} {i + 1}\n" for i in range(9999))
    for stdin, cmd in (("", "corpus --random-prufer 2000 --count 20"), ("", "corpus --all-trees 10 --check --json"),
                       (path, "analyze --json -"), (star(9), "oracle -"), (CYCLE6, "treelike -")):
        r = cli(*cmd.split(), stdin=stdin)
        back = json.dumps(json.loads(r.out), indent=2) + "\n" if r.code == 0 else None
        expect(r.out == back and not r.err, f"treesym {cmd}: exit {r.code}, stderr {r.err!r}, "
               f"{'stdout reads back' if r.out == back else 'stdout does not read back'}")


def star_oracle_censuses() -> None:
    # 8! and 9! automorphisms, no distinguishing set: sibling leaves go as one permutation, so both finish at once.
    # The census counts the automorphisms it never reads without keeping them: the 10-star child peaks at 16.8 MB
    # (63.7 MB when the census kept the list), and so does the 15-vertex tree with 8! * 8 = 322,560 automorphisms
    # (68.2 MB); each may not outgrow 30 MB. On the 15-vertex complete binary tree every distinguishing
    # set is read against all 127 non-identity automorphisms, and the lower-image test picks the 2 representatives
    cases = [(f"{n}-star", star(n), math.factorial(n - 1), 0) for n in (9, 10)]
    cases.append(("15-vertex binary tree", serialize_edge_list(kary_tree(15, 2)), 128, 2))
    cases.append(("15-vertex cherry tree", cherries(8), 322560, 0))
    peaks = {}
    for name, stdin, aut_order, orbits in cases:
        r = cli("oracle", "-", stdin=stdin, timeout=20)
        want = (f'"aut_order": "{aut_order}"', f'"orbit_count": "{orbits}"')
        expect(r.code == 0 and not r.err and all(s in r.out for s in want),
               f"oracle on the {name}: exit {r.code}, stdout {r.out[:300]!r}, stderr {r.err!r}; want {want}")
        peaks[name] = r.peak_mb
    for name in ("10-star", "15-vertex cherry tree"):
        expect(peaks[name] <= 30, f"oracle on the {name}: peak RSS {peaks[name]:.1f} MB, want at most 30 MB")


def cherry16_past_budget() -> None:
    # 9! * 8 = 2,903,040 automorphisms, past the 2,000,000 budget, though the sibling leaves alone (9! * 4) are not:
    # the search lists 2,000,000 before it refuses (about 5 s). Keeping that list took the child to 371.5 MB
    r = cli("oracle", "-", stdin=cherries(9), timeout=20)
    expect((r.code, r.out, r.err) == (2, "", "error: automorphism count exceeds limit 2000000\n"),
           f"oracle on the 16-vertex cherry tree: {r[:3]}, want exit 2 and the budget message")
    expect(r.peak_mb <= 30, f"oracle on the 16-vertex cherry tree: peak RSS {r.peak_mb:.1f} MB, want at most 30 MB")


def star12_refused() -> None:
    # its 11 sibling leaves alone give 11! automorphisms, past both budgets: the oracle refuses and
    # treelike reports no coloring, without listing them (listing took 308 MB for the oracle)
    oracle, treelike = (cli(cmd, "-", stdin=star(12), timeout=20) for cmd in ("oracle", "treelike"))
    expect((oracle.code, oracle.err) == (2, "error: automorphism count exceeds limit 2000000\n"),
           f"oracle on the 12-star: exit {oracle.code}, stderr {oracle.err!r}")
    expect(treelike.code == 0 and not treelike.err and '"coloring": null' in treelike.out,
           f"treelike on the 12-star: exit {treelike.code}, stderr {treelike.err!r}")
    for cmd, r in (("oracle", oracle), ("treelike", treelike)):
        expect(r.peak_mb < 60, f"{cmd} on the 12-star: peak RSS {r.peak_mb:.1f} MB, want under 60 MB")


def k66_treelike_streamed() -> None:
    # K_{6,6}: 2 * 6!^2 automorphisms and no sibling leaves, so the search runs to the 500,000 limit and treelike
    # reports no coloring; it reads them as a stream (89 MB peak RSS when it listed them)
    k66 = "12\n" + "".join(f"{u} {v}\n" for u in range(6) for v in range(6, 12))
    r = cli("treelike", "-", stdin=k66, timeout=60)
    expect(r.code == 0 and not r.err and '"coloring": null' in r.out,
           f"treelike on K_{{6,6}}: exit {r.code}, stderr {r.err!r}")
    expect(r.peak_mb <= 30, f"treelike on K_{{6,6}}: peak RSS {r.peak_mb:.1f} MB, want at most 30 MB")


def closed_stdout() -> None:
    # a reader that stops after one line: the writer stops quietly, with exit 0. These 308,730 bytes
    # outgrow a 64 KiB pipe buffer, so the writer is still writing when the pipe closes
    r = cli("corpus", "--all-trees", "12", lines=1)
    expect((r.code, r.err) == (0, ""), f"corpus --all-trees 12 | head -1: exit {r.code}, stderr {r.err!r}")
    # a(P60) = 576460751766552576: a far larger count prints its first coloring at once, with no scan of indices
    path60 = "60\n" + "".join(f"{i} {i + 1}\n" for i in range(59))
    r = cli("color", "--count", "1000000000000000", "-", stdin=path60, timeout=10, lines=1)
    expect((r.code, r.err) == (0, "") and re.fullmatch(r"[01]{60}\n", r.out) is not None,
           f"color --count 1000000000000000 on P60 | head -1: {r[:3]}, want one coloring")


def input_errors() -> None:
    # exit 2, empty stdout and this stderr within 10 s (a rejected argument fails before anything is built)
    for stdin, cmd, message in (
        ("3\n0 1\n1 1\n", "analyze -", "error: line 3: self-loop at vertex 1"),
        ("3\n0 1\n1 2\n2 0\n", "analyze -", "error: line 4: cycle detected at edge (2, 0)"),
        ("4\n0 1\n\n1 2\n\n2 0\n", "analyze -", "error: line 6: cycle detected at edge (2, 0)"),
        ("4\r\n0 1\r\n \r\n2 1\r\n1 0\r\n", "treelike -", "error: line 5: duplicate edge (0, 1)"),
        ("٣\n0 1\n1 2\n", "analyze -", "error: line 1: expected vertex count, got '٣'"),
        ("3\n0 1\n0_0 2\n", "analyze -", "error: line 3: non-integer vertex id in '0_0 2'"),
        ("3\n+0 1\n0 2\n", "analyze -", "error: line 2: non-integer vertex id in '+0 1'"),
        # main lifts int's digit limit for output; an input id still may not pass 4,300 digits
        (f"3\n0 1\n{'1' * 4301} 2\n", "analyze -",
         f"error: line 3: non-integer vertex id in '{'1' * 40}'... (cut, 4303 characters)"),
        ("3\n0 1\n1 0\n", "analyze -", "error: line 3: duplicate edge (0, 1)"),  # n - 1 edges, one a duplicate
        ("", "corpus --caterpillar 0", "error: n must be at least 1"),
        ("", "corpus --spider 5 0", "error: legs must be at least 1"),
        ("", "corpus --lobed-extremal 40", "error: m = 40 exceeds cap 26"),
        # a value the caller gave is quoted to 40 characters, as an edge-list id is
        (TREE9, f"analyze --root {'9' * 4300} -", f"error: root {'9' * 40}... (cut, 4300 characters) out of range 0..8"),
        ("", f"corpus --random-prufer 5 --count -{'9' * 4299}",
         f"error: --count must be non-negative, got -{'9' * 39}... (cut, 4300 characters)"),
    ):
        r = cli(*cmd.split(), stdin=stdin, timeout=10)
        expect(r[:3] == (2, "", message + "\n"), f"treesym {cmd} on {stdin!r}: {r[:3]}, want exit 2, {message!r}")


def one_root_against_all_roots() -> None:
    # --all-roots reads every root from the top-down pass (canon._toward_center), --root w from the walk up
    # to the center (canon._at_root): they agree at every root of two paths (edge and vertex center) and more
    trees = {f"path{n}": Tree.from_edges(n, [(i, i + 1) for i in range(n - 1)]) for n in (30, 31)}
    for name, t in {**trees, "spider": spider(25, 4), "caterpillar": caterpillar(25, random.Random(1))}.items():
        text = serialize_edge_list(t)
        every = json_out("analyze", "--all-roots", "--json", "-", stdin=text)["roots"]
        for w in map(str, range(t.n)):
            one = json_out("analyze", "--root", w, "--json", "-", stdin=text)["roots"]
            expect(one == {w: every[w]}, f"{name}: --root {w} gives {one}, --all-roots gives {every[w]}")


def one_root_costs_its_depth() -> None:
    # a single rooted query walks from w to the center once: the pointers that jump chains of only children
    # (canon._chain_pointers) come from one top-down pass the first time a walk meets a chain, so analyze --root 0
    # stays within 1.25x (plus 0.1 s) of analyze on a 10^5-vertex path, whose vertex 0 is 50,000 steps from the
    # center, and on a 10^5-vertex Pruefer tree.
    # A child writes the texts: every later child's peak RSS counts this process's size, which must stay small
    make = ("import random, sys; from treesym import Tree, serialize_edge_list, tree_from_pruefer; n = 10**5; "
            "t = Tree.from_edges(n, [(i, i + 1) for i in range(n - 1)]) if sys.argv[1] == 'path' else "
            "tree_from_pruefer(n, random.Random(5).choices(range(n), k=n - 2)); "
            "sys.stdout.write(serialize_edge_list(t))")
    for name in ("path", "Pruefer tree"):
        r = python("-c", make, name)
        expect(r.code == 0, f"writing the {name}: exit {r.code}, stderr {r.err!r}")
        text = r.out
        best = {}
        for args in (("analyze", "--json", "-"), ("analyze", "--root", "0", "--json", "-")):
            times = []
            for _ in range(3):
                start = time.monotonic()
                r = cli(*args, stdin=text)
                times.append(time.monotonic() - start)
                expect(r.code == 0 and not r.err, f"treesym {' '.join(args)} on the {name}: exit {r.code}, {r.err!r}")
            best[args[1]] = min(times)
        expect(best["--root"] <= 1.25 * best["--json"] + 0.1,
               f"analyze --root 0 on the {name}: {best['--root']:.2f} s, analyze {best['--json']:.2f} s")


def pinned_verification() -> None:
    # verify --pin w gives w a third color: its exit (0: distinguishing, 4: not) matches a brute check over
    # the automorphisms fixing w, for five colorings at every pin. The relabeled binary tree (128 automorphisms)
    # has two children at every internal vertex, the case the colored-id kernel takes without a sort
    binary15 = relabel(kary_tree(15, 2), random.Random(15).sample(range(15), 15))
    rng, bad, codes = random.Random(1), [], set()
    for name, t in {"tree9": parse_edge_list(TREE9), "spider10": spider(10, 3), "binary15": binary15}.items():
        for w in range(t.n):
            randoms = ("".join(rng.choice("01") for _ in range(t.n)) for _ in range(3))
            for bits in ["0" * t.n, "1" + "0" * (t.n - 1), *randoms]:
                code = cli("verify", "--coloring", bits, "--pin", str(w), "-", stdin=serialize_edge_list(t)).code
                kept = any(s != tuple(range(t.n)) and all(bits[s[v]] == bits[v] for v in range(t.n))
                           for s in enumerate_automorphisms(t, pinned=w))
                codes.add(code)
                if code != (4 if kept else 0):
                    bad.append(f"{name} --pin {w} {bits}: exit {code}")
    expect(not bad and codes == {0, 4}, f"verify --pin against the brute check: {bad}; exits {sorted(codes)}")


# the checks the tier-1 suite runs too (tests/test_cli_checks.py)
FAST = (same_output_under_O, corpora_parse_back, json_reads_back, star_oracle_censuses, star12_refused,
        k66_treelike_streamed, closed_stdout, input_errors)
# the per-vertex sweeps start 285 children, the timed queries 14; the over-budget census lists 2,000,000 automorphisms
CHECKS = FAST + (one_root_against_all_roots, one_root_costs_its_depth, pinned_verification, cherry16_past_budget)


def fresh(check: str) -> Run:
    """Run the check named ``check`` in a fresh interpreter, since a child's peak RSS counts its caller's peak."""
    return python("-c", f"import runpy; runpy.run_path({os.path.abspath(__file__)!r})[{check!r}]()", timeout=300)


def main() -> None:
    for check in CHECKS:
        start = time.monotonic()
        r = fresh(check.__name__)
        expect(r.code == 0, f"{check.__name__} failed:\n{r.err}")
        print(f"ok {check.__name__} ({time.monotonic() - start:.1f} s)", flush=True)


if __name__ == "__main__":
    main()
