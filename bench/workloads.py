"""The three workloads: how each op's input is made, what is timed, what is checked.

An op is one timed call sequence into treesym. Its input is built before
the timer starts and its output is checked after the timer stops. Ops come
in rounds: every round holds the same number of ops of each kind, and the
sizes within a kind follow a fixed low-discrepancy sequence, so runs with
different seeds measure the same mix of work. The seed decides the concrete
trees, vertex labels, indices, colorings, random-Pruefer arguments and the
order of ops within each round. A run times a fixed number of rounds, so
a seed always gives the same ops and the same failures.

treesym is reached only through module attributes (``treesym.x.f``) so the
tracer's rebinding of those names takes effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import treesym
import treesym.cli

import gate
import inputs

GOLDEN = 0.6180339887498949


@dataclass
class Op:
    kind: str
    n: int  # input vertices this op processes
    inp: Any
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    observe: Callable[[Any, Any, "Counters"], None]
    # Untimed step before every run of the op that returns the input to use,
    # so that an op run twice (untraced, then traced) never meets state left
    # on its input by the first run.
    prepare: Callable[[Any], Any] | None = None


@dataclass
class Counters:
    """Structural counters gathered outside the timers in the traced run."""

    a_bits_max: int = 0
    aut_bits_max: int = 0
    classes: int = 0
    code_bytes: int = 0
    max_twin_multiplicity: int = 0

    def tree(self, t) -> None:
        """Distinct rooted subtree classes and their code bytes, rooted at the center."""
        c = treesym.center(t)
        rt = treesym.root_at(t, c.vertex if isinstance(c, treesym.VertexCenter) else c.u)
        distinct = set(treesym.subtree_codes(rt))
        self.classes += len(distinct)
        self.code_bytes += sum(len(code) for code in distinct)
        for classes in treesym.twin_classes(rt).by_vertex.values():
            for cls in classes:
                self.max_twin_multiplicity = max(self.max_twin_multiplicity, cls.multiplicity)

    def numbers(self, a: int, aut: int) -> None:
        self.a_bits_max = max(self.a_bits_max, a.bit_length())
        self.aut_bits_max = max(self.aut_bits_max, aut.bit_length())


def size_at(q: float, lo: int, hi: int, power: float) -> int:
    """Inverse CDF of the density proportional to n^-power on [lo, hi].

    power 1 spreads ops evenly over each doubling of n; power 3 spreads the
    time of a quadratic op evenly over them, so most ops are small.
    """
    if power == 1:
        return round(lo * (hi / lo) ** q)
    e = 1 - power
    return round((lo**e - q * (lo**e - hi**e)) ** (1 / e))


@dataclass
class Workload:
    name: str
    # (kind, ops of that kind per round, families the kind cycles through)
    kinds: list[tuple[str, int, tuple]]
    # make(rng, kind, family, q, n): q in [0, 1) places the op's size in its
    # range; n, when given, fixes the size instead.
    make: Callable[..., Op]
    trace_rounds: int
    # Rounds a run times per second of --seconds: about what the reference
    # machine (see speed.py) gets through, checks included.
    rounds_per_s: float
    # Doubling report rows: (row label, kind, family, n, 2n, traced functions
    # whose self-time ratio is reported).
    doubling: list[tuple[str, str, object, int, int, tuple[str, ...]]] = field(default_factory=list)

    def run_rounds(self, seconds: float, min_ops: int) -> int:
        per_round = sum(per_round for _, per_round, _ in self.kinds)
        return max(-(-min_ops // per_round), round(self.rounds_per_s * seconds))

    def rounds(self, rng: random.Random):
        """Endless stream of rounds; each is a list of ops in seeded order.

        A kind cycles through its families in a seeded order. Sizes come from
        one low-discrepancy sequence of quantiles per kind, and family f of
        F takes its terms f, f + F, f + 2F, ... That pairing of families
        with sizes is fixed, not seeded: with n^2 costs a few large ops make
        up the p90, and a seeded pairing spread p90 by 15% across seeds.
        The seed picks everything else.
        """
        cycles = {kind: rng.sample(fams, len(fams)) for kind, _, fams in self.kinds}
        r = 0
        while True:
            ops = []
            for kind, per_round, fams in self.kinds:
                for j in range(per_round):
                    i = r * per_round + j
                    fam = cycles[kind][i % len(fams)]
                    term = fams.index(fam) + len(fams) * (i // len(fams))
                    q = (0.5 + term * GOLDEN) % 1.0
                    ops.append(self.make(rng, kind, fam, q))
            rng.shuffle(ops)
            yield ops
            r += 1


def _edges_family(rng: random.Random, family: str, n: int, legs: int | None = None):
    if family == "path":
        return inputs.path_edges(n)
    if family == "spider":
        return inputs.spider_edges(n, legs or rng.randint(3, 12))
    if family == "binary":
        return inputs.complete_binary_edges(n)
    if family == "bounded":
        return inputs.bounded_random_edges(rng, n)
    if family == "prufer":
        return inputs.pruefer_edges(inputs.pruefer_sequence(rng, n), n)
    raise ValueError(family)


# -- large_single ------------------------------------------------------------

# (lo, hi, power of the size density). Paths and spiders are log-uniform and
# capped, because one unranking on a 4000-vertex path costs seconds. The
# other families use density n^-2, which keeps the whole range but puts more
# ops near the median and so steadies op_p50_ms.
LARGE_SIZES = {
    "path": (500, 1500, 1),
    "spider": (500, 2000, 1),
    "binary": (500, 4000, 2),
    "bounded": (500, 4000, 2),
    "prufer": (500, 4000, 2),
}


@dataclass
class SingleInput:
    n: int
    edges: list  # the benchmark's own view of the tree, for the gate
    text: str | None  # edge-list text, or None for a Pruefer input
    seq: list | None
    index_bits: int
    random_mask: int


@dataclass
class SingleResult:
    n: int
    aut: int
    a: int
    bound: Any = None
    c0: Any = None
    k: int = 0
    ck: Any = None
    verified: tuple = ()
    tree: Any = None


def make_single(rng: random.Random, kind: str, legs: int | None, q: float, n: int | None = None) -> Op:
    n = n or size_at(q, *LARGE_SIZES[kind])
    if kind == "prufer":
        seq = inputs.pruefer_sequence(rng, n)
        edges, text = inputs.pruefer_edges(seq, n), None
    else:
        seq = None
        edges = inputs.shuffled(rng, n, _edges_family(rng, kind, n, legs))
        text = inputs.edge_list_text(n, edges)
    inp = SingleInput(n, edges, text, seq, rng.getrandbits(n + 64), rng.getrandbits(n))
    return Op(kind, n, inp, run_single, check_single, observe_single)


def run_single(inp: SingleInput) -> SingleResult:
    if inp.text is not None:
        t = treesym.parse_edge_list(inp.text)
    else:
        t = treesym.tree_from_pruefer(inp.n, inp.seq)
    treesym.center(t)
    aut = treesym.aut_order(t)
    treesym.motion(t)
    a = treesym.asym_unrooted(t)
    res = SingleResult(t.n, aut, a, tree=t)
    if a > 0:
        res.bound = treesym.group_order_bound_check(t)
        res.c0 = treesym.construct_distinguishing(t)
        res.k = inp.index_bits % a
        res.ck = treesym.unrank_unrooted(t, res.k)
        res.verified = (
            treesym.verify_distinguishing(t, res.c0),
            treesym.verify_distinguishing(t, res.ck),
            treesym.verify_distinguishing(t, treesym.Coloring(t.n, inp.random_mask)),
        )
    return res


def check_single(inp: SingleInput, res: SingleResult) -> list[str]:
    bad = []
    if res.n != inp.n:
        return [f"parsed n = {res.n}, expected {inp.n}"]
    full = 1 << inp.n
    product = res.aut * res.a
    if product > full:
        bad.append("|Aut|*a > 2^n")
    if (product == full) != (res.aut == 1):
        bad.append("|Aut|*a = 2^n does not match |Aut| = 1")
    if res.a == 0:
        return bad
    if not (res.bound.holds and res.bound.product == product and res.bound.bound == full):
        bad.append("group_order_bound_check disagrees with |Aut|*a <= 2^n")
    adj = inputs.adjacency(inp.n, inp.edges)
    if res.c0 is None or not gate.is_distinguishing(adj, res.c0.mask):
        bad.append("constructed coloring (index 0) is not distinguishing")
    if not gate.is_distinguishing(adj, res.ck.mask):
        bad.append(f"unranked coloring at a {res.k.bit_length()}-bit index is not distinguishing")
    if res.verified[:2] != (True, True):
        bad.append("verify_distinguishing rejected the index-0 or the unranked coloring")
    if res.verified[2] != gate.is_distinguishing(adj, inp.random_mask):
        bad.append("verify_distinguishing wrong on a random coloring")
    if res.k != 0 and res.c0 is not None:
        intern: dict = {}
        if gate.colored_form(adj, res.c0.mask, intern)[0] == gate.colored_form(adj, res.ck.mask, intern)[0]:
            bad.append(f"a {res.k.bit_length()}-bit index unranks to a coloring equivalent to index 0")
    return bad


def observe_single(inp: SingleInput, res: SingleResult, counters: Counters) -> None:
    counters.numbers(res.a, res.aut)
    counters.tree(res.tree)


# The closed-form layers whose self time should at most double with n.
SINGLE_X2 = (
    "trees.parse_edge_list",
    "trees.center",
    "trees.root_at",
    "canon.subtree_codes",
    "canon.child_classes",
    "canon.colored_subtree_codes",
    "autom.aut_order",
    "autom.motion",
    "asym.a_values",
    "coloring.combinadic_unrank",
    "coloring.unrank_unrooted",
    "coloring.verify_distinguishing",
)

LARGE_SINGLE = Workload(
    "large_single",
    # A spider's unranking cost grows fast as its legs get fewer and longer,
    # so the leg counts 3..12 are cycled evenly rather than drawn per op.
    kinds=[("path", 1, (None,)), ("spider", 1, tuple(range(3, 13))), ("binary", 2, (None,)),
           ("bounded", 3, (None,)), ("prufer", 3, (None,))],
    make=make_single,
    trace_rounds=3,
    rounds_per_s=0.75,
    doubling=[
        *[(kind, kind, 6 if kind == "spider" else None, 1000, 2000, SINGLE_X2)
          for kind in ("path", "spider", "binary", "bounded")],
        ("prufer", "prufer", None, 2000, 4000, ("corpus.tree_from_pruefer",)),
    ],
)


# -- all_roots ---------------------------------------------------------------

ROOTS_FAMILIES = ("path", "spider", "binary", "bounded", "prufer")


@dataclass
class RootsInput:
    n: int
    edges: list
    tree: Any = None  # treesym Tree, built afresh by fresh_roots before every run
    truncation: Any = None  # treesym OneEndedTruncation, for the ray kind
    ray_colors: tuple = ()


def fresh_roots(inp: RootsInput) -> RootsInput:
    t = treesym.Tree.from_edges(inp.n, inp.edges)
    truncation = treesym.one_ended_truncation(t, range(len(inp.ray_colors))) if inp.ray_colors else None
    return replace(inp, tree=t, truncation=truncation)


def make_roots(rng: random.Random, kind: str, family: str | None, q: float, n: int | None = None) -> Op:
    if kind == "ray":
        ray_len = n or size_at(q, 50, 300, 3)
        n, edges = inputs.one_ended_truncation_edges(rng, ray_len)
        colors = tuple(rng.random() < 0.5 for _ in range(ray_len))
        inp = RootsInput(n, edges, ray_colors=colors)
        return Op("ray", n, inp, run_ray, check_ray, observe_roots, fresh_roots)
    n = n or size_at(q, 100, 500, 3)
    edges = inputs.shuffled(rng, n, _edges_family(rng, family, n))
    inp = RootsInput(n, edges)
    if kind == "allroots":
        return Op(f"allroots.{family}", n, inp, run_all_roots, check_all_roots, observe_roots, fresh_roots)
    return Op(f"conj.{family}", n, inp, run_conjecture, check_conjecture, observe_roots, fresh_roots)


def run_all_roots(inp: RootsInput):
    t = inp.tree
    return [treesym.asym_rooted(treesym.root_at(t, w)) for w in range(t.n)]


def check_all_roots(inp: RootsInput, values) -> list[str]:
    if len(values) != inp.n or min(values) < 0:
        return ["a(T,w) missing or negative for some root"]
    c = gate.centers(inputs.adjacency(inp.n, inp.edges))
    if len(c) == 1 and values[c[0]] != treesym.asym_unrooted(inp.tree):
        return [f"a(T,w) at the center {c[0]} differs from a(T)"]
    return []


def run_conjecture(inp: RootsInput):
    return treesym.conjecture_check(inp.tree)


def check_conjecture(inp: RootsInput, report) -> list[str]:
    bad = []
    if not report.consistent:
        bad.append(f"local condition and 2-distinguishability disagree: {report.violation}")
    if report.distinguishable != (treesym.asym_unrooted(inp.tree) > 0):
        bad.append("conjecture_check disagrees with asym_unrooted on 2-distinguishability")
    return bad


def observe_roots(inp: RootsInput, res, counters: Counters) -> None:
    counters.numbers(treesym.asym_unrooted(inp.tree), treesym.aut_order(inp.tree))
    counters.tree(inp.tree)


def run_ray(inp: RootsInput):
    return treesym.extend_ray_coloring(inp.truncation, inp.ray_colors)


def check_ray(inp: RootsInput, coloring) -> list[str]:
    ray = inp.truncation.ray
    if any(coloring.is_black(v) != black for v, black in zip(ray, inp.ray_colors)):
        return ["extension changed a ray color"]
    if not gate.is_distinguishing(inputs.adjacency(inp.n, inp.edges), coloring.mask, pinned=ray[-1]):
        return ["extended coloring does not distinguish (T, v_D)"]
    return []


ALL_ROOTS = Workload(
    "all_roots",
    kinds=[("allroots", 3, ROOTS_FAMILIES), ("conj", 3, ROOTS_FAMILIES), ("ray", 2, (None,))],
    make=make_roots,
    trace_rounds=4,
    rounds_per_s=1.0,
    doubling=[
        ("allroots", "allroots", "bounded", 150, 300,
         ("asym.a_values", "trees.root_at", "canon.subtree_codes", "canon.child_classes")),
        ("conj", "conj", "path", 150, 300,
         ("corpus.conjecture_check", "asym.a_values")),
        ("ray", "ray", None, 75, 150,
         ("coloring.extend_ray_coloring", "asym.a_values", "trees.root_at", "canon.subtree_codes")),
    ],
)


# -- corpus_check ------------------------------------------------------------

ORACLE_MAX_N = 9
ALL_TREES_K = (6, 7, 8, 9, 10)
FREE_TREES = inputs.free_trees(max(ALL_TREES_K))
FREE_TREES_OF_ORDER = {k: [e for e in FREE_TREES if len(e) + 1 == k] for k in ALL_TREES_K}
ORACLE_TREES = [e for e in FREE_TREES if len(e) + 1 <= ORACLE_MAX_N]


@dataclass
class CliInput:
    argv: list
    stdin: str | None = None
    n: int = 0
    edges: list | None = None
    expect_trees: int = 0


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def call_cli(inp: CliInput) -> CliResult:
    """One in-process ``treesym`` command with stdin fed and stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = treesym.cli.sys.stdin
    if inp.stdin is not None:
        treesym.cli.sys.stdin = io.StringIO(inp.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = treesym.cli.main(inp.argv)
    finally:
        treesym.cli.sys.stdin = saved
    return CliResult(code, out.getvalue(), err.getvalue())


def _parsed(res: CliResult) -> tuple[dict | None, list[str]]:
    if res.code != 0:
        return None, [f"exit code {res.code}: {res.stderr.strip()[:200]}"]
    try:
        return json.loads(res.stdout), []
    except ValueError:
        return None, ["stdout is not JSON"]


def make_corpus(rng: random.Random, kind: str, family: int | None, q: float) -> Op:
    if kind == "all_trees":
        k = family
        count = len(FREE_TREES_OF_ORDER[k])
        inp = CliInput(["corpus", "--all-trees", str(k), "--check", "--json"], n=k, expect_trees=count)
        return Op(f"corpus.all{k}", k * count, inp, call_cli, check_corpus, observe_corpus)
    if kind == "random_prufer":
        n = size_at(q, 10, 40, 1)
        count = rng.randint(3, 10)
        argv = ["corpus", "--random-prufer", str(n), "--count", str(count),
                "--seed", str(rng.randrange(1 << 30)), "--check", "--json"]
        inp = CliInput(argv, n=n, expect_trees=count)
        return Op("corpus.prufer", n * count, inp, call_cli, check_corpus, observe_corpus)
    if kind == "oracle":
        # q walks the tree list evenly, so every tree comes up at the same rate.
        base = ORACLE_TREES[int(q * len(ORACLE_TREES))]
        n = len(base) + 1
        edges = inputs.shuffled(rng, n, base)
        inp = CliInput(["oracle", "-"], inputs.edge_list_text(n, edges), n, edges)
        return Op("oracle", n, inp, call_cli, check_oracle, observe_oracle)
    n = rng.randint(6, 12)
    edges = inputs.random_graph_edges(rng, n, rng.randint(0, 3))
    inp = CliInput(["treelike", "-"], inputs.edge_list_text(n, edges), n, edges)
    return Op("treelike", n, inp, call_cli, check_treelike, observe_nothing)


def check_corpus(inp: CliInput, res: CliResult) -> list[str]:
    payload, bad = _parsed(res)
    if payload is None:
        return bad
    if not payload["suite"]["ok"]:
        bad.append(f"suite counterexamples: {payload['suite']['counterexamples'][:1]}")
    if not payload["conjecture"]["consistent"]:
        bad.append("conjecture inconsistent")
    if payload["suite"]["counts"]["trees"] != inp.expect_trees:
        bad.append(f"{payload['suite']['counts']['trees']} trees, expected {inp.expect_trees}")
    return bad


def observe_corpus(inp: CliInput, res: CliResult, counters: Counters) -> None:
    payload = json.loads(res.stdout)
    for rec in payload["suite"]["records"]:
        counters.numbers(int(rec["a"]), int(rec["aut_order"]))
    if inp.argv[1] == "--all-trees":
        for edges in FREE_TREES_OF_ORDER[inp.n]:
            counters.tree(treesym.Tree.from_edges(inp.n, edges))


def check_oracle(inp: CliInput, res: CliResult) -> list[str]:
    payload, bad = _parsed(res)
    if payload is None:
        return bad
    t = treesym.Tree.from_edges(inp.n, inp.edges)
    if int(payload["orbit_count"]) != treesym.asym_unrooted(t):
        bad.append("oracle orbit_count differs from asym_unrooted")
    if int(payload["aut_order"]) != treesym.aut_order(t):
        bad.append("oracle aut_order differs from aut_order")
    if int(payload["total_colorings"]) != 1 << inp.n:
        bad.append("oracle did not scan 2^n colorings")
    return bad


def observe_oracle(inp: CliInput, res: CliResult, counters: Counters) -> None:
    payload = json.loads(res.stdout)
    counters.numbers(int(payload["orbit_count"]), int(payload["aut_order"]))
    counters.tree(treesym.Tree.from_edges(inp.n, inp.edges))


def check_treelike(inp: CliInput, res: CliResult) -> list[str]:
    payload, bad = _parsed(res)
    if payload is None:
        return bad
    if payload["n"] != inp.n or payload["root"] != 0:
        bad.append("treelike echoed the wrong n or root")
    covered = sorted(v for comp in payload["forest"]["components"] for v in comp)
    if covered != list(range(inp.n)):
        bad.append("forest components do not partition the vertices")
    col = payload["coloring"]
    if col is not None and (len(col) != inp.n or set(col) - {"0", "1"}):
        bad.append("coloring is not a 0/1 string of length n")
    return bad


def observe_nothing(inp, res, counters: Counters) -> None:
    pass


CORPUS_CHECK = Workload(
    "corpus_check",
    kinds=[("all_trees", 5, ALL_TREES_K), ("random_prufer", 4, (None,)),
           ("oracle", 10, (None,)), ("treelike", 3, (None,))],
    make=make_corpus,
    trace_rounds=10,
    rounds_per_s=2.3,
)

WORKLOADS = {w.name: w for w in (LARGE_SINGLE, ALL_ROOTS, CORPUS_CHECK)}


def self_test() -> list[str]:
    """The gate's hand-made cases, plus the large_single check fed an all-white P6.

    Returns what the checks got wrong; an empty list means the gate works.
    """
    wrong = gate.self_test()
    edges = inputs.path_edges(6)
    inp = SingleInput(6, edges, inputs.edge_list_text(6, edges), None, 1, 0)
    res = run_single(inp)
    if check_single(inp, res):
        wrong.append("large_single check rejected treesym's colorings of P6")
    res.c0 = treesym.Coloring(6, 0)
    if not any("index 0" in msg for msg in check_single(inp, res)):
        wrong.append("large_single check accepted an all-white coloring of P6")
    return wrong
